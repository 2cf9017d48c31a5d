//! The multi-threaded NFP engine.
//!
//! Mirrors the paper's deployment (Figure 3): a classifier stage pulls
//! packets from the input ring, each NF runs its own stage core (the
//! paper's one-container-per-core), merger-bound traffic flows through a
//! **merger agent** that load-balances by PID hash onto N merger
//! instances, and merged/finished packets reach a collector.
//!
//! The engine executes a sealed [`Program`]: the ring mesh is instantiated
//! straight from the program's [`nfp_orchestrator::WiringPlan`], and each
//! stage drives the corresponding core from [`crate::cores`] — the
//! same cores the deterministic [`crate::sync_engine`] dispatches inline,
//! so the two engines cannot drift semantically. This module owns only the
//! *executor*: stage tasks, SPSC rings ([`crate::ring`]), burst batching,
//! backpressure and stop conditions.
//!
//! **Burst-driven stage cores.** Every stage is a [`crate::exec::StageCore`]
//! whose `pass` drains a full burst (`pop_burst`), processes the whole
//! slice, then pushes downstream (`push_burst`): one atomic publish, one
//! telemetry clock pair and one stats update per burst instead of one per
//! packet. No stage ever blocks mid-pass — sends that hit a full ring
//! spill to a per-target overflow stash (`StashSink`, bounded by the
//! closed-loop in-flight window), which keeps the mesh deadlock-free even
//! when several stages share one thread.
//!
//! **Long-lived, core-budgeted threads.** [`Engine::new`] builds the pool,
//! the ring mesh and at most [`EngineConfig::core_budget`] stage threads
//! ([`crate::exec::plan_pipeline_groups`]) once. Each `run`/`run_io` is a
//! session on the live engine: threads wait at a session gate between
//! sessions, idle within one by spin → yield → park on the engine's
//! [`crate::exec::WakeHub`], and are joined on drop (DESIGN.md §11
//! "Engine lifecycle"). Merge-order sequencing (§4.3 result correctness)
//! lives in [`crate::cores::AgentCore`].

use crate::actions::{Deliver, Msg};
use crate::classifier::Classifier;
use crate::cores::{collector, AgentCore, MergerCore, Outcome};
use crate::exec::{CachePadded, IdlePolicy, Idler, Placement, SessionGate, WakeHub};
use crate::ring::{self, Consumer, Producer, Stash};
use crate::runtime::{FailureKind, NfRuntime};
use crate::stats::{EngineStats, StageStats};
pub use crate::swap::EngineController;
use crate::swap::{EpochReport, EpochTally, ProgramHandle, ReconfigError, TablesResolver};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::tables::{DropBehavior, FtAction, GraphTables, Target};
use nfp_orchestrator::{FailurePolicy, Program, Stage};
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use nfp_traffic::{LatencyRecorder, LatencySummary};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Burst size for ring drains and emissions (the DPDK sweet spot).
const BURST: usize = 32;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Packet pool slots.
    pub pool_size: usize,
    /// Per-ring capacity.
    pub ring_capacity: usize,
    /// Merger instances behind the agent (paper §6.3.3: two suffice for
    /// full speed up to parallelism degree 5).
    pub mergers: usize,
    /// Closed-loop window: maximum packets in flight. Small values give
    /// clean latency numbers; large values measure throughput.
    pub max_in_flight: usize,
    /// Keep delivered packets in the report (correctness tests).
    pub keep_packets: bool,
    /// How long an accumulating-table entry may wait for missing sibling
    /// copies before the merger resolves it from the copies that arrived
    /// (the merge deadline; see DESIGN.md "Failure model"). Generous by
    /// default: a healthy run never comes close.
    pub merge_deadline: Duration,
    /// How long the engine may make zero global progress before the
    /// watchdog declares a busy, heartbeat-silent NF stalled and fails it.
    pub stall_timeout: Duration,
    /// Packet-path telemetry: per-stage latency histograms and trace
    /// sampling (see [`crate::telemetry`]). Histograms are on by default;
    /// tracing is off until `telemetry.trace_every > 0`.
    pub telemetry: TelemetryConfig,
    /// Maximum OS threads this engine may spawn for its stage tasks.
    /// Stages are coalesced onto `min(core_budget, stages)` threads in
    /// pipeline order ([`crate::exec::plan_pipeline_groups`]); budgets
    /// ≥ 2 keep the NF section and the merge section on separate
    /// threads so merge deadlines stay enforceable while an NF blocks.
    /// Defaults to the host's available parallelism, floored at 2 for
    /// exactly that reason; must be non-zero.
    pub core_budget: usize,
    /// CPUs to pin the stage threads to, round-robin by group index.
    /// Empty (the default) disables pinning: threads are only placed once,
    /// at spawn. Every listed CPU must be below
    /// [`host_parallelism`](crate::exec::host_parallelism).
    pub pin_cpus: Vec<usize>,
    /// What an idle stage thread does when a scheduling pass makes no
    /// progress — see [`IdlePolicy`]. The default backs off spin → yield
    /// → park.
    pub idle_policy: crate::exec::IdlePolicy,
    /// Live audit probe: when set, every session registers a gauge slot
    /// on it and publishes injected/delivered/dropped/pool/epoch counters
    /// from the caller's injection loop, so a [`crate::audit`] auditor
    /// thread can check invariants *during* the run. `None` (the default) costs
    /// nothing on the packet path.
    pub probe: Option<Arc<crate::audit::EngineProbe>>,
    /// Pull size for [`Engine::run_io`] ingress bursts (NIC RX-ring
    /// style); ignored by the batch entry points.
    pub io_burst: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            pool_size: 512,
            ring_capacity: 256,
            mergers: 2,
            max_in_flight: 64,
            keep_packets: false,
            merge_deadline: Duration::from_secs(1),
            stall_timeout: Duration::from_secs(2),
            telemetry: TelemetryConfig::default(),
            core_budget: crate::exec::host_parallelism().max(2),
            pin_cpus: Vec::new(),
            idle_policy: crate::exec::IdlePolicy::default(),
            probe: None,
            io_burst: 32,
        }
    }
}

/// Why an [`Engine`] (or [`crate::shard::ShardedEngine`]) refused to
/// build. Caught at construction so a misconfiguration surfaces as a typed
/// error instead of a wedged or panicking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The NF instance list does not match the program's NF positions.
    NfCountMismatch {
        /// NF positions the program drives.
        expected: usize,
        /// NF instances supplied.
        got: usize,
    },
    /// `mergers` was zero — the agent would have nowhere to route.
    NoMergers,
    /// The packet pool cannot cover the closed-loop window: every
    /// in-flight packet can occupy up to `slots_per_packet` pool slots
    /// (original + copies + transient nils), so a pool smaller than
    /// `max_in_flight × slots_per_packet` can wedge the run on pool
    /// exhaustion.
    PoolTooSmall {
        /// Configured pool slots.
        pool_size: usize,
        /// Minimum slots the window requires.
        required: usize,
        /// The configured in-flight window.
        max_in_flight: usize,
        /// Worst-case slots per admitted packet (from the program).
        slots_per_packet: usize,
    },
    /// The program's tables can emit a message along a stage edge the
    /// wiring plan does not provide a ring for. A run would have had to
    /// drop that packet mid-graph (it used to panic); the inconsistency is
    /// rejected here instead.
    MissingRing {
        /// Producing stage.
        from: Stage,
        /// Target stage with no ring from `from`.
        to: Stage,
    },
    /// `core_budget` was zero — the engine would have no thread to run
    /// its stages on.
    ZeroCoreBudget,
    /// A `pin_cpus` entry names a CPU the host does not have.
    PinCpuOutOfRange {
        /// The offending CPU index.
        cpu: usize,
        /// CPUs actually available on this host.
        host: usize,
    },
    /// The idle policy's `park_timeout` was zero: a parked thread could
    /// miss non-notifying progress (pool releases) forever.
    ZeroParkTimeout,
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::NfCountMismatch { expected, got } => {
                write!(
                    f,
                    "program drives {expected} NF positions, got {got} instances"
                )
            }
            EngineError::NoMergers => write!(f, "at least one merger instance is required"),
            EngineError::PoolTooSmall {
                pool_size,
                required,
                max_in_flight,
                slots_per_packet,
            } => write!(
                f,
                "pool of {pool_size} slots cannot cover max_in_flight {max_in_flight} × \
                 {slots_per_packet} slots/packet = {required}"
            ),
            EngineError::MissingRing { from, to } => {
                write!(
                    f,
                    "tables emit {from:?} → {to:?} but the wiring plan has no such ring"
                )
            }
            EngineError::ZeroCoreBudget => {
                write!(f, "core_budget must be at least 1")
            }
            EngineError::PinCpuOutOfRange { cpu, host } => {
                write!(f, "pin_cpus names cpu {cpu} but the host has {host}")
            }
            EngineError::ZeroParkTimeout => {
                write!(f, "idle_policy park_timeout must be non-zero")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One NF that failed during a run — the [`EngineReport`] `failures`
/// section. The engine survives the failure; this records what degraded
/// and how the failure policy handled the NF's subsequent traffic.
#[derive(Debug, Clone)]
pub struct NfFailure {
    /// Graph node (`NodeId`) of the failed NF.
    pub node: usize,
    /// The NF's name.
    pub nf: String,
    /// How it failed (panic or watchdog-detected stall).
    pub kind: FailureKind,
    /// The failure policy that governed its traffic afterwards.
    pub policy: FailurePolicy,
    /// Packets forwarded unprocessed past the failed NF (fail-open).
    pub bypassed: u64,
    /// Packets discarded by policy at the failed NF (fail-closed).
    pub policy_drops: u64,
}

/// Result of one engine run.
#[derive(Debug)]
pub struct EngineReport {
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered to the output.
    pub delivered: u64,
    /// Packets dropped (NF verdicts, merge resolutions, admit rejects).
    pub dropped: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-packet latency summary (inject → collect). `None` when no
    /// packet was delivered (there are no samples to summarize).
    pub latency: Option<LatencySummary>,
    /// Delivered packets, in completion order (when `keep_packets`).
    pub packets: Vec<Packet>,
    /// Per-stage counters for this run.
    pub stats: EngineStats,
    /// NFs that failed during the run (empty on a healthy run).
    pub failures: Vec<NfFailure>,
    /// Pool slots still held when the run finished — 0 unless references
    /// leaked (the failure paths exist precisely to keep this at 0).
    pub pool_in_use: usize,
    /// The program epoch that was current when the run ended.
    pub epoch: u64,
    /// Per-epoch completion tallies over the engine's **lifetime** —
    /// accumulated across runs and live swaps, sorted by epoch (see
    /// [`ProgramHandle::tallies`]). Every delivered or dropped packet is
    /// attributed to exactly one epoch.
    pub epochs: Vec<EpochTally>,
    /// Packet-path telemetry for this run: per-stage latency histograms
    /// (p50/p90/p99/max via [`TelemetrySnapshot::stage`]) and sampled
    /// trace timelines. Empty histograms when telemetry is disabled.
    pub telemetry: TelemetrySnapshot,
    /// Flow-state migration census over the reporting engine's lifetime.
    /// Always zero for a lone [`Engine`] (nothing to migrate); a
    /// [`crate::shard::ShardedEngine`] fills in its rescale history.
    pub migration: MigrationStats,
}

/// Cumulative flow-state migration counters for an elastic fleet.
///
/// The census invariant the soak auditor checks: every rescale must
/// leave `flows_exported == flows_imported` — re-partitioning by
/// [`nfp_packet::flow::FlowKey::shard`] moves every flow somewhere and
/// invents none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Shard-count changes performed.
    pub rescales: u64,
    /// Flow-state entries exported from retiring shards, summed over all
    /// rescales and stateful NF positions.
    pub flows_exported: u64,
    /// Flow-state entries imported into replacement shards after
    /// re-partitioning. Equals `flows_exported` unless state was lost.
    pub flows_imported: u64,
}

impl MigrationStats {
    /// True when every exported flow was re-imported somewhere.
    pub fn balanced(&self) -> bool {
        self.flows_exported == self.flows_imported
    }
}

impl EngineReport {
    /// Throughput in packets/second, counting every packet the engine
    /// *finished* — delivered **and** dropped — because a dropped packet
    /// consumed the same pipeline work as a delivered one. Divide
    /// `delivered` by `elapsed` instead for goodput. Returns `0.0` when
    /// the run had no measurable duration.
    pub fn pps(&self) -> f64 {
        if self.elapsed.as_secs_f64() <= 0.0 {
            return 0.0;
        }
        (self.delivered + self.dropped) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Everything an engine's stage tasks share, built once by [`Engine::new`]
/// and held by every task through one `Arc`; reset by [`Engine::begin`]
/// while every stage thread waits at the gate. Fields written on the
/// packet path sit on cache lines of their own.
struct StageCtx {
    pool: CachePadded<PacketPool>,
    handle: Arc<ProgramHandle>,
    classifier_stats: StageStats,
    nf_stats: Vec<StageStats>,
    agent_stats: StageStats,
    merger_stats: Vec<StageStats>,
    collector_stats: StageStats,
    tele: Telemetry,
    hub: CachePadded<WakeHub>,
    gate: SessionGate,
    /// Last session whose injection ended (the classifier may finish).
    stop: AtomicU64,
    /// Last session whose pool drained (every stage may finish): a
    /// deadline-expired merge accounts its packet while a straggler copy
    /// may still be in flight toward the merger's tombstone.
    quiesce: AtomicU64,
    delivered: CachePadded<AtomicU64>,
    dropped: CachePadded<AtomicU64>,
    watch: Vec<NfWatch>,
    /// Each NF's runtime, parked here between sessions.
    runtimes: Vec<RtSlot>,
    /// The collector's delivered rows, handed back at session end.
    outputs: Mutex<Vec<OutputRow>>,
    keep_packets: AtomicBool,
    /// Origin of the injection stamps ([`nfp_packet::Metadata::inject_ns`]).
    clock: Instant,
}

impl StageCtx {
    fn stats(&self, stage: Stage) -> &StageStats {
        match stage {
            Stage::Classifier => &self.classifier_stats,
            Stage::Nf(i) => &self.nf_stats[i],
            Stage::Agent => &self.agent_stats,
            Stage::Merger(m) => &self.merger_stats[m],
            Stage::Collector => &self.collector_stats,
        }
    }

    fn all_stats(&self) -> impl Iterator<Item = &StageStats> {
        [
            &self.classifier_stats,
            &self.agent_stats,
            &self.collector_stats,
        ]
        .into_iter()
        .chain(&self.nf_stats)
        .chain(&self.merger_stats)
    }

    fn finished(&self) -> u64 {
        self.delivered.load(Ordering::Acquire) + self.dropped.load(Ordering::Acquire)
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }
}

/// One NF's watchdog state: heartbeat, busy flag, failed verdict.
#[derive(Default)]
struct NfWatch {
    hb: AtomicU64,
    busy: AtomicBool,
    failed: AtomicBool,
}

/// Every stage's sink: maps abstract targets onto this stage's ring
/// producers, buffers messages per target and pushes them as bursts —
/// and **never blocks**. When a ring stays full the messages simply wait
/// in the per-target buffer (bounded in practice by the closed-loop
/// in-flight window) until the next [`StashSink::pump`]. Not blocking is
/// what makes stage coalescing safe: the consumer that would relieve the
/// full ring may be scheduled on this very thread, after this stage's
/// pass returns.
///
/// A message for a stage with no ring is *misrouted*: the wiring plan is
/// validated against the tables at [`Engine::new`], so this cannot happen
/// for a sealed program, but the fallback still releases the reference and
/// accounts the packet (instead of panicking the stage thread) so the
/// closed loop terminates even if an invariant is ever violated.
struct StashSink {
    ctx: Arc<StageCtx>,
    from: Stage,
    out: Vec<(Stage, Stash<Msg>)>,
}

impl StashSink {
    fn send(&mut self, stage: Stage, msg: Msg) {
        // Linear scan: a stage has at most a handful of targets, and the
        // Vec avoids hashing a Stage per message.
        let Some((_, q)) = self.out.iter_mut().find(|(to, _)| *to == stage) else {
            // Settle the packet against its stamped epoch before the
            // reference is released (the slot may be reused immediately).
            let ctx = &*self.ctx;
            let epoch = ctx.pool.with(msg.r, |p| p.meta().epoch());
            ctx.pool.release(msg.r);
            ctx.stats(self.from).note_misroute();
            ctx.handle.finish(epoch);
            ctx.dropped.fetch_add(1, Ordering::Release);
            return;
        };
        q.push(msg);
        if q.queued() >= BURST {
            let stats = self.ctx.stats(self.from);
            q.flush(|| stats.note_backpressure());
        }
    }

    /// Retry every per-target buffer; returns true on any progress.
    fn pump(&mut self) -> bool {
        let stats = self.ctx.stats(self.from);
        let mut progress = false;
        for (_, q) in &mut self.out {
            progress |= q.flush(|| stats.note_backpressure());
        }
        progress
    }

    /// Nothing buffered anywhere (quiesce condition).
    fn all_empty(&self) -> bool {
        self.out.iter().all(|(_, q)| q.is_empty())
    }
}

impl Deliver for StashSink {
    fn deliver(&mut self, target: Target, msg: Msg) {
        // `Target::Merger` routes back through the agent itself (the
        // Agent→Agent self-ring): a next-segment copy needs its own
        // sequence assignment and instance pick.
        self.send(Stage::of(target), msg);
    }

    fn flush_hint(&mut self) {
        self.pump();
    }
}

/// Classifier stage task: drains the injection ring into a pending queue
/// and admits it in bursts, in live mode — each admission is pinned to
/// the then-current epoch. A pool-exhausted admission leaves the packet
/// at the front of the queue for the next pass (FIFO and dense-PID order
/// preserved) instead of blocking the thread.
struct ClassifierTask {
    ctx: Arc<StageCtx>,
    session: u64,
    classifier: Classifier,
    inject_rx: Consumer<Packet>,
    pending: VecDeque<Packet>,
    scratch: Vec<Packet>,
    sink: StashSink,
}

impl crate::exec::StageCore for ClassifierTask {
    fn begin(&mut self, session: u64) {
        self.session = session;
        // PIDs restart at 0 every session, as on a fresh engine.
        self.classifier = Classifier::live(Arc::clone(&self.ctx.handle));
    }

    fn pass(&mut self) -> bool {
        let ctx = &*self.ctx;
        ctx.classifier_stats.note_occupancy(self.inject_rx.len());
        let mut progress = false;
        if self.pending.len() < BURST {
            self.scratch.clear();
            if self.inject_rx.pop_burst(&mut self.scratch, BURST) > 0 {
                progress = true;
                self.pending.extend(self.scratch.drain(..));
            }
        }
        if !self.pending.is_empty() {
            let batch = self.classifier.admit_burst(
                &mut self.pending,
                &ctx.pool,
                &mut self.sink,
                &ctx.classifier_stats,
                Some(&ctx.tele),
            );
            // Malformed / unmatched packets are finished here, and the
            // closed loop must account for them.
            if batch.rejected > 0 {
                ctx.dropped.fetch_add(batch.rejected, Ordering::Release);
            }
            progress |= batch.admitted > 0 || batch.rejected > 0;
        }
        progress |= self.sink.pump();
        progress
    }

    fn ready(&self) -> bool {
        !self.inject_rx.is_empty() || !self.pending.is_empty() || !self.sink.all_empty()
    }

    fn done(&self) -> bool {
        self.ctx.stop.load(Ordering::Acquire) >= self.session
            && self.inject_rx.is_empty()
            && self.pending.is_empty()
            && self.sink.all_empty()
    }
}

/// Where an NF runtime parks between sessions, so the engine can rebuild
/// it, harvest its failure report and reach the NF's flow state.
type RtSlot = Mutex<Option<NfRt>>;
type NfRt = NfRuntime<Box<dyn NetworkFunction>>;

/// One delivered packet: inject → collect latency, and the packet if kept.
type OutputRow = (Duration, Option<Packet>);
const POISONED: &str = "engine slot poisoned: a stage thread panicked holding it";

/// NF stage task: drives one NF runtime core. Each pass bumps the
/// watchdog heartbeat and honors a stall verdict before touching more
/// traffic; the busy flag brackets time spent inside the NF so the
/// watchdog only ever blames an NF that is actually holding a packet.
struct NfTask {
    ctx: Arc<StageCtx>,
    session: u64,
    i: usize,
    rt: Option<NfRt>,
    rxs: Vec<Consumer<Msg>>,
    sink: StashSink,
    resolver: TablesResolver,
    batch: Vec<Msg>,
}

impl crate::exec::StageCore for NfTask {
    fn begin(&mut self, session: u64) {
        self.session = session;
        self.rt = self.ctx.runtimes[self.i].lock().expect(POISONED).take();
        self.resolver = TablesResolver::new(Arc::clone(&self.ctx.handle));
    }

    fn pass(&mut self) -> bool {
        let ctx = &*self.ctx;
        let watch = &ctx.watch[self.i];
        let stats = &ctx.nf_stats[self.i];
        watch.hb.fetch_add(1, Ordering::Relaxed);
        let rt = self.rt.as_mut().expect("runtime present until finish");
        if watch.failed.load(Ordering::Acquire) {
            rt.force_fail(FailureKind::Stalled);
        }
        let mut progress = false;
        for rx in &self.rxs {
            stats.note_occupancy(rx.len());
            self.batch.clear();
            if rx.pop_burst(&mut self.batch, BURST) == 0 {
                continue;
            }
            progress = true;
            watch.busy.store(true, Ordering::Release);
            let t0 = ctx.tele.clock();
            let n = self.batch.len() as u64;
            for msg in self.batch.drain(..) {
                // Resolve this packet's NF config by its stamped epoch, so
                // a mid-swap packet is processed under the policy that
                // classified it.
                let epoch = ctx.pool.with(msg.r, |p| p.meta().epoch());
                let tables = self.resolver.get(epoch, stats);
                let cfg = &tables.nf_configs[self.i];
                let before = rt.dropped + rt.errors + rt.policy_drops;
                ctx.tele.trace_ref(Stage::Nf(self.i), &ctx.pool, msg.r);
                rt.handle_with(cfg, msg, &ctx.pool, &mut self.sink, stats);
                let after = rt.dropped + rt.errors + rt.policy_drops;
                if matches!(cfg.on_drop, DropBehavior::Discard) && after > before {
                    // A silent discard finishes the packet right here:
                    // settle it against its epoch (≤ 1 drop per message
                    // by construction).
                    for _ in 0..(after - before) {
                        ctx.handle.finish(epoch);
                    }
                    ctx.dropped.fetch_add(after - before, Ordering::Release);
                }
            }
            ctx.tele.record_split(Stage::Nf(self.i), t0, n);
            watch.busy.store(false, Ordering::Release);
        }
        progress |= self.sink.pump();
        progress
    }

    fn ready(&self) -> bool {
        self.rxs.iter().any(|r| !r.is_empty()) || !self.sink.all_empty()
    }

    fn done(&self) -> bool {
        self.ctx.quiesce.load(Ordering::Acquire) >= self.session
            && self.rxs.iter().all(|r| r.is_empty())
            && self.sink.all_empty()
    }

    fn finish(&mut self) {
        *self.ctx.runtimes[self.i].lock().expect(POISONED) = self.rt.take();
    }
}

/// Merger agent stage task: drives the agent/sequencer core — PID-hash
/// routing (§5.3), dense sequence assignment and in-order outcome
/// release.
struct AgentTask {
    ctx: Arc<StageCtx>,
    session: u64,
    core: AgentCore,
    rxs: Vec<Consumer<Msg>>,
    outcome_rxs: Vec<Consumer<Outcome>>,
    sink: StashSink,
    resolver: TablesResolver,
    batch: Vec<Msg>,
    obatch: Vec<Outcome>,
    picks: Vec<usize>,
}

impl crate::exec::StageCore for AgentTask {
    fn begin(&mut self, session: u64) {
        self.session = session;
        // Sequence numbers restart with the session's PIDs.
        self.core = AgentCore::new(self.outcome_rxs.len());
        self.resolver = TablesResolver::new(Arc::clone(&self.ctx.handle));
    }

    fn pass(&mut self) -> bool {
        let ctx = &*self.ctx;
        let mut progress = false;
        // 1. Route inbound copies/nils, stamping sequence numbers.
        for rx in &self.rxs {
            ctx.agent_stats.note_occupancy(rx.len());
            self.batch.clear();
            if rx.pop_burst(&mut self.batch, BURST) == 0 {
                continue;
            }
            progress = true;
            for msg in self.batch.iter() {
                ctx.tele.trace_ref(Stage::Agent, &ctx.pool, msg.r);
            }
            let t0 = ctx.tele.clock();
            self.picks.clear();
            self.core.route_burst(
                &mut self.batch,
                &ctx.pool,
                &mut self.resolver,
                &ctx.agent_stats,
                &mut self.picks,
            );
            ctx.tele
                .record_split(Stage::Agent, t0, self.batch.len() as u64);
            for (msg, &pick) in self.batch.drain(..).zip(self.picks.iter()) {
                self.sink.send(Stage::Merger(pick), msg);
            }
        }
        // 2. Release merge outcomes in sequence order. Each merge-resolved
        // drop settles against the epoch that classified the packet.
        for orx in &self.outcome_rxs {
            self.obatch.clear();
            if orx.pop_burst(&mut self.obatch, BURST) == 0 {
                continue;
            }
            progress = true;
            for o in self.obatch.drain(..) {
                let drops = self.core.release(
                    o,
                    &ctx.pool,
                    &mut self.resolver,
                    &mut self.sink,
                    &ctx.agent_stats,
                );
                for epoch in drops {
                    ctx.handle.finish(epoch);
                    ctx.dropped.fetch_add(1, Ordering::Release);
                }
            }
        }
        // 3. Retry stalled sends — the agent never blocks.
        progress |= self.sink.pump();
        progress
    }

    fn ready(&self) -> bool {
        self.rxs.iter().any(|r| !r.is_empty())
            || self.outcome_rxs.iter().any(|r| !r.is_empty())
            || !self.sink.all_empty()
    }

    fn done(&self) -> bool {
        self.ctx.quiesce.load(Ordering::Acquire) >= self.session
            && self.rxs.iter().all(|r| r.is_empty())
            && self.outcome_rxs.iter().all(|r| r.is_empty())
            && self.sink.all_empty()
    }
}

/// Merger instance stage task: accumulate → merge → return outcomes to
/// the agent. The outcome push is non-blocking (stash with a drain
/// offset), and the deadline pass runs even on otherwise idle passes so a
/// wedged merge cannot outlive its deadline just because traffic stopped.
struct MergerTask {
    ctx: Arc<StageCtx>,
    session: u64,
    m: usize,
    core: MergerCore,
    rxs: Vec<Consumer<Msg>>,
    /// Outcomes back to the agent; it always drains, so the stash is
    /// bounded by the in-flight window.
    outcomes: Stash<Outcome>,
    resolver: TablesResolver,
    batch: Vec<Msg>,
    started: Instant,
    merge_deadline_ms: u64,
}

impl crate::exec::StageCore for MergerTask {
    fn begin(&mut self, session: u64) {
        self.session = session;
        // Fresh accumulating table (no tombstones from earlier sessions,
        // whose PIDs are reused) and a fresh merge-deadline clock.
        self.core = MergerCore::new();
        self.started = Instant::now();
        self.resolver = TablesResolver::new(Arc::clone(&self.ctx.handle));
    }

    fn pass(&mut self) -> bool {
        let ctx = &*self.ctx;
        let stats = &ctx.merger_stats[self.m];
        let mut progress = false;
        for rx in &self.rxs {
            stats.note_occupancy(rx.len());
            self.batch.clear();
            if rx.pop_burst(&mut self.batch, BURST) == 0 {
                continue;
            }
            progress = true;
            for msg in self.batch.iter() {
                ctx.tele.trace_ref(Stage::Merger(self.m), &ctx.pool, msg.r);
            }
            let now_ms = self.started.elapsed().as_millis() as u64;
            let t0 = ctx.tele.clock();
            self.core.offer_burst(
                &self.batch,
                &ctx.pool,
                &mut self.resolver,
                stats,
                now_ms,
                self.outcomes.queue(),
            );
            ctx.tele
                .record_split(Stage::Merger(self.m), t0, self.batch.len() as u64);
        }
        // Deadline pass: resolve entries whose siblings stopped coming (a
        // failed NF never sends its copy).
        if self.core.pending_len() > 0 {
            if let Some(cutoff) =
                (self.started.elapsed().as_millis() as u64).checked_sub(self.merge_deadline_ms)
            {
                let expired = self
                    .core
                    .expire(cutoff, &ctx.pool, &mut self.resolver, stats);
                if !expired.is_empty() {
                    progress = true;
                    self.outcomes.queue().extend(expired);
                }
            }
        }
        progress |= self.outcomes.flush(|| stats.note_backpressure());
        progress
    }

    fn ready(&self) -> bool {
        self.rxs.iter().any(|r| !r.is_empty()) || !self.outcomes.is_empty()
    }

    fn done(&self) -> bool {
        self.ctx.quiesce.load(Ordering::Acquire) >= self.session
            && self.rxs.iter().all(|r| r.is_empty())
            && self.outcomes.is_empty()
    }
}

/// Collector stage task: take finished packets out of the pool in bursts,
/// time each against its own injection stamp, count — and hand the
/// outputs back through the context at finish.
struct CollectorTask {
    ctx: Arc<StageCtx>,
    session: u64,
    rxs: Vec<Consumer<Msg>>,
    batch: Vec<Msg>,
    pkts: Vec<Packet>,
    outputs: Vec<OutputRow>,
    keep_packets: bool,
}

impl crate::exec::StageCore for CollectorTask {
    fn begin(&mut self, session: u64) {
        self.session = session;
        self.keep_packets = self.ctx.keep_packets.load(Ordering::Relaxed);
    }

    fn pass(&mut self) -> bool {
        let ctx = &*self.ctx;
        let mut progress = false;
        for rx in &self.rxs {
            ctx.collector_stats.note_occupancy(rx.len());
            self.batch.clear();
            if rx.pop_burst(&mut self.batch, BURST) == 0 {
                continue;
            }
            progress = true;
            let t0 = ctx.tele.clock();
            self.pkts.clear();
            collector::collect_burst(&self.batch, &ctx.pool, &ctx.collector_stats, &mut self.pkts);
            ctx.tele
                .record_split(Stage::Collector, t0, self.batch.len() as u64);
            let t_out = ctx.now_ns();
            let n = self.pkts.len() as u64;
            for pkt in self.pkts.drain(..) {
                let meta = pkt.meta();
                ctx.tele.hop_if_traced(Stage::Collector, meta, pkt.is_nil());
                // Delivery settles the packet against the epoch that
                // classified it.
                ctx.handle.finish(meta.epoch());
                let latency = Duration::from_nanos(t_out.saturating_sub(meta.inject_ns()));
                self.outputs
                    .push((latency, self.keep_packets.then_some(pkt)));
            }
            ctx.delivered.fetch_add(n, Ordering::Release);
        }
        progress
    }

    fn ready(&self) -> bool {
        self.rxs.iter().any(|r| !r.is_empty())
    }

    fn done(&self) -> bool {
        self.ctx.quiesce.load(Ordering::Acquire) >= self.session
            && self.rxs.iter().all(|r| r.is_empty())
    }

    fn finish(&mut self) {
        *self.ctx.outputs.lock().expect(POISONED) = std::mem::take(&mut self.outputs);
    }
}

/// Stages a list of forwarding actions can deliver messages to.
fn action_stages(actions: &[FtAction]) -> Vec<Stage> {
    let mut out = Vec::new();
    for a in actions {
        match a {
            FtAction::Distribute { targets, .. } => {
                out.extend(targets.iter().map(|&t| Stage::of(t)));
            }
            FtAction::Output { .. } => out.push(Stage::Collector),
            FtAction::Copy { .. } => {}
        }
    }
    out
}

/// Check that every stage edge the tables can emit a message along has a
/// ring in the wiring plan, so a run can never misroute (the sinks used to
/// panic on this; now it cannot build).
fn validate_wiring(program: &Program, mergers: usize) -> Result<(), EngineError> {
    let tables: &GraphTables = program.tables();
    let check = |from: Stage, needed: Vec<Stage>| -> Result<(), EngineError> {
        let have = program.wiring().targets_of(from, mergers);
        needed.into_iter().try_for_each(|to| {
            if have.contains(&to) {
                Ok(())
            } else {
                Err(EngineError::MissingRing { from, to })
            }
        })
    };
    check(Stage::Classifier, action_stages(&tables.entry_actions))?;
    for (i, cfg) in tables.nf_configs.iter().enumerate() {
        let mut needed = action_stages(&cfg.actions);
        if matches!(cfg.on_drop, DropBehavior::NilToMerger { .. }) {
            needed.push(Stage::Agent);
        }
        check(Stage::Nf(i), needed)?;
    }
    let mut agent_needed: Vec<Stage> = (0..mergers).map(Stage::Merger).collect();
    for spec in &tables.merge_specs {
        agent_needed.extend(action_stages(&spec.next));
    }
    check(Stage::Agent, agent_needed)
}

/// What the injector loop pulls from: a pre-materialized batch (the
/// historical closed-loop entry points) or a live [`Ingress`] pulled in
/// bursts. Streaming keeps the burst buffered locally so backpressure
/// (`max_in_flight`, ring-full retries) applies per packet, exactly as
/// in the batch path.
pub(crate) enum Feed<'a> {
    Batch(std::vec::IntoIter<Packet>),
    Stream {
        ingress: &'a mut dyn Ingress,
        burst: usize,
        buf: VecDeque<Packet>,
        done: bool,
        error: Option<IoError>,
    },
}

impl<'a> Feed<'a> {
    pub(crate) fn batch(packets: Vec<Packet>) -> Self {
        Feed::Batch(packets.into_iter())
    }

    fn stream(ingress: &'a mut dyn Ingress, burst: usize) -> Self {
        Feed::Stream {
            ingress,
            burst,
            buf: VecDeque::new(),
            done: false,
            error: None,
        }
    }

    /// Next packet to inject, or `None` when the source is exhausted
    /// (batch empty, ingress end-of-stream, or ingress error — the error
    /// is parked for [`Feed::take_error`] so the run still drains what
    /// was already injected).
    fn next(&mut self) -> Option<Packet> {
        match self {
            Feed::Batch(it) => it.next(),
            Feed::Stream {
                ingress,
                burst,
                buf,
                done,
                error,
            } => loop {
                if let Some(pkt) = buf.pop_front() {
                    return Some(pkt);
                }
                if *done {
                    return None;
                }
                match ingress.next_burst(*burst) {
                    Ok(Some(pkts)) => buf.extend(pkts),
                    Ok(None) => *done = true,
                    Err(e) => {
                        *error = Some(e);
                        *done = true;
                    }
                }
            },
        }
    }

    fn take_error(&mut self) -> Option<IoError> {
        match self {
            Feed::Batch(_) => None,
            Feed::Stream { error, .. } => error.take(),
        }
    }
}

/// The threaded engine: one long-lived executor for a sealed [`Program`].
///
/// [`Engine::new`] builds the packet pool, the ring mesh (from the
/// program's wiring plan) and the stage threads once. Each
/// [`run`](Engine::run) / [`run_io`](Engine::run_io) is a *session* on
/// the live engine: the stage threads wait at a session gate between
/// sessions (blocked, costing no CPU), and every session starts from the
/// state a freshly built engine would — only the NFs' flow state carries
/// over. [`reconfigure`](Engine::reconfigure) works between or during
/// sessions; dropping the engine shuts the gate and joins every thread.
pub struct Engine {
    ctx: Arc<StageCtx>,
    config: EngineConfig,
    inject_tx: Producer<Packet>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Generation of the last session opened.
    session: u64,
}

impl Engine {
    /// Create an engine executing `program` with NF instances ordered by
    /// `NodeId`, and start its stage threads. Validates the configuration
    /// against the program's pool footprint — a pool that cannot cover
    /// the in-flight window is rejected here rather than wedging a run
    /// later.
    pub fn new(
        program: Program,
        nfs: Vec<Box<dyn NetworkFunction>>,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        Self::build(program, nfs, config, WakeHub::new(), 0)
    }

    /// [`Engine::new`] as replica `shard` of a fleet: its wake hub's
    /// parent is where the fleet's caller thread parks, and its threads
    /// start on CPUs past the earlier replicas'.
    pub(crate) fn build(
        program: Program,
        nfs: Vec<Box<dyn NetworkFunction>>,
        config: EngineConfig,
        hub: WakeHub,
        shard: usize,
    ) -> Result<Engine, EngineError> {
        if nfs.len() != program.nf_count() {
            return Err(EngineError::NfCountMismatch {
                expected: program.nf_count(),
                got: nfs.len(),
            });
        }
        if config.mergers == 0 {
            return Err(EngineError::NoMergers);
        }
        if config.core_budget == 0 {
            return Err(EngineError::ZeroCoreBudget);
        }
        let host = crate::exec::host_parallelism();
        if let Some(&cpu) = config.pin_cpus.iter().find(|&&cpu| cpu >= host) {
            return Err(EngineError::PinCpuOutOfRange { cpu, host });
        }
        if let crate::exec::IdlePolicy::Backoff { park_timeout, .. } = config.idle_policy {
            if park_timeout.is_zero() {
                return Err(EngineError::ZeroParkTimeout);
            }
        }
        validate_wiring(&program, config.mergers)?;
        let slots = program.slots_per_packet();
        let required = config.max_in_flight.max(1) * slots;
        if config.pool_size < required {
            return Err(EngineError::PoolTooSmall {
                pool_size: config.pool_size,
                required,
                max_in_flight: config.max_in_flight,
                slots_per_packet: slots,
            });
        }

        let n_nfs = nfs.len();
        let n_mergers = config.mergers;
        let handle = Arc::new(ProgramHandle::new(program.clone()));
        let ctx = Arc::new(StageCtx {
            pool: CachePadded::new(PacketPool::new(config.pool_size)),
            handle: Arc::clone(&handle),
            classifier_stats: StageStats::new(),
            nf_stats: (0..n_nfs).map(|_| StageStats::new()).collect(),
            agent_stats: StageStats::new(),
            merger_stats: (0..n_mergers).map(|_| StageStats::new()).collect(),
            collector_stats: StageStats::new(),
            tele: Telemetry::new(config.telemetry.clone(), n_nfs, n_mergers),
            hub: CachePadded::new(hub),
            gate: SessionGate::new(),
            stop: AtomicU64::new(0),
            quiesce: AtomicU64::new(0),
            delivered: CachePadded::new(AtomicU64::new(0)),
            dropped: CachePadded::new(AtomicU64::new(0)),
            watch: (0..n_nfs).map(|_| NfWatch::default()).collect(),
            runtimes: nfs
                .into_iter()
                .zip(program.tables().nf_configs.iter().cloned())
                .map(|(nf, cfg)| Mutex::new(Some(NfRuntime::new(nf, cfg))))
                .collect(),
            outputs: Mutex::new(Vec::new()),
            keep_packets: AtomicBool::new(false),
            clock: Instant::now(),
        });

        // One SPSC ring per wiring-plan edge. A hot swap only installs a
        // topology-identical successor, so the mesh outlives epochs;
        // per-packet lookups go through epoch-keyed resolvers.
        let mut inbound: Vec<(Stage, Consumer<Msg>)> = Vec::new();
        let mut sink = |from: Stage| StashSink {
            ctx: Arc::clone(&ctx),
            from,
            out: program
                .wiring()
                .targets_of(from, n_mergers)
                .into_iter()
                .map(|to| {
                    let (p, rx) = ring::channel(config.ring_capacity);
                    inbound.push((to, rx));
                    (to, Stash::new(p))
                })
                .collect(),
        };
        let classifier_sink = sink(Stage::Classifier);
        let nf_sinks: Vec<StashSink> = (0..n_nfs).map(|i| sink(Stage::Nf(i))).collect();
        let agent_sink = sink(Stage::Agent);
        let mut rx_of = |to: Stage| -> Vec<Consumer<Msg>> {
            let (mine, rest) = std::mem::take(&mut inbound)
                .into_iter()
                .partition(|(s, _)| *s == to);
            inbound = rest;
            mine.into_iter().map(|(_, rx)| rx).collect()
        };
        let (inject_tx, inject_rx) = ring::channel::<Packet>(config.ring_capacity);
        let (outcome_txs, outcome_rxs): (Vec<_>, Vec<_>) = (0..n_mergers)
            .map(|_| ring::channel::<Outcome>(config.ring_capacity))
            .unzip();
        let resolver = || TablesResolver::new(Arc::clone(&handle));

        // Stage tasks in pipeline order; contiguous grouping then keeps
        // producer→consumer pairs together when coalescing.
        let mut tasks: Vec<Box<dyn crate::exec::StageCore>> =
            Vec::with_capacity(3 + n_nfs + n_mergers);
        tasks.push(Box::new(ClassifierTask {
            ctx: Arc::clone(&ctx),
            session: 0,
            classifier: Classifier::live(Arc::clone(&handle)),
            inject_rx,
            pending: VecDeque::new(),
            scratch: Vec::new(),
            sink: classifier_sink,
        }));
        for (i, sink) in nf_sinks.into_iter().enumerate() {
            tasks.push(Box::new(NfTask {
                ctx: Arc::clone(&ctx),
                session: 0,
                i,
                rt: None,
                rxs: rx_of(Stage::Nf(i)),
                sink,
                resolver: resolver(),
                batch: Vec::new(),
            }));
        }
        tasks.push(Box::new(AgentTask {
            ctx: Arc::clone(&ctx),
            session: 0,
            core: AgentCore::new(n_mergers),
            rxs: rx_of(Stage::Agent),
            outcome_rxs,
            sink: agent_sink,
            resolver: resolver(),
            batch: Vec::new(),
            obatch: Vec::new(),
            picks: Vec::new(),
        }));
        for (m, outcome_tx) in outcome_txs.into_iter().enumerate() {
            tasks.push(Box::new(MergerTask {
                ctx: Arc::clone(&ctx),
                session: 0,
                m,
                core: MergerCore::new(),
                rxs: rx_of(Stage::Merger(m)),
                outcomes: Stash::new(outcome_tx),
                resolver: resolver(),
                batch: Vec::new(),
                started: Instant::now(),
                merge_deadline_ms: config.merge_deadline.as_millis() as u64,
            }));
        }
        tasks.push(Box::new(CollectorTask {
            ctx: Arc::clone(&ctx),
            session: 0,
            rxs: rx_of(Stage::Collector),
            batch: Vec::new(),
            pkts: Vec::new(),
            outputs: Vec::new(),
            keep_packets: false,
        }));

        // At most `core_budget` threads; budgets ≥ 2 never mix the front
        // (classifier + NFs) and back (agent, mergers, collector) sections,
        // so a blocking NF cannot starve merge-deadline enforcement.
        let groups =
            crate::exec::plan_pipeline_groups(1 + n_nfs, 2 + n_mergers, config.core_budget.max(1));
        // Unpinned threads start on the CPUs after the building thread's
        // (past earlier replicas'), so busy groups never start stacked.
        let spread_from = 1 + shard * groups.len();
        let mut tasks = tasks.into_iter();
        let threads: Vec<_> = groups
            .iter()
            .enumerate()
            .map(|(g, range)| {
                let cores: Vec<_> = tasks.by_ref().take(range.len()).collect();
                let ctx = Arc::clone(&ctx);
                let policy = config.idle_policy;
                let placement = match config.pin_cpus.as_slice() {
                    [] => crate::exec::cpu_after_current(spread_from + g)
                        .map_or(Placement::Any, Placement::Nudge),
                    pins => Placement::Pin(pins[g % pins.len()]),
                };
                std::thread::Builder::new()
                    .name(format!("nfp-stage{g}"))
                    .spawn(move || {
                        crate::exec::serve(cores, &ctx.hub, &ctx.gate, policy, placement)
                    })
                    .expect("spawn engine stage thread")
            })
            .collect();
        // Return once every thread is placed and at the gate, so the first
        // session does not race thread start-up.
        ctx.gate.wait_arrived(threads.len() as u64);
        Ok(Self {
            ctx,
            config,
            inject_tx,
            threads,
            session: 0,
        })
    }

    /// The engine's swappable program slot (shared with every stage).
    pub fn handle(&self) -> &Arc<ProgramHandle> {
        &self.ctx.handle
    }

    /// The current program epoch.
    pub fn epoch(&self) -> u64 {
        self.ctx.handle.epoch()
    }

    /// A detached controller for reconfiguring this engine — including
    /// from another thread while [`Engine::run`] is live.
    pub fn controller(&self) -> EngineController {
        EngineController {
            handle: Arc::clone(&self.ctx.handle),
            pool_size: self.config.pool_size,
            max_in_flight: self.config.max_in_flight,
            drain_timeout: self.config.stall_timeout,
        }
    }

    /// Hot-swap to `program`; see [`EngineController::reconfigure`].
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        self.controller().reconfigure(program)
    }

    /// Run one session over `packets` (closed loop) and report.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        let (report, _, err) = self.run_feed(Feed::batch(packets));
        debug_assert!(err.is_none(), "batch feeds cannot fail");
        report
    }

    /// Run the engine against a pluggable [`Ingress`]/[`Egress`] backend
    /// pair: bursts of [`EngineConfig::io_burst`] packets are pulled and
    /// injected on the caller thread until the ingress reports end of
    /// stream, then every delivered packet is emitted to `egress` (in
    /// collector completion order) and the egress is flushed.
    ///
    /// `keep_packets` is forced on for the duration of the call so
    /// delivered frames exist to emit; the caller's setting is restored
    /// (and the packets dropped from the report) afterwards.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        let keep = self.set_keep_packets(true);
        let burst = self.config.io_burst.max(1);
        let (mut report, _recorder, err) = self.run_feed(Feed::stream(ingress, burst));
        self.set_keep_packets(keep);
        if let Some(e) = err {
            return Err(e);
        }
        egress.emit_burst(&report.packets)?;
        egress.flush()?;
        let rejected = report.stats.classifier.rejects();
        let io = IoRunStats {
            pulled: report.injected,
            delivered: report.delivered,
            dropped: report.dropped.saturating_sub(rejected),
            rejected,
        };
        if !keep {
            report.packets.clear();
        }
        Ok((report, io))
    }

    /// Crate-internal toggle for the sharded front-end's I/O entry
    /// point: force delivered packets to materialize for the run, then
    /// restore. Returns the previous setting.
    pub(crate) fn set_keep_packets(&mut self, keep: bool) -> bool {
        std::mem::replace(&mut self.config.keep_packets, keep)
    }

    /// One session on the caller thread, start to finish (an ingress
    /// error stops injection; everything injected is still accounted).
    fn run_feed<'a>(&'a mut self, feed: Feed<'a>) -> SessionResult {
        let ctx = Arc::clone(&self.ctx);
        let policy = self.config.idle_policy;
        let mut session = self.begin(feed);
        drive_sessions(std::slice::from_mut(&mut session), &ctx.hub, policy);
        session.finish()
    }

    /// Open a session without blocking: reset what a freshly built engine
    /// starts from — every stage thread waits at the gate, so nothing
    /// records concurrently — then open the gate.
    pub(crate) fn begin<'a>(&'a mut self, feed: Feed<'a>) -> Session<'a> {
        let ctx = &*self.ctx;
        // Failure and bypass state resets with a runtime rebuilt from the
        // current program; the NF (and its flow state) carries over.
        let tables = ctx.handle.current().tables();
        for (slot, cfg) in ctx.runtimes.iter().zip(&tables.nf_configs) {
            let mut slot = slot.lock().expect(POISONED);
            let nf = slot.take().expect("runtime parked between sessions");
            *slot = Some(NfRuntime::new(nf.into_nf(), cfg.clone()));
        }
        ctx.all_stats().for_each(StageStats::reset);
        ctx.tele.reset();
        ctx.delivered.store(0, Ordering::Relaxed);
        ctx.dropped.store(0, Ordering::Relaxed);
        // A stall verdict must not outlive its session.
        for w in &ctx.watch {
            w.failed.store(false, Ordering::Relaxed);
        }
        ctx.keep_packets
            .store(self.config.keep_packets, Ordering::Relaxed);
        // One live-audit gauge slot per session, budgeted to the window.
        let gauges = self.config.probe.as_ref().map(|p| p.register());
        if let Some(g) = &gauges {
            let slots = ctx.handle.current().program().slots_per_packet() as u64;
            g.pool_budget
                .store(self.window() * slots, Ordering::Relaxed);
            g.active.store(true, Ordering::Release);
        }
        self.session += 1;
        ctx.gate.open(self.session);
        let now = Instant::now();
        Session {
            id: self.session,
            wd_hb: vec![(0, now); ctx.watch.len()],
            engine: self,
            feed,
            phase: Phase::Inject,
            next: None,
            ring_full: false,
            injected: 0,
            started: now,
            gauges,
            wd_total: (0, now),
        }
    }

    fn window(&self) -> u64 {
        self.config.max_in_flight.max(1) as u64
    }

    /// Export each NF's per-flow state, one [`FlowSnapshot`] per NF
    /// position (in `NodeId` order, matching the program's node
    /// numbering). Stateless positions export empty snapshots. Call
    /// between runs — the closed loop guarantees no packet is in flight
    /// then, so the snapshot is a consistent cut.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        self.with_runtimes(|_, rt| rt.nf().snapshot_state())
    }

    /// Restore per-position snapshots exported by [`Engine::export_flow_state`]
    /// (after the caller partition-filtered them to this engine's shard).
    /// Positions beyond the snapshot vector, and empty snapshots, are
    /// left untouched.
    pub fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) {
        let mut snaps = snaps.iter();
        self.with_runtimes(|_, rt| match snaps.next() {
            Some(snap) if !snap.is_empty() => rt.nf_mut().restore_state(snap),
            _ => {}
        });
    }

    /// Tell every NF which shard partition this engine serves, arming
    /// the debug-build RSS-ownership assertions on their flow tables.
    pub fn bind_partition(&mut self, index: usize, total: usize) {
        self.with_runtimes(|_, rt| rt.nf_mut().bind_partition(index, total));
    }

    /// Apply `f` to every NF runtime, in `NodeId` order, between
    /// sessions (when the runtimes are parked in their slots).
    fn with_runtimes<R>(&self, mut f: impl FnMut(usize, &mut NfRt) -> R) -> Vec<R> {
        let slots = self.ctx.runtimes.iter().enumerate();
        slots
            .map(|(i, slot)| {
                f(
                    i,
                    slot.lock()
                        .expect(POISONED)
                        .as_mut()
                        .expect("runtime parked"),
                )
            })
            .collect()
    }
}

impl Drop for Engine {
    /// Shut the session gate and join every stage thread.
    fn drop(&mut self) {
        self.ctx.gate.shut();
        self.ctx.hub.notify();
        for t in self.threads.drain(..) {
            // A panicked thread already failed its session.
            let _ = t.join();
        }
    }
}

/// A session's report, raw latency samples and first ingress error.
pub(crate) type SessionResult = (EngineReport, LatencyRecorder, Option<IoError>);

/// Where a session stands on the caller side: injecting, waiting for
/// every packet to finish, for the pool to drain (stop raised), for every
/// thread to leave (quiesce raised), done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Inject,
    Drain,
    PoolDrain,
    Join,
    Done,
}

/// One session on a live [`Engine`], driven from the caller thread
/// without blocking: [`Session::poll`] injects what the window and the
/// ring allow and advances the stop → pool drain → quiesce → join
/// phases. A sharded fleet polls all its shards' sessions from one
/// thread ([`drive_sessions`]).
pub(crate) struct Session<'a> {
    engine: &'a Engine,
    feed: Feed<'a>,
    id: u64,
    phase: Phase,
    /// A packet pulled from the feed but not yet injected.
    next: Option<Packet>,
    /// The last push found the injection ring full.
    ring_full: bool,
    injected: u64,
    started: Instant,
    gauges: Option<Arc<crate::audit::ProbeGauges>>,
    wd_total: (u64, Instant),
    wd_hb: Vec<(u64, Instant)>,
}

impl Session<'_> {
    /// Make whatever progress is possible without waiting; returns true
    /// if anything moved.
    pub(crate) fn poll(&mut self) -> bool {
        let engine = self.engine;
        let ctx = &*engine.ctx;
        let mut progress = false;
        loop {
            match self.phase {
                Phase::Inject => {
                    if self.next.is_none() {
                        self.next = self.feed.next();
                        if self.next.is_none() {
                            self.phase = Phase::Drain;
                            continue;
                        }
                    }
                    if self.in_flight() >= engine.window() {
                        break;
                    }
                    // Stamp the injection so the collector can time the
                    // packet against it, whatever PID it is admitted as.
                    let mut pkt = self.next.take().expect("pulled above");
                    pkt.set_meta(pkt.meta().with_inject_ns(ctx.now_ns()));
                    match engine.inject_tx.push(pkt) {
                        Ok(()) => {
                            self.injected += 1;
                            self.ring_full = false;
                            progress = true;
                            self.publish();
                            // The classifier may be parked; its work
                            // predicate cannot see the push without a
                            // generation bump.
                            ctx.hub.notify();
                        }
                        Err(back) => {
                            self.next = Some(back);
                            self.ring_full = true;
                            break;
                        }
                    }
                }
                Phase::Drain if ctx.finished() >= self.injected => {
                    ctx.stop.store(self.id, Ordering::Release);
                    ctx.hub.notify();
                    self.phase = Phase::PoolDrain;
                    progress = true;
                }
                Phase::PoolDrain if ctx.pool.in_use() == 0 => {
                    ctx.quiesce.store(self.id, Ordering::Release);
                    ctx.hub.notify();
                    self.phase = Phase::Join;
                    progress = true;
                }
                Phase::Join if self.joined() => {
                    self.phase = Phase::Done;
                    progress = true;
                }
                _ => break,
            }
        }
        if !progress && self.phase != Phase::Done {
            self.check_stall();
            self.publish();
        }
        progress
    }

    fn in_flight(&self) -> u64 {
        self.injected.saturating_sub(self.engine.ctx.finished())
    }

    fn joined(&self) -> bool {
        self.engine.ctx.gate.left() >= self.id * self.engine.threads.len() as u64
    }

    /// The condition the session is waiting on now holds (the pre-park
    /// re-check for [`crate::exec::Idler::idle`]).
    pub(crate) fn ready(&self) -> bool {
        let ctx = &*self.engine.ctx;
        match self.phase {
            Phase::Inject => !self.ring_full && self.in_flight() < self.engine.window(),
            Phase::Drain => ctx.finished() >= self.injected,
            Phase::PoolDrain => ctx.pool.in_use() == 0,
            Phase::Join => self.joined(),
            Phase::Done => false,
        }
    }

    /// Every stage thread has left the session.
    pub(crate) fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Publish the session's live gauges (no-op without a probe); the
    /// caller side is the one place that sees every counter.
    fn publish(&self) {
        if let Some(g) = &self.gauges {
            let ctx = &*self.engine.ctx;
            g.publish(
                self.injected,
                ctx.delivered.load(Ordering::Relaxed),
                ctx.dropped.load(Ordering::Relaxed),
                ctx.pool.in_use() as u64,
                ctx.handle.epoch(),
            );
        }
    }

    /// Cooperative stall watchdog, run whenever the session waits: when
    /// the whole engine makes no progress for `stall_timeout` while some
    /// NF sits busy with a static heartbeat, that NF is holding the
    /// pipeline hostage — hand down a failed verdict so its task
    /// force-fails the runtime the next time the NF yields control back
    /// (an NF that never returns at all is unrecoverable; see DESIGN.md).
    fn check_stall(&mut self) {
        let engine = self.engine;
        let ctx = &*engine.ctx;
        assert!(
            !engine.threads.iter().any(|t| t.is_finished()),
            "engine stage thread exited mid-session"
        );
        let now = Instant::now();
        let total = ctx.finished();
        if total != self.wd_total.0 {
            self.wd_total = (total, now);
        }
        for (w, slot) in ctx.watch.iter().zip(self.wd_hb.iter_mut()) {
            let hb = w.hb.load(Ordering::Relaxed);
            if hb != slot.0 {
                *slot = (hb, now);
            }
        }
        let stall = engine.config.stall_timeout;
        if now.duration_since(self.wd_total.1) < stall {
            return;
        }
        for (w, slot) in ctx.watch.iter().zip(&self.wd_hb) {
            if w.busy.load(Ordering::Acquire) && now.duration_since(slot.1) >= stall {
                w.failed.store(true, Ordering::Release);
            }
        }
    }

    /// Harvest a finished session into its report.
    pub(crate) fn finish(mut self) -> SessionResult {
        debug_assert!(self.done(), "finish before every thread left");
        self.publish();
        if let Some(g) = &self.gauges {
            g.active.store(false, Ordering::Release);
        }
        let ctx = &*self.engine.ctx;
        let outputs = std::mem::take(&mut *ctx.outputs.lock().expect(POISONED));
        let mut latency = LatencyRecorder::with_capacity(outputs.len());
        let mut packets = Vec::new();
        for (sample, pkt) in outputs {
            latency.record(sample);
            packets.extend(pkt);
        }
        let failures = self.engine.with_runtimes(|node, rt| {
            rt.failure().cloned().map(|kind| NfFailure {
                node,
                nf: rt.nf().name().to_string(),
                kind,
                policy: rt.failure_policy(),
                bypassed: rt.bypassed,
                policy_drops: rt.policy_drops,
            })
        });
        let report = EngineReport {
            injected: self.injected,
            delivered: ctx.delivered.load(Ordering::Acquire),
            dropped: ctx.dropped.load(Ordering::Acquire),
            elapsed: self.started.elapsed(),
            latency: latency.summary(),
            packets,
            stats: EngineStats {
                classifier: ctx.classifier_stats.snapshot(),
                nfs: ctx.nf_stats.iter().map(StageStats::snapshot).collect(),
                agent: ctx.agent_stats.snapshot(),
                mergers: ctx.merger_stats.iter().map(StageStats::snapshot).collect(),
                collector: ctx.collector_stats.snapshot(),
            },
            failures: failures.into_iter().flatten().collect(),
            pool_in_use: ctx.pool.in_use(),
            epoch: ctx.handle.epoch(),
            epochs: ctx.handle.tallies(),
            telemetry: ctx.tele.snapshot(),
            migration: MigrationStats::default(),
        };
        (report, latency, self.feed.take_error())
    }
}

/// Drive `sessions` to completion from the calling thread, idling
/// adaptively (spin → yield → park on `hub`) whenever no session can make
/// progress; any stage progress notifies the hub and wakes the caller.
pub(crate) fn drive_sessions(sessions: &mut [Session<'_>], hub: &WakeHub, policy: IdlePolicy) {
    let mut idler = Idler::new(hub, policy);
    while !sessions.iter().all(Session::done) {
        let mut progress = false;
        for s in sessions.iter_mut() {
            progress |= s.poll();
        }
        if progress {
            idler.reset();
        } else {
            idler.idle(|| sessions.iter().any(Session::ready));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_nf::firewall::Firewall;
    use nfp_nf::lb::LoadBalancer;
    use nfp_nf::monitor::Monitor;
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_packet::ipv4::Ipv4Addr;
    use nfp_policy::Policy;
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    fn build(chain: &[&str], config: EngineConfig) -> Engine {
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(chain.iter().copied()),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        let nfs: Vec<Box<dyn NetworkFunction>> = compiled
            .graph
            .nodes
            .iter()
            .map(|n| -> Box<dyn NetworkFunction> {
                match n.name.as_str() {
                    "Monitor" => Box::new(Monitor::new("Monitor")),
                    "Firewall" => Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
                    "LoadBalancer" => Box::new(LoadBalancer::with_uniform_backends("LB", 4)),
                    other => panic!("{other}"),
                }
            })
            .collect();
        Engine::new(program, nfs, config).unwrap()
    }

    fn traffic(n: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows: 16,
            sizes: SizeDistribution::Fixed(128),
            ..TrafficSpec::default()
        })
        .batch(n)
    }

    #[test]
    fn parallel_graph_delivers_everything() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(200));
        assert_eq!(report.injected, 200);
        assert_eq!(report.delivered, 200);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets.len(), 200);
        assert!(report.latency.unwrap().count == 200);
    }

    #[test]
    fn copy_merge_graph_rewrites_like_sync_engine() {
        let mut e = build(
            &["Monitor", "LoadBalancer"],
            EngineConfig {
                keep_packets: true,
                max_in_flight: 4,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(100));
        assert_eq!(report.delivered, 100);
        for p in &report.packets {
            assert_eq!(p.dip().unwrap().0[0], 192, "LB rewrite merged in");
            assert_eq!(p.sip().unwrap(), Ipv4Addr::new(10, 255, 0, 1));
        }
    }

    #[test]
    fn drops_counted_in_sequential_chain() {
        // NAT before LB is sequential; use a firewall chain with traffic
        // that hits deny rules instead: dport 7000..7100 denied.
        let mut e = build(&["Monitor", "Firewall"], EngineConfig::default());
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 4,
            sizes: SizeDistribution::Fixed(80),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(50);
        // Rewrite some to hit the synthetic ACL (dip 172.16.x.0/24, dport 7000+x).
        for p in pkts.iter_mut().take(20) {
            p.set_dip(Ipv4Addr::new(172, 16, 4, 4)).unwrap();
            p.set_dport(7004).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        assert_eq!(report.delivered, 30);
        assert_eq!(report.dropped, 20);
    }

    #[test]
    fn zero_delivered_run_has_no_latency_summary() {
        let mut e = build(&["Monitor", "Firewall"], EngineConfig::default());
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 2,
            sizes: SizeDistribution::Fixed(80),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(10);
        for p in pkts.iter_mut() {
            p.set_dip(Ipv4Addr::new(172, 16, 4, 4)).unwrap();
            p.set_dport(7004).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.dropped, 10);
        assert!(report.latency.is_none(), "no samples, no summary");
        // pps counts finished (dropped) packets and stays finite.
        assert!(report.pps().is_finite());
    }

    #[test]
    fn stage_counters_balance_exactly() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                mergers: 3,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
        );
        let mut gen = TrafficGenerator::new(TrafficSpec {
            flows: 8,
            sizes: SizeDistribution::Fixed(96),
            ..TrafficSpec::default()
        });
        let mut pkts = gen.batch(120);
        for p in pkts.iter_mut().take(30) {
            p.set_dip(Ipv4Addr::new(172, 16, 7, 7)).unwrap();
            p.set_dport(7007).unwrap();
            p.finalize_checksums().unwrap();
        }
        let report = e.run(pkts);
        let s = &report.stats;
        // The report-level closed loop balances.
        assert_eq!(report.injected, report.delivered + report.dropped);
        // Every drop is attributed to a stage and a cause — no silent loss.
        assert_eq!(s.total_drops(), report.dropped);
        // The classifier admitted every injected packet exactly once.
        assert_eq!(s.classifier.packets_in, report.injected);
        // The collector delivered what the report says.
        assert_eq!(s.collector.packets_out, report.delivered);
        // Per packet: 2 parallel members → 2 agent-routed copies/nils, all
        // of which reach the merger instances, and one merge each.
        assert_eq!(s.agent.packets_in % report.injected, 0);
        let merger_in: u64 = s.mergers.iter().map(|m| m.packets_in).sum();
        assert_eq!(merger_in, s.agent.packets_in);
        let merges: u64 = s.mergers.iter().map(|m| m.merges).sum();
        assert_eq!(merges, report.injected);
        // Nils emitted by NF runtimes == nils received by mergers.
        let nf_nils: u64 = s.nfs.iter().map(|n| n.nil_packets).sum();
        let merger_nils: u64 = s.mergers.iter().map(|m| m.nil_packets).sum();
        assert_eq!(nf_nils, merger_nils);
    }

    #[test]
    fn misconfigurations_rejected_up_front() {
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        // slots_per_packet = 2 for this graph: pool 16 cannot cover 16
        // in-flight packets.
        let err = Engine::new(program.clone(), Vec::new(), EngineConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::NfCountMismatch {
                expected: 2,
                got: 0
            }
        ));
        let nfs = || -> Vec<Box<dyn NetworkFunction>> {
            vec![
                Box::new(Monitor::new("Monitor")),
                Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
            ]
        };
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                mergers: 0,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::NoMergers);
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                pool_size: 16,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::PoolTooSmall {
                pool_size: 16,
                required: 32,
                max_in_flight: 16,
                slots_per_packet: 2
            }
        );
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn threading_misconfigurations_rejected_up_front() {
        let reg = Registry::paper_table2();
        let compiled = compile(
            &Policy::from_chain(["Monitor", "Firewall"]),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let program = compiled.program(1).unwrap();
        let nfs = || -> Vec<Box<dyn NetworkFunction>> {
            vec![
                Box::new(Monitor::new("Monitor")),
                Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
            ]
        };
        // A zero core budget leaves no thread to run stages on.
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                core_budget: 0,
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::ZeroCoreBudget);
        assert!(err.to_string().contains("core_budget"));
        // Pinning to a CPU the host does not have is rejected with both
        // sides of the comparison in the error.
        let host = crate::exec::host_parallelism();
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                pin_cpus: vec![0, host + 7],
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(
            err,
            EngineError::PinCpuOutOfRange {
                cpu: host + 7,
                host
            }
        );
        // A zero park timeout could sleep through non-notifying progress.
        let err = Engine::new(
            program.clone(),
            nfs(),
            EngineConfig {
                idle_policy: crate::exec::IdlePolicy::Backoff {
                    spin: 4,
                    yields: 4,
                    park_timeout: Duration::ZERO,
                },
                ..EngineConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err, EngineError::ZeroParkTimeout);
        // The pure-spin policy has no park and needs no timeout.
        assert!(Engine::new(
            program,
            nfs(),
            EngineConfig {
                idle_policy: crate::exec::IdlePolicy::Spin,
                ..EngineConfig::default()
            },
        )
        .is_ok());
    }

    #[test]
    fn coalesced_single_thread_engine_delivers_everything() {
        // The whole pipeline on one thread: every stage shares a core and
        // no send may block, or this test deadlocks.
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                core_budget: 1,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(150));
        assert_eq!(report.delivered, 150);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.pool_in_use, 0);
    }

    #[test]
    fn spin_policy_engine_still_works() {
        let mut e = build(
            &["Monitor", "Firewall"],
            EngineConfig {
                max_in_flight: 8,
                idle_policy: crate::exec::IdlePolicy::Spin,
                core_budget: 2,
                ..EngineConfig::default()
            },
        );
        let report = e.run(traffic(60));
        assert_eq!(report.delivered, 60);
    }
}
