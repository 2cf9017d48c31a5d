//! Deterministic single-threaded execution of a sealed [`Program`].
//!
//! The sync engine drives exactly the same stage cores ([`crate::cores`])
//! as the threaded engine — the same classifier, forwarding actions,
//! runtime drop handling, agent sequencing and merger semantics — but from
//! one FIFO event queue, so a packet's journey is fully deterministic. It
//! is the reference executor for the paper's §6.4 result-correctness
//! replay and for property tests; the threaded (and sharded) engines are
//! correct precisely when their output matches this one byte-for-byte.

use crate::actions::{Deliver, Msg};
use crate::classifier::{AdmitError, Classifier};
use crate::cores::{collector, AgentCore, MergerCore};
use crate::engine::{finish_io, EngineConfig, EngineReport, MigrationStats, NfFailure, NfRt};
use crate::runtime::{FailureKind, NfRuntime};
use crate::stats::{EngineStats, StageSet, StageSnapshot};
use crate::swap::{EpochReport, ProgramHandle, ReconfigError, TablesResolver};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::tables::Target;
use nfp_orchestrator::{Program, Stage};
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats, VecIngress};
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What happened to a processed packet.
#[derive(Debug)]
pub enum ProcessOutcome {
    /// The packet traversed the graph; here is the merged output.
    Delivered(Box<Packet>),
    /// The packet was dropped (NF verdict or merge resolution).
    Dropped,
}

impl ProcessOutcome {
    /// The delivered packet, if any.
    pub fn delivered(self) -> Option<Packet> {
        match self {
            ProcessOutcome::Delivered(p) => Some(*p),
            ProcessOutcome::Dropped => None,
        }
    }
}

/// Single-threaded reference executor for a sealed [`Program`].
pub struct SyncEngine {
    pool: Arc<PacketPool>,
    classifier: Classifier,
    runtimes: Vec<NfRt>,
    /// One agent instance: sequencing is trivially in-order here, but
    /// running the same core keeps the reference path identical.
    agent: AgentCore,
    merger: MergerCore,
    /// The swappable program slot; [`SyncEngine::reconfigure`] installs
    /// successors into it between `process()` calls.
    handle: Arc<ProgramHandle>,
    /// Epoch-keyed table lookups for every stage dispatched inline.
    resolver: TablesResolver,
    /// Per-stage counters, in the shape of a one-merger threaded
    /// engine's; zeroed when a session starts.
    stats: StageSet,
    /// The counters of every earlier session, so [`SyncEngine::stats`]
    /// covers the engine's lifetime.
    lifetime: EngineStats,
    /// Per-stage latency histograms and trace sampling, recorded at the
    /// same points as the threaded engine's stage threads (the sync
    /// engine's one merger instance records as `merger0`).
    telemetry: Telemetry,
    /// Virtual clock: one tick per `process()` call. Accumulating-table
    /// entries are stamped with it, and every entry still pending at the
    /// end of the call that created it is expired — the sync engine's
    /// merge deadline is zero ticks, preserving the per-packet semantics
    /// of `process()` even when a failed NF never sends its copy.
    tick: u64,
    pub(crate) config: EngineConfig,
    /// Event-queue allocation reused across `process()` calls (the queue
    /// itself always drains before a call returns).
    scratch: VecDeque<(Target, Msg)>,
}

#[derive(Default)]
struct QueueSink {
    events: VecDeque<(Target, Msg)>,
}

impl Deliver for QueueSink {
    fn deliver(&mut self, target: Target, msg: Msg) {
        self.events.push_back((target, msg));
    }
}

impl SyncEngine {
    /// Build an engine over a sealed `program` and NF instances ordered by
    /// `NodeId` (the same order as the compiled graph's nodes).
    pub fn new(program: Program, nfs: Vec<Box<dyn NetworkFunction>>, pool_size: usize) -> Self {
        let config = EngineConfig {
            pool_size,
            ..EngineConfig::default()
        };
        Self::with_config(program, nfs, &config)
    }

    /// [`SyncEngine::new`] from an [`EngineConfig`]: the sync engine reads
    /// its `pool_size`, `telemetry`, `keep_packets`, `probe` and
    /// `io_burst`; the threading knobs do not apply.
    pub fn with_config(
        program: Program,
        nfs: Vec<Box<dyn NetworkFunction>>,
        config: &EngineConfig,
    ) -> Self {
        assert_eq!(
            nfs.len(),
            program.nf_count(),
            "one NF instance per graph node"
        );
        let n_nfs = nfs.len();
        let runtimes = nfs
            .into_iter()
            .zip(program.tables().nf_configs.iter().cloned())
            .map(|(nf, config)| NfRuntime::new(nf, config))
            .collect();
        let handle = Arc::new(ProgramHandle::new(program));
        Self {
            telemetry: Telemetry::new(config.telemetry.clone(), n_nfs, 1),
            pool: Arc::new(PacketPool::new(config.pool_size)),
            classifier: Classifier::live(Arc::clone(&handle)),
            runtimes,
            agent: AgentCore::new(1),
            merger: MergerCore::new(),
            resolver: TablesResolver::new(Arc::clone(&handle)),
            handle,
            stats: StageSet::new(n_nfs, 1),
            lifetime: EngineStats::default(),
            tick: 0,
            config: config.clone(),
            scratch: VecDeque::new(),
        }
    }

    /// The current program epoch.
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    /// Hot-swap to `program`: validate its footprint against the fixed
    /// pool, run the orchestrator compatibility diff, and install it as
    /// the new current epoch. Between `process()` calls no packet is in
    /// flight, so the superseded epoch drains instantly and is retired
    /// before this returns. Rejections leave the running engine untouched.
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        let slots = program.slots_per_packet();
        if self.pool.capacity() < slots {
            return Err(ReconfigError::PoolTooSmall {
                pool_size: self.pool.capacity(),
                required: slots,
                max_in_flight: 1,
                slots_per_packet: slots,
            });
        }
        let started = Instant::now();
        let swap = self.handle.install(program)?;
        debug_assert!(swap.old.drained(), "sync engine is idle between packets");
        self.handle.retire();
        Ok(EpochReport {
            from_epoch: swap.old.epoch(),
            to_epoch: self.handle.epoch(),
            update: swap.update,
            swap_latency: started.elapsed(),
            drained: 0,
            completed: swap.old.completed(),
            shards: Vec::new(),
        })
    }

    /// Access an NF runtime (stats inspection).
    pub fn runtime(&self, node: usize) -> &NfRuntime<Box<dyn NetworkFunction>> {
        &self.runtimes[node]
    }

    /// NFs that have failed so far, as `(node id, failure kind)` pairs.
    pub fn failures(&self) -> Vec<(usize, FailureKind)> {
        self.runtimes
            .iter()
            .enumerate()
            .filter_map(|(i, rt)| rt.failure().map(|f| (i, f.clone())))
            .collect()
    }

    /// Accumulating-table entries still waiting for sibling copies.
    pub fn pending(&self) -> usize {
        self.merger.pending_len()
    }

    /// The engine's lifetime counters, every stage folded into one set.
    pub fn stats(&self) -> StageSnapshot {
        let mut all = self.stats.snapshot();
        all.merge(&self.lifetime);
        all.fold()
    }

    /// Snapshot of the per-stage latency histograms and recorded traces.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Export each NF's per-flow state, one [`FlowSnapshot`] per NF
    /// position, as [`crate::Engine::export_flow_state`] does.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        self.runtimes
            .iter()
            .map(|rt| rt.nf().snapshot_state())
            .collect()
    }

    /// Restore per-position snapshots, as
    /// [`crate::Engine::import_flow_state`] does.
    pub fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) {
        for (rt, snap) in self.runtimes.iter_mut().zip(snaps) {
            if !snap.is_empty() {
                rt.nf_mut().restore_state(snap);
            }
        }
    }

    /// Process one packet through the whole graph. The packet is pinned to
    /// the epoch current at admission and every stage resolves its tables
    /// against that epoch; the pin settles exactly once before returning.
    pub fn process(&mut self, pkt: Packet) -> Result<ProcessOutcome, AdmitError> {
        let mut sink = QueueSink {
            events: std::mem::take(&mut self.scratch),
        };
        self.tick += 1;
        let epoch = self.handle.epoch();
        if let Err(e) = self.classifier.admit_observed(
            pkt,
            &self.pool,
            &mut sink,
            &self.stats.classifier,
            Some(&self.telemetry),
        ) {
            self.scratch = sink.events;
            return Err(e);
        }
        let mut output: Option<Packet> = None;
        let mut was_dropped = false;
        loop {
            while let Some((target, msg)) = sink.events.pop_front() {
                match target {
                    Target::Nf(id) => {
                        // Resolve the NF's config by the packet's stamped
                        // epoch — identical to the threaded NF threads.
                        let e = self.pool.with(msg.r, |p| p.meta().epoch());
                        let stats = &self.stats.nfs[id];
                        let tables = self.resolver.get(e, stats);
                        self.telemetry.trace_ref(Stage::Nf(id), &self.pool, msg.r);
                        let t0 = self.telemetry.clock();
                        self.runtimes[id].handle_with(
                            &tables.nf_configs[id],
                            msg,
                            &self.pool,
                            &mut sink,
                            stats,
                        );
                        self.telemetry.record(Stage::Nf(id), t0);
                    }
                    Target::Merger(_) => {
                        // The same route → offer → ordered-release path as
                        // the threaded engine, just inline: with one merger
                        // instance and FIFO dispatch, release order is
                        // always immediate.
                        let mut msg = msg;
                        self.telemetry.trace_ref(Stage::Agent, &self.pool, msg.r);
                        let t0 = self.telemetry.clock();
                        let agent_stats = &self.stats.agent;
                        let _instance =
                            self.agent
                                .route(&mut msg, &self.pool, &mut self.resolver, agent_stats);
                        self.telemetry.record(Stage::Agent, t0);
                        self.telemetry
                            .trace_ref(Stage::Merger(0), &self.pool, msg.r);
                        let t0 = self.telemetry.clock();
                        let offered = self.merger.offer(
                            msg,
                            &self.pool,
                            &mut self.resolver,
                            &self.stats.mergers[0],
                            self.tick,
                        );
                        self.telemetry.record(Stage::Merger(0), t0);
                        if let Some(outcome) = offered {
                            let drops = self.agent.release(
                                outcome,
                                &self.pool,
                                &mut self.resolver,
                                &mut sink,
                                agent_stats,
                            );
                            if !drops.is_empty() {
                                was_dropped = true;
                            }
                        }
                    }
                    Target::Output => {
                        let t0 = self.telemetry.clock();
                        let pkt = collector::collect(msg, &self.pool, &self.stats.collector);
                        self.telemetry.record(Stage::Collector, t0);
                        self.telemetry
                            .hop_if_traced(Stage::Collector, pkt.meta(), pkt.is_nil());
                        debug_assert!(output.is_none(), "one output per packet");
                        output = Some(pkt);
                    }
                }
            }
            // All events drained. Any entry still accumulating can never
            // complete inside this call (a failed NF swallowed its copy),
            // so it has hit the zero-tick deadline: resolve it from the
            // copies that arrived. Partial forwards enqueue the merge
            // spec's next actions, so loop until expiry yields nothing.
            let outcomes = self.merger.expire(
                self.tick,
                &self.pool,
                &mut self.resolver,
                &self.stats.mergers[0],
            );
            if outcomes.is_empty() {
                break;
            }
            for outcome in outcomes {
                let drops = self.agent.release(
                    outcome,
                    &self.pool,
                    &mut self.resolver,
                    &mut sink,
                    &self.stats.agent,
                );
                if !drops.is_empty() {
                    was_dropped = true;
                }
            }
        }
        debug_assert_eq!(
            self.merger.pending_len(),
            0,
            "a packet's copies must all merge or expire before process() returns"
        );
        // The packet is finished (delivered or dropped): settle its epoch
        // pin exactly once, and keep the drained queue's allocation for
        // the next call.
        self.scratch = sink.events;
        self.handle.finish(epoch);
        match output {
            Some(p) => Ok(ProcessOutcome::Delivered(Box::new(p))),
            None => {
                debug_assert!(
                    was_dropped || self.pool.in_use() == 0,
                    "no output and no drop: leaked references"
                );
                Ok(ProcessOutcome::Dropped)
            }
        }
    }

    /// Pool occupancy (leak detection in tests).
    pub fn pool_in_use(&self) -> usize {
        self.pool.in_use()
    }

    /// Run one session over `packets` and report, as
    /// [`crate::Engine::run`] does.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        let burst = self.config.io_burst;
        self.stream(&mut VecIngress::new(packets), burst, None).0
    }

    /// Stream an [`Ingress`] through the engine in `burst`-sized pulls
    /// until the source ends, emitting each burst's deliveries to
    /// `egress` as soon as it is processed — also when the ingress
    /// failed, see [`crate::engine::finish_io`].
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
        burst: usize,
    ) -> Result<IoRunStats, IoError> {
        let (report, err) = self.stream(ingress, burst, Some(&mut *egress));
        finish_io(report, err, egress, false).map(|(_, io)| io)
    }

    /// One session over `ingress`. Like a threaded session it starts from
    /// what a freshly built engine would — failure state cleared, stage
    /// counters and telemetry zeroed — and only NF flow state carries
    /// over. Each burst's deliveries go to `egress` once the burst is
    /// processed, so they never pile up; without one they stay in the
    /// report when `keep_packets` is set. Returns the report of every
    /// packet pulled and the ingress (or egress) error that ended the
    /// stream, if any. With a probe configured, the session's gauges are
    /// published after every packet.
    pub(crate) fn stream(
        &mut self,
        ingress: &mut dyn Ingress,
        burst: usize,
        mut egress: Option<&mut dyn Egress>,
    ) -> (EngineReport, Option<IoError>) {
        let started = Instant::now();
        self.lifetime.merge(&self.stats.snapshot());
        self.stats.reset();
        self.telemetry.reset();
        let current = self.handle.current();
        let runtimes = std::mem::take(&mut self.runtimes).into_iter();
        self.runtimes = runtimes
            .zip(current.tables().nf_configs.iter().cloned())
            .map(|(rt, cfg)| NfRuntime::new(rt.into_nf(), cfg))
            .collect();
        let gauges = self.config.probe.as_ref().map(|p| p.register());
        if let Some(g) = &gauges {
            // One packet in flight at a time.
            let slots = current.program().slots_per_packet() as u64;
            g.pool_budget.store(slots, Ordering::Relaxed);
            g.active.store(true, Ordering::Release);
        }
        let keep = egress.is_none() && self.config.keep_packets;
        let (mut injected, mut delivered, mut dropped) = (0, 0, 0);
        let (mut packets, mut out) = (Vec::new(), Vec::new());
        let err = loop {
            let pkts = match ingress.next_burst(burst.max(1)) {
                Ok(Some(pkts)) => pkts,
                Ok(None) => break None,
                Err(e) => break Some(e),
            };
            for pkt in pkts {
                injected += 1;
                match self.process(pkt) {
                    Ok(ProcessOutcome::Delivered(p)) => {
                        delivered += 1;
                        out.push(*p);
                    }
                    // Admit rejects count as drops, as in the threaded
                    // engines (the stage counters tell them apart).
                    _ => dropped += 1,
                }
                if let Some(g) = &gauges {
                    let pool = self.pool.in_use() as u64;
                    g.publish(injected, delivered, dropped, pool, self.handle.epoch());
                }
            }
            if !out.is_empty() {
                if let Some(Err(e)) = egress.as_mut().map(|eg| eg.emit_burst(&out)) {
                    break Some(e);
                }
                if keep {
                    packets.append(&mut out);
                }
                out.clear();
            }
        };
        if let Some(g) = &gauges {
            g.active.store(false, Ordering::Release);
        }
        let report = EngineReport {
            injected,
            delivered,
            dropped,
            elapsed: started.elapsed(),
            latency: None,
            packets,
            stats: self.stats.snapshot(),
            failures: (self.runtimes.iter().enumerate())
                .filter_map(|(node, rt)| NfFailure::of(node, rt))
                .collect(),
            pool_in_use: self.pool.in_use(),
            epoch: self.handle.epoch(),
            epochs: self.handle.tallies(),
            telemetry: self.telemetry.snapshot(),
            migration: MigrationStats::default(),
        };
        (report, err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::chain_program;
    use nfp_packet::ipv4::Ipv4Addr;

    fn engine_for(chain: &[&str]) -> SyncEngine {
        let (program, nfs) = chain_program(chain);
        SyncEngine::new(program, nfs, 64)
    }

    fn pkt(dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 2, 3, 4),
            4321,
            dport,
            b"some payload data",
        )
    }

    #[test]
    fn monitor_firewall_parallel_delivers_and_counts() {
        let mut e = engine_for(&["Monitor", "Firewall"]);
        let out = e.process(pkt(80)).unwrap().delivered().unwrap();
        assert_eq!(out.dport().unwrap(), 80);
        assert_eq!(e.pool_in_use(), 0, "no leaks");
        // A session reports like a one-merger threaded engine.
        let report = e.run(vec![pkt(80), pkt(81)]);
        assert_eq!(
            (report.injected, report.delivered, report.dropped),
            (2, 2, 0)
        );
        assert_eq!((report.stats.nfs.len(), report.stats.mergers.len()), (2, 1));
        assert_eq!(report.stats.classifier.packets_in, 2);
        assert_eq!(report.stats.collector.packets_out, 2);
        // `stats()` folds every stage over both sessions.
        assert!(e.stats().packets_in > report.stats.fold().packets_in);
    }

    #[test]
    fn firewall_drop_propagates_through_merge() {
        let mut e = engine_for(&["Monitor", "Firewall"]);
        // Hit deny rule #3: dst 172.16.3.0/24 with dport 7003.
        let mut p = pkt(7003);
        p.set_dip(Ipv4Addr::new(172, 16, 3, 9)).unwrap();
        p.finalize_checksums().unwrap();
        let out = e.process(p.clone()).unwrap();
        assert!(matches!(out, ProcessOutcome::Dropped));
        assert_eq!(e.pool_in_use(), 0);
        let report = e.run(vec![p]);
        assert_eq!((report.delivered, report.dropped), (0, 1));
    }

    #[test]
    fn monitor_lb_copy_merge_applies_rewrite() {
        let mut e = engine_for(&["Monitor", "LoadBalancer"]);
        let out = e.process(pkt(80)).unwrap().delivered().unwrap();
        // The LB's rewrite (performed on the header-only copy) must appear
        // in the merged output.
        assert_eq!(out.dip().unwrap().0[0], 192);
        assert_eq!(out.sip().unwrap(), Ipv4Addr::new(10, 255, 0, 1));
        // Payload survives from v1.
        assert_eq!(out.payload().unwrap(), b"some payload data");
        assert_eq!(e.pool_in_use(), 0);
    }

    #[test]
    fn north_south_chain_end_to_end() {
        let mut e = engine_for(&["VPN", "Monitor", "Firewall", "LoadBalancer"]);
        let out = e.process(pkt(443)).unwrap().delivered().unwrap();
        // VPN encapsulated: AH present, proto = AH.
        let l = out.parsed().unwrap();
        assert!(l.ah.is_some());
        // LB ran after the parallel group (sequential tail).
        assert_eq!(out.dip().unwrap().0[0], 192);
        assert_eq!(e.pool_in_use(), 0);
    }

    #[test]
    fn many_packets_no_leaks() {
        let mut e = engine_for(&["Monitor", "LoadBalancer"]);
        let mut delivered = 0;
        for i in 0..200u16 {
            delivered += e
                .process(pkt(80 + i % 50))
                .unwrap()
                .delivered()
                .iter()
                .count();
            assert_eq!(e.pool_in_use(), 0, "packet {i}");
        }
        assert_eq!(delivered, 200);
        // The monitor saw every packet exactly once.
        let mon = e.runtime(0);
        assert_eq!(mon.processed, 200);
    }
}
