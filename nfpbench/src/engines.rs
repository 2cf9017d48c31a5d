//! The three engines under one interface: build, run one repetition over
//! an input, and check the outcome against the sequential reference.

use crate::trace::{process_cpu_s, TimedEgress, TimedIngress, TimedNf, Tracer};
use crate::workload::{make_nfs, Built, Input, Reference, Workload};
use nfp_dataplane::exec::plan_pipeline_groups;
use nfp_dataplane::stats::{EngineStats, StageSnapshot};
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};
use nfp_dataplane::{Engine, EngineConfig, EngineReport, ShardedEngine, TelemetrySnapshot};
use nfp_io::pcap::{read_pcap_bytes, PcapFormat};
use nfp_io::{PcapEgress, PcapIngress};
use nfp_nf::NetworkFunction;
use nfp_packet::io::{Egress, Ingress, IoRunStats};
use nfp_packet::Packet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the sharded engine.
pub const SHARDS: usize = 2;

/// Pool slots of the single-threaded engine (the threaded engines use
/// `EngineConfig::default()`'s).
const SYNC_POOL: usize = 512;

/// Which engine a repetition runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SyncEngine`: the whole graph on the caller thread.
    Sync,
    /// The threaded `Engine`.
    Threaded,
    /// A two-shard `ShardedEngine`.
    Sharded2,
}

impl Kind {
    /// All three, in report order.
    pub const ALL: [Kind; 3] = [Kind::Sync, Kind::Threaded, Kind::Sharded2];

    /// Metric-name prefix.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Sync => "sync",
            Kind::Threaded => "threaded",
            Kind::Sharded2 => "sharded2",
        }
    }

    /// Shards whose reference this engine must match.
    pub fn shards(self) -> usize {
        match self {
            Kind::Sharded2 => SHARDS,
            _ => 1,
        }
    }

    /// Closed-loop window for the saturated-rate loop: the default 64
    /// packets in flight; the sync engine finishes each packet before
    /// admitting the next.
    pub fn window(self) -> usize {
        match self {
            Kind::Sync => 1,
            _ => EngineConfig::default().max_in_flight,
        }
    }

    /// OS threads executing stage tasks, from `plan_pipeline_groups`
    /// under the default core budget (the sync engine runs every stage
    /// on the caller thread).
    pub fn stage_threads(self, nfs: usize) -> usize {
        let cfg = EngineConfig::default();
        let groups = |budget: usize| plan_pipeline_groups(1 + nfs, 2 + cfg.mergers, budget).len();
        match self {
            Kind::Sync => 1,
            Kind::Threaded => groups(cfg.core_budget),
            Kind::Sharded2 => SHARDS * groups((cfg.core_budget / SHARDS).max(1)),
        }
    }
}

impl Kind {
    /// Threads serving one run: stage threads, injecting threads (the
    /// caller for the threaded engine, one per shard for the fleet) and,
    /// for the fleet, the caller that partitions, drains and emits.
    pub fn serving_threads(self, nfs: usize) -> usize {
        match self {
            Kind::Sync => 1,
            Kind::Threaded => self.stage_threads(nfs) + 1,
            Kind::Sharded2 => self.stage_threads(nfs) + SHARDS + 1,
        }
    }
}

/// The threaded engines' configuration: the defaults, keeping delivered
/// packets so every run's output can be checked.
pub fn engine_config(window: usize) -> EngineConfig {
    EngineConfig {
        keep_packets: true,
        max_in_flight: window,
        ..EngineConfig::default()
    }
}

/// A built engine of any kind.
pub enum AnyEngine {
    /// Single-threaded.
    Sync(Box<SyncEngine>),
    /// Threaded.
    Threaded(Engine),
    /// Sharded.
    Sharded(ShardedEngine),
}

/// NF instances, optionally wrapped for tracing.
fn nfs_for(names: &[String], tracer: Option<&Arc<Tracer>>) -> Vec<Box<dyn NetworkFunction>> {
    let nfs = make_nfs(names);
    match tracer {
        Some(t) => nfs.into_iter().map(|nf| TimedNf::wrap(nf, t)).collect(),
        None => nfs,
    }
}

/// Build a fresh engine (fresh NF state) of `kind`.
pub fn build(kind: Kind, built: &Built, window: usize, tracer: Option<&Arc<Tracer>>) -> AnyEngine {
    match kind {
        Kind::Sync => AnyEngine::Sync(Box::new(SyncEngine::new(
            built.program.clone(),
            nfs_for(&built.names, tracer),
            SYNC_POOL,
        ))),
        Kind::Threaded => AnyEngine::Threaded(
            Engine::new(
                built.program.clone(),
                nfs_for(&built.names, tracer),
                engine_config(window),
            )
            .expect("threaded engine builds under the default config"),
        ),
        Kind::Sharded2 => {
            let names = built.names.clone();
            let tracer = tracer.cloned();
            AnyEngine::Sharded(
                ShardedEngine::new(
                    &built.program,
                    move || nfs_for(&names, tracer.as_ref()),
                    &engine_config(window),
                    SHARDS,
                )
                .expect("sharded engine builds under the default config"),
            )
        }
    }
}

/// What one repetition produced.
pub struct RepOutcome {
    /// Frames offered.
    pub offered: u64,
    /// Wall time of the engine entry calls.
    pub elapsed: Duration,
    /// Process CPU time (all threads) spent across the entry calls, s.
    pub cpu_s: f64,
    /// Delivered frames, sorted.
    pub delivered: Vec<Vec<u8>>,
    /// Admitted frames dropped inside the graph.
    pub dropped: u64,
    /// Frames the classifier rejected.
    pub rejected: u64,
    /// Broken run invariants (`injected == delivered + dropped`, empty
    /// pool, no NF failures).
    pub violations: Vec<String>,
    /// Per-stage counters, folded over the repetition's runs.
    pub stats: Option<EngineStats>,
    /// The sync engine's single shared counter set.
    pub sync_stats: Option<StageSnapshot>,
    /// Stage telemetry, folded over the repetition's runs.
    pub telemetry: TelemetrySnapshot,
    /// Window-1 latency summaries, one per run.
    pub latency: Vec<nfp_traffic::LatencySummary>,
}

impl RepOutcome {
    fn new(offered: usize) -> Self {
        RepOutcome {
            offered: offered as u64,
            elapsed: Duration::ZERO,
            cpu_s: 0.0,
            delivered: Vec::new(),
            dropped: 0,
            rejected: 0,
            violations: Vec::new(),
            stats: None,
            sync_stats: None,
            telemetry: TelemetrySnapshot::empty(),
            latency: Vec::new(),
        }
    }

    /// Frames completed per second.
    pub fn mpps(&self) -> f64 {
        self.offered as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    fn absorb_report(&mut self, mut r: EngineReport) {
        let rejected = r.stats.classifier.rejects();
        if r.injected != r.delivered + r.dropped {
            self.violations.push(format!(
                "injected {} != delivered {} + dropped {}",
                r.injected, r.delivered, r.dropped
            ));
        }
        if r.pool_in_use != 0 {
            self.violations
                .push(format!("{} pool slots leaked", r.pool_in_use));
        }
        for f in &r.failures {
            self.violations
                .push(format!("NF {} failed: {:?}", f.nf, f.kind));
        }
        self.rejected += rejected;
        self.dropped += r.dropped - rejected.min(r.dropped);
        self.delivered
            .extend(r.packets.drain(..).map(|p| p.data().to_vec()));
        if let Some(l) = r.latency.take() {
            self.latency.push(l);
        }
        self.telemetry.merge(&r.telemetry);
        match &mut self.stats {
            Some(s) => s.merge(&r.stats),
            None => self.stats = Some(r.stats),
        }
    }

    fn absorb_io(&mut self, io: IoRunStats, pcap_out: Vec<u8>) {
        self.rejected = io.rejected;
        self.dropped = io.dropped;
        self.delivered = read_pcap_bytes(&pcap_out)
            .expect("egress capture parses")
            .into_iter()
            .map(|r| r.data)
            .collect();
        if io.delivered != self.delivered.len() as u64 {
            self.violations.push(format!(
                "egress holds {} records for {} deliveries",
                self.delivered.len(),
                io.delivered
            ));
        }
        if io.pulled != self.offered {
            self.violations
                .push(format!("pulled {} of {} records", io.pulled, self.offered));
        }
    }
}

/// Run one repetition over `input` on a freshly built engine. The timed
/// region is exactly the engine entry calls (`process`, `run`, `run_io`);
/// building the engine and cloning inputs stay outside it. With a tracer,
/// NFs and I/O backends are wrapped and each entry call is a root span.
pub fn run_rep(
    kind: Kind,
    workload: &Workload,
    built: &Built,
    input: &Input,
    window: usize,
    tracer: Option<&Arc<Tracer>>,
) -> RepOutcome {
    let mut engine = build(kind, built, window, tracer);
    let mut out = RepOutcome::new(input.len());
    let root_name = format!("engine.{}", kind.label());
    let mut cpu_s = 0.0;
    let mut timed = |f: &mut dyn FnMut()| -> Duration {
        let cpu0 = process_cpu_s();
        let started = Instant::now();
        match tracer {
            Some(t) => t.root(&root_name, f),
            None => f(),
        }
        let wall = started.elapsed();
        cpu_s += process_cpu_s() - cpu0;
        wall
    };

    if let Some(pcap) = &input.pcap {
        let mut ingress = PcapIngress::from_bytes(pcap.clone()).expect("capture parses");
        let mut egress = PcapEgress::in_memory(PcapFormat::default());
        let mut result = None;
        {
            let mut t_in;
            let mut t_out;
            let (ing, eg): (&mut dyn Ingress, &mut dyn Egress) = match tracer {
                Some(t) => {
                    t_in = TimedIngress::new(&mut ingress, t);
                    t_out = TimedEgress::new(&mut egress, t);
                    (&mut t_in, &mut t_out)
                }
                None => (&mut ingress, &mut egress),
            };
            out.elapsed = timed(&mut || {
                result = Some(match &mut engine {
                    AnyEngine::Sync(e) => (None, e.run_io(ing, eg, engine_config(1).io_burst)),
                    AnyEngine::Threaded(e) => match e.run_io(ing, eg) {
                        Ok((r, io)) => (Some(r), Ok(io)),
                        Err(err) => (None, Err(err)),
                    },
                    AnyEngine::Sharded(e) => match e.run_io(ing, eg) {
                        Ok((r, io)) => (Some(r), Ok(io)),
                        Err(err) => (None, Err(err)),
                    },
                });
            });
        }
        let (report, io) = result.expect("entry call ran");
        let io = io.expect("in-memory pcap replay cannot fail");
        let bytes = egress.into_inner().expect("in-memory egress flushes");
        if let Some(r) = report {
            out.absorb_report(r);
        }
        out.absorb_io(io, bytes);
    } else {
        let sessions: Vec<Vec<Packet>> = match workload.session {
            Some(n) => input.frames.chunks(n).map(<[Packet]>::to_vec).collect(),
            None => vec![input.frames.clone()],
        };
        for mut session in sessions {
            match &mut engine {
                AnyEngine::Sync(e) => {
                    let mut delivered = Vec::with_capacity(session.len());
                    let (mut dropped, mut rejected) = (0, 0);
                    out.elapsed += timed(&mut || {
                        for pkt in session.drain(..) {
                            match e.process(pkt) {
                                Ok(ProcessOutcome::Delivered(p)) => delivered.push(*p),
                                Ok(ProcessOutcome::Dropped) => dropped += 1,
                                Err(_) => rejected += 1,
                            }
                        }
                    });
                    out.dropped += dropped;
                    out.rejected += rejected;
                    out.delivered
                        .extend(delivered.iter().map(|p| p.data().to_vec()));
                }
                AnyEngine::Threaded(e) => {
                    let mut report = None;
                    let mut session = Some(session);
                    out.elapsed +=
                        timed(&mut || report = Some(e.run(session.take().expect("one run"))));
                    out.absorb_report(report.expect("entry call ran"));
                }
                AnyEngine::Sharded(e) => {
                    let mut report = None;
                    let mut session = Some(session);
                    out.elapsed +=
                        timed(&mut || report = Some(e.run(session.take().expect("one run"))));
                    out.absorb_report(report.expect("entry call ran"));
                }
            }
        }
    }

    out.cpu_s = cpu_s;
    if let AnyEngine::Sync(e) = &engine {
        let accounted = out.delivered.len() as u64 + out.dropped + out.rejected;
        if accounted != out.offered {
            out.violations
                .push(format!("offered {} != accounted {accounted}", out.offered));
        }
        if e.pool_in_use() != 0 {
            out.violations
                .push(format!("{} pool slots leaked", e.pool_in_use()));
        }
        for (node, kind) in e.failures() {
            out.violations.push(format!("NF {node} failed: {kind:?}"));
        }
        out.sync_stats = Some(e.stats());
        out.telemetry = e.telemetry();
    }
    out.delivered.sort_unstable();
    drop(engine);
    out
}

/// Offered packets whose outcome differs from the reference or is
/// unaccounted for. Each differing delivered frame, each drop or reject
/// miscount, and each broken invariant counts; the total never exceeds
/// the packets offered.
pub fn failed_packets(out: &RepOutcome, reference: &Reference) -> u64 {
    let (mut missing, mut extra) = (0u64, 0u64);
    let (a, b) = (&reference.delivered, &out.delivered);
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                missing += 1;
                i += 1;
            }
            (Some(_), None) => {
                missing += 1;
                i += 1;
            }
            _ => {
                extra += 1;
                j += 1;
            }
        }
    }
    let miscount =
        reference.dropped.abs_diff(out.dropped) + reference.rejected.abs_diff(out.rejected);
    let broken = out.violations.len() as u64;
    (missing.max(extra).max(miscount) + broken).min(out.offered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build as build_policy, generate, reference, WORKLOADS};

    /// Every engine reproduces the sequential reference on every
    /// workload, at a small size.
    #[test]
    fn every_engine_matches_the_reference_on_every_workload() {
        for w in WORKLOADS {
            let w = w.scaled(w.session.map_or(256, |n| 4 * n), 64);
            let built = build_policy(&w.policy_text());
            let input = generate(w.traffic, w.rep_packets, 11);
            for kind in Kind::ALL {
                let r = reference(w.chain, &built.program, &input.frames, kind.shards());
                let tracer = Tracer::new();
                for t in [None, Some(&tracer)] {
                    let out = run_rep(kind, &w, &built, &input, kind.window(), t);
                    assert!(
                        out.violations.is_empty(),
                        "{} {kind:?}: {:?}",
                        w.name,
                        out.violations
                    );
                    assert_eq!(failed_packets(&out, &r), 0, "{} {kind:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn a_changed_output_counts_as_failed() {
        let w = &WORKLOADS[0];
        let built = build_policy(&w.policy_text());
        let input = generate(w.traffic, 64, 5);
        let r = reference(w.chain, &built.program, &input.frames, 1);
        let mut out = run_rep(Kind::Sync, w, &built, &input, 1, None);
        assert_eq!(failed_packets(&out, &r), 0);
        // One delivered frame altered.
        out.delivered[0][20] ^= 0xff;
        out.delivered.sort_unstable();
        assert_eq!(failed_packets(&out, &r), 1);
        // ...and another dropped instead of delivered.
        let kept = out
            .delivered
            .iter()
            .position(|d| r.delivered.contains(d))
            .unwrap();
        out.delivered.remove(kept);
        out.dropped += 1;
        out.delivered.sort_unstable();
        assert_eq!(failed_packets(&out, &r), 2);
    }
}
