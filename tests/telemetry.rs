//! Differential telemetry tests: the per-stage latency histograms and
//! sampled packet-path traces must tell the *same story* no matter which
//! executor ran the packets.
//!
//! The deterministic [`SyncEngine`] and the threaded [`Engine`] share
//! every dataplane core, so for identical traffic they must produce:
//!
//! 1. identical per-stage histogram totals (classify, each NF, agent,
//!    merger, collector),
//! 2. identical traced-PID sets (`pid % trace_every == 0` — sampling is
//!    keyed on the admission PID, not wall clock, precisely so the two
//!    executors sample the same packets), and
//! 3. per-packet hop multisets that agree hop-for-hop, with sequences
//!    that are valid walks of the compiled service graph — classifier
//!    first, mergers before the collector, collector terminal, and the
//!    admission epoch constant across every hop, including across a
//!    mid-run `reconfigure()`.
//!
//! A final structural test pins the zero-sampling contract: disabled
//! telemetry must never touch the monotonic clock and the per-stage calls
//! must be cheap enough to be invisible on the packet path.

use nfp_core::prelude::*;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_dataplane::telemetry::{stage_label, PacketTrace, Telemetry};
use nfp_orchestrator::Stage;
use nfp_packet::ipv4::Ipv4Addr;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The deterministic replayable NF set of `tests/properties.rs` — the
/// 8-NF seed graphs the differential harness draws chains from.
const REPLAYABLE: [&str; 9] = [
    "Monitor",
    "Firewall",
    "LoadBalancer",
    "IDS",
    "VPN",
    "Proxy",
    "Compression",
    "Gateway",
    "Caching",
];

fn registry() -> Registry {
    let mut r = Registry::paper_table2();
    let mut ids = r.get("NIDS").unwrap().clone().drops();
    ids.nf_type = "IDS".into();
    r.register(ids);
    r
}

fn make(name: &str) -> Box<dyn NetworkFunction> {
    use nfp_core::nf::extra;
    use nfp_core::nf::*;
    match name {
        "Monitor" => Box::new(monitor::Monitor::new(name)),
        "Firewall" => Box::new(firewall::Firewall::with_synthetic_acl(name, 100)),
        "LoadBalancer" => Box::new(lb::LoadBalancer::with_uniform_backends(name, 4)),
        "IDS" => Box::new(ids::Ids::with_synthetic_signatures(
            name,
            50,
            ids::IdsMode::Inline,
        )),
        "VPN" => Box::new(vpn::Vpn::new(name, [1; 16], 5, vpn::VpnMode::Encapsulate)),
        "Proxy" => Box::new(extra::Proxy::new(
            name,
            Ipv4Addr::new(10, 0, 0, 99),
            Ipv4Addr::new(10, 50, 0, 1),
        )),
        "Compression" => Box::new(extra::Compression::new(
            name,
            extra::CompressionMode::Compress,
        )),
        "Gateway" => Box::new(extra::Gateway::new(name)),
        "Caching" => Box::new(extra::Caching::new(name, 64)),
        other => unreachable!("{other}"),
    }
}

fn compile_graph(chain: &[&str]) -> Compiled {
    compile(
        &Policy::from_chain(chain.iter().copied()),
        &registry(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
}

fn sampled_cfg(trace_every: u64) -> TelemetryConfig {
    TelemetryConfig {
        histograms: true,
        trace_every,
        trace_capacity: 1 << 20,
    }
}

fn sampled_sync(
    program: Program,
    nfs: Vec<Box<dyn NetworkFunction>>,
    pool_size: usize,
    trace_every: u64,
) -> SyncEngine {
    let telemetry = sampled_cfg(trace_every);
    let config = EngineConfig {
        pool_size,
        telemetry,
        ..EngineConfig::default()
    };
    SyncEngine::with_config(program, nfs, &config)
}

/// Run the chain through the deterministic engine; returns the snapshot
/// plus (delivered, dropped).
fn run_sync(chain: &[&str], pkts: &[Packet], trace_every: u64) -> (TelemetrySnapshot, u64, u64) {
    let compiled = compile_graph(chain);
    let program = compiled.program(1).unwrap();
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| make(n.name.as_str()))
        .collect();
    let mut engine = sampled_sync(program, nfs, 256, trace_every);
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for pkt in pkts {
        match engine.process(pkt.clone()).unwrap().delivered() {
            Some(_) => delivered += 1,
            None => dropped += 1,
        }
    }
    assert_eq!(engine.pool_in_use(), 0, "pool leak in sync run");
    (engine.telemetry(), delivered, dropped)
}

/// Run the chain through the threaded engine, one merger instance so the
/// merger-stage labels line up with the sync engine's `merger0`.
fn run_threaded(chain: &[&str], pkts: &[Packet], trace_every: u64) -> EngineReport {
    let compiled = compile_graph(chain);
    let program = compiled.program(1).unwrap();
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| make(n.name.as_str()))
        .collect();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 16,
            mergers: 1,
            telemetry: sampled_cfg(trace_every),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    engine.run(pkts.to_vec())
}

/// A hop reduced to its executor-independent identity: which stage saw
/// which copy in which state. (Timestamps and racy sibling order differ.)
fn hop_key(h: &nfp_dataplane::TraceHop) -> (String, u8, bool) {
    (stage_label(h.stage), h.version, h.nil)
}

/// Per-PID sorted hop multisets — the comparable essence of a trace set.
fn trace_essence(snap: &TelemetrySnapshot) -> BTreeMap<u64, Vec<(String, u8, bool)>> {
    let mut out = BTreeMap::new();
    for trace in snap.traces() {
        let mut keys: Vec<_> = trace.hops.iter().map(hop_key).collect();
        keys.sort();
        let prev = out.insert(trace.pid, keys);
        assert!(
            prev.is_none(),
            "pid {} traced twice in one snapshot",
            trace.pid
        );
    }
    out
}

/// Every trace must be a valid walk of the compiled service graph.
fn assert_valid_walk(trace: &PacketTrace, nf_count: usize, mergers: usize) {
    let hops = &trace.hops;
    assert!(!hops.is_empty(), "empty trace for pid {}", trace.pid);
    assert!(
        matches!(hops[0].stage, Stage::Classifier),
        "pid {}: first hop {:?}, not the classifier",
        trace.pid,
        hops[0].stage
    );
    let epoch = hops[0].epoch;
    let mut collector_seen = false;
    for (i, h) in hops.iter().enumerate() {
        assert_eq!(
            h.epoch, epoch,
            "pid {}: epoch changed mid-trace at hop {i}",
            trace.pid
        );
        assert!(
            !collector_seen,
            "pid {}: hop {:?} after the collector",
            trace.pid, h.stage
        );
        match h.stage {
            Stage::Classifier => {
                assert_eq!(i, 0, "pid {}: classifier hop not first", trace.pid)
            }
            Stage::Nf(id) => assert!(id < nf_count, "pid {}: NF {id} out of range", trace.pid),
            Stage::Agent => {}
            Stage::Merger(m) => assert!(m < mergers, "pid {}: merger {m} out of range", trace.pid),
            Stage::Collector => collector_seen = true,
        }
    }
    // Merger-before-collector holds by construction here: the collector
    // hop is terminal, so any merger hop precedes it. (Chains whose whole
    // graph is one sequential NF can deliver without a merge stage at
    // all, so a merger hop is not required for delivery.)
}

/// The full differential contract between the two executors' snapshots.
fn assert_snapshots_agree(
    sync: &TelemetrySnapshot,
    threaded: &TelemetrySnapshot,
    trace_every: u64,
    nf_count: usize,
    chain: &[&str],
) {
    assert_eq!(sync.trace_drops, 0, "sync trace buffer overflowed");
    assert_eq!(threaded.trace_drops, 0, "threaded trace buffer overflowed");

    // 1. Histogram totals per stage.
    for st in &sync.stages {
        let other = threaded
            .stage(&st.label)
            .unwrap_or_else(|| panic!("threaded snapshot lacks stage {}", st.label));
        assert_eq!(
            st.hist.count, other.hist.count,
            "histogram totals diverge at stage {} for {chain:?}",
            st.label
        );
    }
    assert_eq!(sync.stages.len(), threaded.stages.len());

    // 2. Same traced PIDs, each a multiple of the sampling interval.
    let a = trace_essence(sync);
    let b = trace_essence(threaded);
    let pids_a: BTreeSet<u64> = a.keys().copied().collect();
    let pids_b: BTreeSet<u64> = b.keys().copied().collect();
    assert_eq!(pids_a, pids_b, "traced PID sets diverge for {chain:?}");
    for pid in &pids_a {
        assert_eq!(pid % trace_every, 0, "pid {pid} traced off-sample");
    }

    // 3. Hop-for-hop agreement per traced packet.
    for (pid, hops) in &a {
        assert_eq!(
            hops, &b[pid],
            "hop multiset diverges for pid {pid} in {chain:?}"
        );
    }

    // 4. Both trace sets are valid walks (one merger in both setups).
    for trace in sync.traces().iter().chain(threaded.traces().iter()) {
        assert_valid_walk(trace, nf_count, 1);
    }
}

/// Firewall-deniable, IDS-triggering mixed traffic (same recipe as the
/// merge-order regression tests), so drops exercise the accounting too.
fn mixed_traffic(n: usize) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 24,
        sizes: SizeDistribution::Fixed(200),
        malicious_fraction: 0.3,
        ..TrafficSpec::default()
    });
    let mut pkts = gen.batch(n);
    for (i, p) in pkts.iter_mut().enumerate() {
        if i % 5 == 0 {
            let x = (i % 100) as u16;
            p.set_dip(Ipv4Addr::new(172, 16, (x % 256) as u8, 1))
                .unwrap();
            p.set_dport(7000 + x).unwrap();
            p.finalize_checksums().unwrap();
        }
    }
    pkts
}

fn packet_strategy() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(sip, dip, sport, dport, payload)| {
            nfp_traffic::gen::build_tcp_frame(
                Ipv4Addr::from_u32(sip),
                Ipv4Addr::from_u32(dip),
                sport,
                dport,
                &payload,
            )
        })
}

fn chain_strategy() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::sample::subsequence(REPLAYABLE.to_vec(), 1..=REPLAYABLE.len()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// The differential property: for arbitrary chains over the seed NFs
    /// and arbitrary traffic, both executors emit the same telemetry.
    #[test]
    fn executors_emit_identical_telemetry(
        chain in chain_strategy(),
        pkts in proptest::collection::vec(packet_strategy(), 1..24),
        trace_every in 1u64..4,
    ) {
        let (sync_snap, delivered, dropped) = run_sync(&chain, &pkts, trace_every);
        let report = run_threaded(&chain, &pkts, trace_every);
        prop_assert_eq!(report.delivered, delivered, "delivered diverge for {:?}", &chain);
        prop_assert_eq!(report.dropped, dropped, "dropped diverge for {:?}", &chain);
        assert_snapshots_agree(&sync_snap, &report.telemetry, trace_every, chain.len(), &chain);

        // Histogram totals reconcile with the threaded engine's own
        // per-stage packet counters: every message a stage ingested was
        // timed, nothing more.
        prop_assert_eq!(
            sync_snap.stage("classifier").unwrap().hist.count,
            report.injected,
            "classifier histogram must count every admitted packet"
        );
        for (i, nf) in report.stats.nfs.iter().enumerate() {
            prop_assert_eq!(
                report.telemetry.stage(&format!("nf{i}")).unwrap().hist.count,
                nf.packets_in,
                "nf{} histogram vs stage counter", i
            );
        }
        prop_assert_eq!(
            report.telemetry.stage("agent").unwrap().hist.count,
            report.stats.agent.packets_in,
            "agent histogram vs stage counter"
        );
        prop_assert_eq!(
            report.telemetry.stage("merger0").unwrap().hist.count,
            report.stats.mergers[0].packets_in,
            "merger histogram vs stage counter"
        );
        prop_assert_eq!(
            report.telemetry.stage("collector").unwrap().hist.count,
            report.stats.collector.packets_in,
            "collector histogram vs stage counter"
        );
    }
}

/// Full-sampling differential over the eight-NF seed chain with mixed
/// (deniable + malicious) traffic: every packet is traced, so the trace
/// set must reconcile *exactly* with the delivered/dropped split — a
/// collector hop if and only if the packet was delivered.
#[test]
fn full_sampling_traces_reconcile_with_drop_accounting() {
    const CHAIN: [&str; 8] = [
        "Firewall",
        "Monitor",
        "Proxy",
        "LoadBalancer",
        "Gateway",
        "Compression",
        "IDS",
        "VPN",
    ];
    let pkts = mixed_traffic(160);
    let (sync_snap, delivered, dropped) = run_sync(&CHAIN, &pkts, 1);
    let report = run_threaded(&CHAIN, &pkts, 1);
    assert_eq!(report.delivered, delivered);
    assert_eq!(report.dropped, dropped);
    assert!(dropped > 0, "mixed traffic must exercise the drop paths");
    assert_snapshots_agree(&sync_snap, &report.telemetry, 1, CHAIN.len(), &CHAIN);

    for snap in [&sync_snap, &report.telemetry] {
        let traces = snap.traces();
        assert_eq!(
            traces.len() as u64,
            delivered + dropped,
            "with trace_every=1 every admitted packet leaves a trace"
        );
        let with_collector = traces
            .iter()
            .filter(|t| t.hops.iter().any(|h| matches!(h.stage, Stage::Collector)))
            .count() as u64;
        assert_eq!(with_collector, delivered, "collector hop iff delivered");
        assert_eq!(
            traces.len() as u64 - with_collector,
            dropped,
            "traces ending before the collector are exactly the drops"
        );
    }
}

/// Under a mid-run `reconfigure()` on the deterministic engine, each
/// trace stays pinned to its admission epoch: packets admitted before the
/// swap carry the old epoch on every hop, packets after carry the new one,
/// and no trace mixes the two.
#[test]
fn sync_reconfigure_keeps_traces_epoch_constant() {
    const CHAIN: [&str; 2] = ["Monitor", "Firewall"];
    let old = compile_graph(&CHAIN).program(1).unwrap().with_epoch(1);
    let mut reg = Registry::paper_table2();
    let mut fw = reg.get("Firewall").unwrap().clone();
    fw.failure = Some(FailurePolicy::FailOpen);
    reg.register(fw);
    let new = compile(
        &Policy::from_chain(CHAIN),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
    .program(1)
    .unwrap()
    .with_epoch(2);

    let nfs: Vec<_> = CHAIN.iter().map(|n| make(n)).collect();
    let mut engine = sampled_sync(old, nfs, 64, 1);
    let pkts = mixed_traffic(60);
    for p in &pkts[..30] {
        engine.process(p.clone()).unwrap();
    }
    engine.reconfigure(new).unwrap();
    for p in &pkts[30..] {
        engine.process(p.clone()).unwrap();
    }

    let snap = engine.telemetry();
    let traces = snap.traces();
    assert_eq!(traces.len(), 60);
    for trace in &traces {
        assert_valid_walk(trace, CHAIN.len(), 1);
        let expect = if trace.pid < 30 { 1 } else { 2 };
        assert_eq!(
            trace.hops[0].epoch, expect,
            "pid {} admitted under the wrong epoch",
            trace.pid
        );
    }
}

/// The same epoch-constancy contract on the threaded engine, with the
/// swap fired from a detached controller mid-stream: wherever it lands,
/// every trace is a valid single-epoch walk and the epochs observed are
/// exactly the programs that ran.
#[test]
fn threaded_reconfigure_keeps_traces_epoch_constant() {
    const CHAIN: [&str; 2] = ["Monitor", "Firewall"];
    let old = compile_graph(&CHAIN).program(1).unwrap();
    let mut reg = Registry::paper_table2();
    let mut fw = reg.get("Firewall").unwrap().clone();
    fw.failure = Some(FailurePolicy::FailOpen);
    reg.register(fw);
    let new = compile(
        &Policy::from_chain(CHAIN),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
    .program(1)
    .unwrap()
    .with_epoch(1);

    let nfs: Vec<_> = CHAIN.iter().map(|n| make(n)).collect();
    let mut engine = Engine::new(
        old,
        nfs,
        EngineConfig {
            max_in_flight: 8,
            mergers: 1,
            telemetry: sampled_cfg(1),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let controller = engine.controller();
    let swap = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(3));
        controller.reconfigure(new)
    });
    let report = engine.run(mixed_traffic(2000));
    swap.join().unwrap().expect("policy edit must hot-swap");

    assert_eq!(report.telemetry.trace_drops, 0);
    let traces = report.telemetry.traces();
    assert_eq!(
        traces.len() as u64,
        report.delivered + report.dropped,
        "every admitted packet leaves a trace at trace_every=1"
    );
    let mut epochs = BTreeSet::new();
    for trace in &traces {
        assert_valid_walk(trace, CHAIN.len(), 1);
        epochs.insert(trace.hops[0].epoch);
    }
    assert!(
        epochs.iter().all(|e| *e == 0 || *e == 1),
        "unexpected epochs {epochs:?}"
    );
}

/// The zero-sampling contract, structurally: a disabled `Telemetry` never
/// reads the monotonic clock (`clock()` is `None`) and the three per-stage
/// calls the engines make are cheap enough to disappear on the packet
/// path. The wall-clock bound is deliberately loose (hundreds of ns per
/// call on any plausible host is still passing) — the real overhead
/// number comes from `cargo run --release --bin telemetry_overhead`.
#[test]
fn zero_sampling_telemetry_is_near_free() {
    let tele = Telemetry::off();
    assert!(tele.clock().is_none(), "disabled clock must not tick");
    assert!(!tele.tracing());

    let pool = PacketPool::new(4);
    let r = pool
        .insert(Packet::from_bytes(&[0u8; 60]).unwrap())
        .unwrap();
    const ITERS: u64 = 2_000_000;
    let t0 = std::time::Instant::now();
    for _ in 0..ITERS {
        let t = std::hint::black_box(&tele).clock();
        tele.record(std::hint::black_box(Stage::Classifier), t);
        tele.trace_ref(std::hint::black_box(Stage::Agent), &pool, r);
    }
    let per_iter_ns = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    assert!(
        per_iter_ns < 1000.0,
        "disabled telemetry costs {per_iter_ns:.0} ns per stage touch — not near-zero"
    );
    // And disabled recording leaves no observable state behind.
    let snap = tele.snapshot();
    assert_eq!(snap.total_count(), 0);
    assert!(snap.hops.is_empty());
}
