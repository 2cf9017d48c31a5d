//! Session equivalence: a long-lived engine runs many sessions, and each
//! session must report exactly what a freshly built engine reports over
//! the same input when it starts from the same NF flow state.
//!
//! The sessions vary in size (empty, one packet, around one burst, a
//! large one), cross a live `reconfigure` to a compatible program, round
//! trip the flow state through `export_flow_state`/`import_flow_state`,
//! and include an NF that panics partway through one session (and, once
//! failed, on the first packet of every later one). Compared per session:
//! delivered bytes, the drop taxonomy, every per-stage counter except the
//! two scheduling-dependent gauges (ring high-water marks and
//! backpressure events), the traced PID set and the NF failures. The
//! flow state after each session must match too.

use nfp_bench::soak::program_variants;
use nfp_core::prelude::*;
use nfp_dataplane::shard::ShardedEngine;
use nfp_dataplane::stats::{EngineStats, StageSnapshot};
use nfp_dataplane::telemetry::TelemetryConfig;
use nfp_nf::chaos::PanicAfter;
use nfp_packet::ipv4::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Session sizes, in order: every size the engine treats specially
/// (empty, single packet, one burst ± 1, many bursts), repeated.
const SESSIONS: [usize; 12] = [64, 0, 65, 1, 500, 63, 64, 500, 1, 65, 0, 64];

/// Reconfigure to the compatible edit before this session.
const RECONFIGURE_AT: usize = 5;

/// Round-trip the flow state through export/import before this session.
const ROUND_TRIP_AT: usize = 3;

/// The Firewall panics after this many packets over its lifetime — inside
/// the session of 500 at index 7 for the lone engine.
const PANIC_AFTER: u64 = 900;

fn config() -> EngineConfig {
    EngineConfig {
        keep_packets: true,
        max_in_flight: 16,
        telemetry: TelemetryConfig::sampled(8),
        ..EngineConfig::default()
    }
}

/// Monitor (stateful) and a Firewall that panics once `budget` packets
/// have reached it.
fn nfs(budget: u64) -> Vec<Box<dyn NetworkFunction>> {
    use nfp_core::nf::*;
    vec![
        Box::new(monitor::Monitor::new("Monitor")),
        Box::new(PanicAfter::new(
            firewall::Firewall::with_synthetic_acl("Firewall", 100),
            budget,
        )),
    ]
}

/// Generated traffic with a malformed share (classifier rejects) and a
/// denied share (firewall drops).
struct Traffic(TrafficGenerator);

impl Traffic {
    fn new() -> Self {
        Traffic(TrafficGenerator::new(TrafficSpec {
            flows: 24,
            sizes: SizeDistribution::Fixed(96),
            malformed_fraction: 0.1,
            seed: 0x5E55,
            ..TrafficSpec::default()
        }))
    }

    fn take(&mut self, n: usize) -> Vec<Packet> {
        let mut pkts = self.0.batch(n);
        for (i, p) in pkts.iter_mut().enumerate() {
            if i % 6 == 0 && p.set_dip(Ipv4Addr::new(172, 16, 9, 1)).is_ok() {
                let _ = p.set_dport(7009);
                let _ = p.finalize_checksums();
            }
        }
        pkts
    }
}

/// What must match between a session and a fresh engine's run.
#[derive(Debug, PartialEq)]
struct Outcome {
    injected: u64,
    delivered: u64,
    dropped: u64,
    bytes: Vec<Vec<u8>>,
    stats: Vec<(String, StageSnapshot)>,
    traced: Vec<(u32, u64)>,
    failures: Vec<(usize, String, bool, u64, u64)>,
    pool_in_use: usize,
}

fn outcome(r: &EngineReport) -> Outcome {
    let mut bytes: Vec<Vec<u8>> = r.packets.iter().map(|p| p.data().to_vec()).collect();
    bytes.sort();
    Outcome {
        injected: r.injected,
        delivered: r.delivered,
        dropped: r.dropped,
        bytes,
        stats: deterministic(&r.stats),
        traced: r
            .telemetry
            .traces()
            .iter()
            .map(|t| (t.shard, t.pid))
            .collect(),
        failures: r
            .failures
            .iter()
            // The panic message names the wrapper's budget, which the
            // reference NF is built with a remainder of; the kind is what
            // the engine decides.
            .map(|f| {
                let panicked = matches!(f.kind, FailureKind::Panicked(_));
                (f.node, f.nf.clone(), panicked, f.bypassed, f.policy_drops)
            })
            .collect(),
        pool_in_use: r.pool_in_use,
    }
}

/// Per-stage counters without the two gauges that depend on thread
/// scheduling rather than on the input.
fn deterministic(stats: &EngineStats) -> Vec<(String, StageSnapshot)> {
    stats
        .stages()
        .map(|(label, s)| {
            let s = StageSnapshot {
                ring_high_water: 0,
                backpressure: 0,
                ..*s
            };
            (label, s)
        })
        .collect()
}

/// Assert two outcomes match, naming the first field that differs.
fn assert_same(got: &Outcome, want: &Outcome, what: &str) {
    assert_eq!(got.injected, want.injected, "{what}: injected");
    assert_eq!(got.failures, want.failures, "{what}: failures");
    assert_eq!(
        (got.delivered, got.dropped),
        (want.delivered, want.dropped),
        "{what}: delivered, dropped"
    );
    for ((label, g), (_, w)) in got.stats.iter().zip(&want.stats) {
        assert_eq!(g, w, "{what}: stage {label}");
    }
    assert_eq!(got.traced, want.traced, "{what}: traced PIDs");
    assert!(got.bytes == want.bytes, "{what}: delivered bytes differ");
    assert_eq!(got, want, "{what}");
}

fn nf_packets(r: &EngineReport) -> u64 {
    r.stats.nfs[1].packets_in
}

#[test]
fn engine_sessions_equal_fresh_engines() {
    let variants = program_variants();
    let mut program = variants(0);
    let mut engine = Engine::new(program.clone(), nfs(PANIC_AFTER), config()).unwrap();
    let mut traffic = Traffic::new();
    let mut firewall_seen = 0u64;
    let mut failed_sessions = 0;
    for (i, &n) in SESSIONS.iter().enumerate() {
        if i == RECONFIGURE_AT {
            program = variants(1);
            engine.reconfigure(program.clone()).unwrap();
        }
        if i == ROUND_TRIP_AT {
            let snap = engine.export_flow_state();
            engine.import_flow_state(&snap);
            assert_eq!(engine.export_flow_state(), snap, "round trip is lossless");
        }
        // The reference: a fresh engine at the current program, its NFs
        // carrying the long-lived engine's flow state and remaining panic
        // budget.
        let mut fresh = Engine::new(
            program.clone(),
            nfs(PANIC_AFTER.saturating_sub(firewall_seen)),
            config(),
        )
        .unwrap();
        fresh.import_flow_state(&engine.export_flow_state());

        let pkts = traffic.take(n);
        let got = engine.run(pkts.clone());
        let want = fresh.run(pkts);
        assert_same(
            &outcome(&got),
            &outcome(&want),
            &format!("session {i} ({n} packets)"),
        );
        assert_eq!(
            engine.export_flow_state(),
            fresh.export_flow_state(),
            "flow state after session {i}"
        );
        firewall_seen += nf_packets(&got);
        failed_sessions += usize::from(!got.failures.is_empty());
    }
    assert!(firewall_seen > PANIC_AFTER, "the panic budget was crossed");
    assert!(
        failed_sessions >= 2,
        "the NF failed in some session and stayed failed"
    );
}

/// Shard `s`'s NFs for a fleet whose Firewalls have `budgets[s]` left.
fn fleet_nfs(budgets: Vec<u64>) -> impl Fn() -> Vec<Box<dyn NetworkFunction>> + Send + 'static {
    let next = AtomicUsize::new(0);
    move || nfs(budgets[next.fetch_add(1, Ordering::Relaxed) % budgets.len()])
}

#[test]
fn sharded_sessions_equal_fresh_fleets() {
    const SHARDS: usize = 2;
    let variants = program_variants();
    let mut program = variants(0);
    let mut fleet = ShardedEngine::new(
        &program,
        fleet_nfs(vec![PANIC_AFTER / 2; SHARDS]),
        &config(),
        SHARDS,
    )
    .unwrap();
    let mut traffic = Traffic::new();
    let mut seen = [0u64; SHARDS];
    let mut failed_sessions = 0;
    for (i, &n) in SESSIONS.iter().enumerate() {
        if i == RECONFIGURE_AT {
            program = variants(1);
            fleet.reconfigure(program.clone()).unwrap();
        }
        if i == ROUND_TRIP_AT {
            let snap = fleet.export_flow_state();
            fleet.import_flow_state(&snap);
            assert_eq!(fleet.export_flow_state(), snap, "round trip is lossless");
        }
        let budgets = seen
            .iter()
            .map(|s| (PANIC_AFTER / 2).saturating_sub(*s))
            .collect();
        let mut fresh =
            ShardedEngine::new(&program, fleet_nfs(budgets), &config(), SHARDS).unwrap();
        fresh.import_flow_state(&fleet.export_flow_state());

        let pkts = traffic.take(n);
        let got = fleet.run_per_shard(pkts.clone());
        let want = fresh.run_per_shard(pkts);
        for (s, (g, w)) in got.iter().zip(&want).enumerate() {
            let what = format!("session {i} ({n} packets), shard {s}");
            assert_same(&outcome(g), &outcome(w), &what);
            seen[s] += nf_packets(g);
            failed_sessions += usize::from(!g.failures.is_empty());
        }
        assert_eq!(
            fleet.export_flow_state(),
            fresh.export_flow_state(),
            "flow state after session {i}"
        );
    }
    assert!(
        seen.iter().any(|&s| s > PANIC_AFTER / 2),
        "a panic budget was crossed"
    );
    assert!(
        failed_sessions >= 2,
        "an NF failed in some session and stayed failed"
    );
}

/// Back-to-back 64-packet sessions leave nothing in the pool, every
/// time.
#[test]
fn thousand_sessions_leave_the_pool_empty() {
    let mut engine = Engine::new(
        program_variants()(0),
        nfs(u64::MAX),
        EngineConfig {
            merge_deadline: Duration::from_millis(50),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut traffic = Traffic::new();
    for i in 0..1_000 {
        let r = engine.run(traffic.take(64));
        assert_eq!(r.pool_in_use, 0, "session {i} leaked pool slots");
        assert_eq!(r.injected, 64);
        assert_eq!(
            r.injected,
            r.delivered + r.dropped,
            "session {i} accounting"
        );
    }
}
