//! Elastic autoscaling under a load ramp: drive the sharded fleet
//! through ramp → peak → idle offered load, let the telemetry-driven
//! [`Autoscaler`] grow and shrink the shard count, and audit the flow-
//! state migration census on every rescale. Dumps machine-readable
//! results to `results/BENCH_autoscale.json`.
//!
//! The chain is Monitor → Firewall → LB: the Monitor (per-flow packet /
//! byte counters) and the LB (per-flow backend pins) are stateful, so
//! every rescale exercises export → re-partition → import. Two
//! invariants are audited at the end:
//!
//! * **census balanced** — across every rescale, flows imported equals
//!   flows exported (no state lost or invented in migration);
//! * **state intact** — the Monitor's final checkpoint still counts
//!   every packet ever offered, across all 32 flows: if any rescale had
//!   dropped or reset per-flow state, the totals could not add up.
//!
//! Usage: `cargo run --release --bin autoscale [-- --smoke] [--check]`
//! `--smoke` shrinks the schedule for CI; `--check` exits non-zero
//! unless the fleet grew under the ramp, shrank on idle, and both
//! invariants held.

use nfp_bench::setups::{compile_chain, nf_factory};
use nfp_dataplane::autoscale::{AutoscalePolicy, Autoscaler, LoadSignals, ScaleDecision};
use nfp_dataplane::engine::EngineConfig;
use nfp_dataplane::shard::ShardedEngine;
use nfp_nf::monitor::FlowStats;
use std::fmt::Write as _;
use std::time::Duration;

const FLOWS: usize = 32;

struct Row {
    interval: usize,
    phase: &'static str,
    offered: usize,
    shards_before: usize,
    shards_after: usize,
    occupancy: f64,
    p99_ns: u64,
    pps: f64,
    decision: &'static str,
    flows_exported: u64,
    flows_imported: u64,
    migration_ms: f64,
}

/// Offered-load schedule: `(phase, packets)` per interval.
fn schedule(smoke: bool) -> Vec<(&'static str, usize)> {
    let mut s = Vec::new();
    let ramp: &[usize] = if smoke {
        &[128, 256, 512, 1024]
    } else {
        &[64, 128, 256, 384, 512, 640, 768, 896]
    };
    for &n in ramp {
        s.push(("ramp", n));
    }
    let peak = if smoke { 4 } else { 8 };
    for _ in 0..peak {
        s.push(("peak", 1024));
    }
    let idle = if smoke { 10 } else { 14 };
    for _ in 0..idle {
        s.push(("idle", 4));
    }
    s
}

fn traffic(n: usize) -> Vec<nfp_packet::Packet> {
    // A fresh generator per interval replays the same FLOWS flows, so
    // per-flow state accumulates across the whole run.
    nfp_traffic::TrafficGenerator::new(nfp_traffic::TrafficSpec {
        flows: FLOWS,
        sizes: nfp_traffic::SizeDistribution::Fixed(200),
        ..nfp_traffic::TrafficSpec::default()
    })
    .batch(n)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");

    let compiled = compile_chain(&["Monitor", "Firewall", "LB"]);
    let program = compiled.program(1).expect("program seals");
    let monitor_node = compiled
        .graph
        .nodes
        .iter()
        .position(|n| n.name.as_str() == "Monitor")
        .expect("Monitor in graph");
    let make_nfs = nf_factory(&compiled);

    let policy = AutoscalePolicy {
        min_shards: 1,
        max_shards: 4,
        // Backpressure-driven: grow on a ring holding a full burst,
        // shrink only when every ring stayed nearly empty. The p99
        // thresholds are parked high so the decision trace is
        // reproducible across hosts of different speeds.
        grow_occupancy: 0.5,
        shrink_occupancy: 0.125,
        grow_p99: Duration::from_millis(500),
        shrink_p99: Duration::from_millis(400),
        calm_intervals: 2,
        cooldown: 1,
    };
    let config = EngineConfig {
        // Per-shard pool stays ≥ 512 up to the 4-shard ceiling.
        pool_size: 2048,
        ring_capacity: 64,
        max_in_flight: 64,
        ..EngineConfig::default()
    };

    let mut fleet =
        ShardedEngine::new(&program, make_nfs, &config, policy.min_shards).expect("fleet builds");
    let mut scaler = Autoscaler::new(policy);

    println!("== elastic autoscale ramp: Monitor→Firewall→LB, {FLOWS} flows ==");
    let mut rows: Vec<Row> = Vec::new();
    let mut total_offered = 0u64;
    let mut peak_shards = fleet.shards();
    for (interval, (phase, offered)) in schedule(smoke).into_iter().enumerate() {
        let shards_before = fleet.shards();
        let report = fleet.run(traffic(offered));
        total_offered += offered as u64;
        let signals = LoadSignals::from_report(&report, config.ring_capacity);
        let decision = scaler.observe(shards_before, signals);
        let (label, scale) = match decision {
            ScaleDecision::Hold => ("hold", None),
            ScaleDecision::Grow { to, .. } => ("grow", Some(fleet.rescale(to).expect("grow"))),
            ScaleDecision::Shrink { to, .. } => {
                ("shrink", Some(fleet.rescale(to).expect("shrink")))
            }
        };
        peak_shards = peak_shards.max(fleet.shards());
        println!(
            "[{interval:>2}] {phase:<4} offered {offered:>5}  occ {:>5.2}  p99 {:>9}ns  \
             shards {shards_before}->{}  {label}{}",
            signals.ring_occupancy,
            signals.p99_ns,
            fleet.shards(),
            scale
                .as_ref()
                .map(|s| format!(" (migrated {} flows)", s.flows_imported))
                .unwrap_or_default(),
        );
        rows.push(Row {
            interval,
            phase,
            offered,
            shards_before,
            shards_after: fleet.shards(),
            occupancy: signals.ring_occupancy,
            p99_ns: signals.p99_ns,
            pps: signals.pps,
            decision: label,
            flows_exported: scale.as_ref().map_or(0, |s| s.flows_exported),
            flows_imported: scale.as_ref().map_or(0, |s| s.flows_imported),
            migration_ms: scale
                .as_ref()
                .map_or(0.0, |s| s.latency.as_secs_f64() * 1e3),
        });
    }

    // Final audit: migration census and end-to-end state integrity.
    let census = fleet.migration();
    let grew = rows.iter().any(|r| r.decision == "grow");
    let shrank = rows.iter().any(|r| r.decision == "shrink");
    let checkpoint = fleet.export_flow_state();
    let monitor = &checkpoint[monitor_node];
    let monitor_flows = monitor.len();
    let monitor_packets: u64 = monitor
        .entries
        .iter()
        .map(|(_, b)| FlowStats::from_bytes(b).map_or(0, |s| s.packets))
        .sum();
    let state_intact = monitor_flows == FLOWS && monitor_packets == total_offered;
    println!(
        "\nrescales {} (peak {} shards, final {}), census exported {} / imported {} ({}), \
         monitor counted {monitor_packets}/{total_offered} packets over {monitor_flows} flows ({})",
        census.rescales,
        peak_shards,
        fleet.shards(),
        census.flows_exported,
        census.flows_imported,
        if census.balanced() {
            "balanced"
        } else {
            "LOST STATE"
        },
        if state_intact { "intact" } else { "CORRUPT" },
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"autoscale\",");
    let _ = writeln!(json, "  \"chain\": \"Monitor->Firewall->LB\",");
    let _ = writeln!(json, "  \"flows\": {FLOWS},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"total_offered\": {total_offered},");
    let _ = writeln!(json, "  \"summary\": {{");
    let _ = writeln!(json, "    \"grew\": {grew},");
    let _ = writeln!(json, "    \"shrank\": {shrank},");
    let _ = writeln!(json, "    \"peak_shards\": {peak_shards},");
    let _ = writeln!(json, "    \"final_shards\": {},", fleet.shards());
    let _ = writeln!(json, "    \"rescales\": {},", census.rescales);
    let _ = writeln!(json, "    \"flows_exported\": {},", census.flows_exported);
    let _ = writeln!(json, "    \"flows_imported\": {},", census.flows_imported);
    let _ = writeln!(json, "    \"census_balanced\": {},", census.balanced());
    let _ = writeln!(json, "    \"monitor_flows\": {monitor_flows},");
    let _ = writeln!(json, "    \"monitor_packets\": {monitor_packets},");
    let _ = writeln!(json, "    \"state_intact\": {state_intact}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"intervals\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"interval\": {}, \"phase\": \"{}\", \"offered\": {}, \
             \"shards_before\": {}, \"shards_after\": {}, \"occupancy\": {:.4}, \
             \"p99_ns\": {}, \"pps\": {:.1}, \"decision\": \"{}\", \
             \"flows_exported\": {}, \"flows_imported\": {}, \
             \"migration_ms\": {:.3}}}{comma}",
            r.interval,
            r.phase,
            r.offered,
            r.shards_before,
            r.shards_after,
            r.occupancy,
            r.p99_ns,
            r.pps,
            r.decision,
            r.flows_exported,
            r.flows_imported,
            r.migration_ms,
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_autoscale.json", &json).expect("write results");
    println!("wrote results/BENCH_autoscale.json");

    if check {
        let mut failed = Vec::new();
        if !grew {
            failed.push("fleet never grew under the ramp");
        }
        if !shrank {
            failed.push("fleet never shrank on idle");
        }
        if !census.balanced() {
            failed.push("migration census unbalanced: flow state lost");
        }
        if !state_intact {
            failed.push("monitor state corrupt after migrations");
        }
        if !failed.is_empty() {
            for f in &failed {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("all autoscale checks passed");
    }
}
