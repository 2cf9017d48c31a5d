//! RSS flow-sharding scale-out sweep: run the firewall chain on the
//! sharded threaded engine with 1→4 shards and report delivered
//! throughput per shard count, dumping machine-readable results to
//! `results/BENCH_shard_scale.json`.
//!
//! On a multi-core host, shards map onto distinct cores and delivered pps
//! should scale close to linearly until the core budget (or the
//! dispatcher) is exhausted — the paper's Figure 12 regime. On a
//! single-core host the shard replicas time-slice one CPU, so the sweep
//! degenerates into a scheduling-overhead measurement; every row records
//! the detected parallelism, the stage-thread count the configuration
//! actually spawns, and an `oversubscribed` flag so readers can interpret
//! the numbers.
//!
//! Usage: `cargo run --release --bin shard_scale [packets] [trials]`

use nfp_bench::setups::{compile_chain, fixed_traffic, nf_factory};
use nfp_bench::stage_latency_json;
use nfp_dataplane::engine::EngineConfig;
use nfp_dataplane::exec::{host_parallelism, plan_pipeline_groups};
use nfp_dataplane::shard::ShardedEngine;
use std::fmt::Write as _;

struct Row {
    shards: usize,
    delivered: u64,
    dropped: u64,
    elapsed_s: f64,
    pps: f64,
    speedup: f64,
    stage_threads: usize,
    oversubscribed: bool,
    stage_latency: String,
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40_000);
    let trials: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    let parallelism = host_parallelism();

    let compiled = compile_chain(&["Monitor", "Firewall"]);
    let program = compiled.program(1).expect("program seals");
    let make_nfs = nf_factory(&compiled);
    let n_nfs = compiled.graph.nodes.len();
    let mergers = 2usize;
    let pkts = fixed_traffic(n, 200);
    let config = EngineConfig {
        max_in_flight: 64,
        mergers,
        ..EngineConfig::default()
    };
    let fleet_budget = config.core_budget;

    println!("== RSS shard scale-out: {:?} ==", compiled.graph.describe());
    println!("host parallelism: {parallelism} core(s), fleet core budget: {fleet_budget}");
    if parallelism < 4 {
        println!(
            "note: fewer cores than the largest shard count — replicas \
             time-slice, so expect flat (not linear) scaling here."
        );
    }

    let mut rows: Vec<Row> = Vec::new();
    for shards in 1..=4usize {
        // Mirror `ShardedEngine`'s per-shard split to report how many OS
        // threads this row actually runs (stage threads only; the shard
        // driver threads mostly sleep in `join`).
        let shard_budget = (fleet_budget / shards).max(1);
        let stage_threads =
            shards * plan_pipeline_groups(1 + n_nfs, 2 + mergers, shard_budget).len();
        let oversubscribed = stage_threads > parallelism;

        let mut best: Option<(f64, _)> = None;
        for _ in 0..trials {
            let mut engine = ShardedEngine::new(
                &program,
                make_nfs.clone(),
                &EngineConfig {
                    pool_size: shards * 512,
                    ..config.clone()
                },
                shards,
            )
            .expect("shard config");
            let report = engine.run(pkts.clone());
            let pps = report.pps();
            if best.as_ref().is_none_or(|(b, _)| pps > *b) {
                best = Some((pps, report));
            }
        }
        let (pps, report) = best.expect("at least one trial");
        let speedup = rows.first().map_or(1.0, |base| pps / base.pps);
        println!(
            "shards {shards}: delivered {} dropped {} in {:?}  ({:.2} Mpps, \
             {speedup:.2}x vs 1 shard, {stage_threads} stage threads{})",
            report.delivered,
            report.dropped,
            report.elapsed,
            pps / 1e6,
            if oversubscribed {
                " — OVERSUBSCRIBED"
            } else {
                ""
            },
        );
        rows.push(Row {
            shards,
            delivered: report.delivered,
            dropped: report.dropped,
            elapsed_s: report.elapsed.as_secs_f64(),
            pps,
            speedup,
            stage_threads,
            oversubscribed,
            stage_latency: stage_latency_json(&report.telemetry),
        });
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"shard_scale\",");
    let _ = writeln!(json, "  \"chain\": \"Monitor->Firewall\",");
    let _ = writeln!(json, "  \"packets\": {n},");
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"host_parallelism\": {parallelism},");
    let _ = writeln!(json, "  \"fleet_core_budget\": {fleet_budget},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"delivered\": {}, \"dropped\": {}, \
             \"elapsed_s\": {:.6}, \"pps\": {:.1}, \"speedup_vs_1\": {:.3}, \
             \"host_parallelism\": {}, \"stage_threads\": {}, \
             \"oversubscribed\": {}, \"stage_latency_ns\": {}}}{comma}",
            r.shards,
            r.delivered,
            r.dropped,
            r.elapsed_s,
            r.pps,
            r.speedup,
            parallelism,
            r.stage_threads,
            r.oversubscribed,
            r.stage_latency
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_shard_scale.json", &json).expect("write results");
    println!("\nwrote results/BENCH_shard_scale.json");
}
