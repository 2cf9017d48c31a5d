//! Adversarial soak matrix: hostile traffic × chaos scripts × engines,
//! every cell audited live against the five soak invariants, dumped to
//! `results/BENCH_soak_matrix.json`.
//!
//! Full matrix: 4 traffic profiles × 4 chaos scripts × 3 engines = 48
//! cells, then the `long_session` cell: 10⁶ packets through one threaded
//! engine in 64-packet sessions, with the pool census checked after every
//! session and the resident set held flat. `--smoke` runs the time-boxed
//! CI subset (2 × 2 × 3 = 12 cells covering both generator traffic and
//! golden-trace pcap replay, fewer packets, and a 10⁵-packet
//! `long_session`). Every cell derives its RNG from the root seed, so a
//! failing run replays bit-for-bit with `--seed N` (printed on failure).
//!
//! Usage: `cargo run --release --bin soak [--smoke] [--seed N] [--packets N] [--shards N]`

use nfp_bench::soak::{
    run_cell, run_long_session, CellResult, LongSessionResult, SoakOptions, CHAOS_SCRIPTS,
    LONG_SESSION_CHUNK, SOAK_CHAIN, TRAFFIC_PROFILES,
};
use nfp_dataplane::EngineKind;
use std::fmt::Write as _;

fn parse_args() -> (SoakOptions, usize, bool) {
    let mut opts = SoakOptions::default();
    let mut shards = 2;
    let mut smoke = false;
    let mut packets_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric value"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => opts.seed = num("--seed"),
            "--packets" => {
                opts.packets = num("--packets") as usize;
                packets_set = true;
            }
            "--shards" => shards = (num("--shards") as usize).max(1),
            other => panic!("unknown argument `{other}`"),
        }
    }
    if smoke && !packets_set {
        opts.packets = 1_200;
    }
    (opts, shards, smoke)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cell_json(c: &CellResult) -> String {
    let mut j = String::from("    {");
    let _ = write!(
        j,
        "\"traffic\": \"{}\", \"chaos\": \"{}\", \"engine\": \"{}\", \"seed\": {},\n     ",
        c.traffic, c.chaos, c.engine, c.seed
    );
    let _ = write!(
        j,
        "\"injected\": {}, \"delivered\": {}, \"dropped\": {}, \"rejected\": {}, \
         \"pool_in_use\": {}, \"epoch_completed\": {},\n     ",
        c.counts.injected,
        c.counts.delivered,
        c.counts.dropped,
        c.counts.rejected,
        c.counts.pool_in_use,
        c.counts.epoch_completed
    );
    let _ = write!(
        j,
        "\"swaps_attempted\": {}, \"swaps_completed\": {}, \"swaps_rejected\": {}, \
         \"rescales\": {}, \"flows_exported\": {}, \"flows_imported\": {}, \
         \"nf_failures\": {}, \"elapsed_ms\": {:.2}, \"audit_samples\": {}, \
         \"peak_pool_in_use\": {},\n     ",
        c.swaps.attempted,
        c.swaps.completed,
        c.swaps.rejected,
        c.counts.rescales,
        c.counts.flows_exported,
        c.counts.flows_imported,
        c.nf_failures,
        c.elapsed.as_secs_f64() * 1e3,
        c.samples,
        c.peak_pool_in_use
    );
    let inv = &c.invariants;
    let _ = write!(
        j,
        "\"invariants\": {{\"pool_census\": {}, \"accounting_exact\": {}, \
         \"no_stale_epochs\": {}, \"no_wedge\": {}, \"migration_census\": {}, \
         \"all_hold\": {}}},\n     ",
        inv.pool_census,
        inv.accounting_exact,
        inv.no_stale_epochs,
        inv.no_wedge,
        inv.migration_census,
        inv.all_hold()
    );
    let violations: Vec<String> = inv
        .violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    let _ = write!(j, "\"violations\": [{}]}}", violations.join(", "));
    j
}

fn long_session_json(r: &LongSessionResult) -> String {
    let violations: Vec<String> = r
        .violations
        .iter()
        .map(|v| format!("\"{}\"", json_escape(v)))
        .collect();
    format!(
        "{{\"packets\": {}, \"session_packets\": {LONG_SESSION_CHUNK}, \"sessions\": {}, \
         \"delivered\": {}, \"dropped\": {}, \"rss_warm_kib\": {}, \"rss_peak_kib\": {}, \
         \"elapsed_ms\": {:.2}, \"passed\": {}, \"violations\": [{}]}}",
        r.packets,
        r.sessions,
        r.delivered,
        r.dropped,
        r.rss_warm_kib,
        r.rss_peak_kib,
        r.elapsed.as_secs_f64() * 1e3,
        r.passed(),
        violations.join(", ")
    )
}

fn main() {
    let (opts, shards, smoke) = parse_args();
    let engines = [
        EngineKind::Sync,
        EngineKind::Threaded,
        EngineKind::Sharded(shards),
    ];
    let traffic: &[&str] = if smoke {
        &TRAFFIC_PROFILES[..2]
    } else {
        &TRAFFIC_PROFILES
    };
    let chaos: &[&str] = if smoke {
        &CHAOS_SCRIPTS[..2]
    } else {
        &CHAOS_SCRIPTS
    };

    println!(
        "== adversarial soak: {} on {} cells ({} pkts/cell, seed {}) ==",
        SOAK_CHAIN.join("|"),
        traffic.len() * chaos.len() * engines.len(),
        opts.packets,
        opts.seed
    );

    let mut cells: Vec<CellResult> = Vec::new();
    for t in traffic {
        for c in chaos {
            for kind in engines {
                let cell = run_cell(t, c, kind, &opts);
                let verdict = if cell.passed() { "ok" } else { "FAIL" };
                println!(
                    "{verdict:>4}  {:<40} injected {:>6} delivered {:>6} dropped {:>6} \
                     (rejected {:>5}) swaps {}/{} rescales {} (flows {}/{}) \
                     nf_failures {} [{:>7.1} ms]",
                    cell.label(),
                    cell.counts.injected,
                    cell.counts.delivered,
                    cell.counts.dropped,
                    cell.counts.rejected,
                    cell.swaps.completed,
                    cell.swaps.attempted,
                    cell.counts.rescales,
                    cell.counts.flows_imported,
                    cell.counts.flows_exported,
                    cell.nf_failures,
                    cell.elapsed.as_secs_f64() * 1e3
                );
                for v in &cell.invariants.violations {
                    println!("        violation: {v}  (cell seed {})", cell.seed);
                }
                cells.push(cell);
            }
        }
    }

    let long_packets = if smoke { 100_000 } else { 1_000_000 };
    let long = run_long_session(long_packets, opts.seed);
    println!(
        "{:>4}  long_session ({} sessions of {LONG_SESSION_CHUNK}) delivered {} dropped {} \
         rss {} -> peak {} KiB [{:>7.1} ms, {:.3} Mpps]",
        if long.passed() { "ok" } else { "FAIL" },
        long.sessions,
        long.delivered,
        long.dropped,
        long.rss_warm_kib,
        long.rss_peak_kib,
        long.elapsed.as_secs_f64() * 1e3,
        long.packets as f64 / long.elapsed.as_secs_f64() / 1e6
    );
    for v in &long.violations {
        println!("        violation: {v}  (seed {})", opts.seed);
    }

    let passed = cells.iter().filter(|c| c.passed()).count();
    let all_hold = passed == cells.len() && long.passed();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"soak_matrix\",");
    let _ = writeln!(json, "  \"chain\": \"{}\",", SOAK_CHAIN.join("|"));
    let _ = writeln!(json, "  \"seed\": {},", opts.seed);
    let _ = writeln!(json, "  \"packets_per_cell\": {},", opts.packets);
    let _ = writeln!(json, "  \"shards\": {shards},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"cells_total\": {},", cells.len());
    let _ = writeln!(json, "  \"cells_passed\": {passed},");
    let _ = writeln!(json, "  \"all_invariants_hold\": {all_hold},");
    let _ = writeln!(json, "  \"cells\": [");
    let rendered: Vec<String> = cells.iter().map(cell_json).collect();
    json.push_str(&rendered.join(",\n"));
    json.push_str("\n  ],\n");
    let _ = writeln!(json, "  \"long_session\": {}", long_session_json(&long));
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_soak_matrix.json", &json).expect("write results");
    println!(
        "\n{passed}/{} cells passed, long_session {}; wrote results/BENCH_soak_matrix.json",
        cells.len(),
        if long.passed() { "passed" } else { "FAILED" }
    );

    if !all_hold {
        eprintln!(
            "soak FAILED: {} cell(s) violated invariants{} — replay with `soak --seed {}`",
            cells.len() - passed,
            if long.passed() {
                ""
            } else {
                ", long_session failed"
            },
            opts.seed
        );
        std::process::exit(1);
    }
}
