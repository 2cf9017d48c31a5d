//! CI smoke slice of the adversarial soak matrix: malformed traffic with
//! the `combined` chaos script (one NF panic + one NF stall + live swaps
//! overlapped) on all three engines, plus a `scale_storm` cell rescaling
//! the sharded fleet mid-run, every cell audited live and checked
//! against the five soak invariants. Kept small enough to finish in a
//! few seconds; the full matrix runs in the `soak` bench binary.
//!
//! Every assertion message carries the root seed so a failure replays
//! with `cargo run --release --bin soak --seed <N>`.

use nfp_bench::soak::{run_cell, SoakOptions};
use nfp_dataplane::EngineKind;

const SEED: u64 = 0xC1_5EED;

fn opts() -> SoakOptions {
    SoakOptions {
        packets: 600,
        seed: SEED,
    }
}

/// Malformed traffic + panic + stall + live swaps on each engine: the
/// five invariants (pool census, exact accounting, no stale epochs, no
/// wedge, migration census) must hold throughout.
#[test]
fn combined_chaos_holds_invariants_on_every_engine() {
    for kind in EngineKind::ALL {
        let cell = run_cell("malformed", "combined", kind, &opts());
        assert!(
            cell.passed(),
            "cell {} violated invariants (replay with --seed {SEED}): {:?}",
            cell.label(),
            cell.invariants.violations
        );
        assert_eq!(
            cell.counts.injected,
            600,
            "cell {} (seed {SEED})",
            cell.label()
        );
        // The malformed share must exercise the classifier-reject path…
        assert!(
            cell.counts.rejected > 0,
            "cell {} saw no rejects (seed {SEED})",
            cell.label()
        );
        // …the script's swap timeline must actually fire…
        assert!(
            cell.swaps.attempted > 0,
            "cell {} fired no swaps (seed {SEED})",
            cell.label()
        );
        // …and the scripted panic must be recorded as an NF failure (the
        // stalled NF recovers on its own). Not asserted for the sharded
        // fleet: the RSS split can keep each replica's wrapped NF under
        // its per-instance panic threshold.
        if !matches!(kind, EngineKind::Sharded(_)) {
            assert!(
                cell.nf_failures >= 1,
                "cell {} recorded no NF failure (seed {SEED})",
                cell.label()
            );
        }
        // The live auditor must have actually sampled the run.
        assert!(
            cell.samples > 0,
            "cell {} was never audited (seed {SEED})",
            cell.label()
        );
    }
}

/// Hostile skewed traffic while a scripted rescale storm repartitions
/// the fleet mid-run: every rescale exports, re-partitions and imports
/// the Monitor's per-flow state, and the migrated-state census (flows
/// in == flows out) must balance exactly alongside the other four
/// invariants.
#[test]
fn scale_storm_migrates_state_and_balances_census() {
    let cell = run_cell(
        "elephant_mice",
        "scale_storm",
        EngineKind::Sharded(2),
        &opts(),
    );
    assert!(
        cell.passed(),
        "cell {} violated invariants (replay with --seed {SEED}): {:?}",
        cell.label(),
        cell.invariants.violations
    );
    assert_eq!(cell.counts.injected, 600, "seed {SEED}");
    assert!(
        cell.counts.rescales >= 3,
        "cell {} fired no rescale storm (seed {SEED}): {:?}",
        cell.label(),
        cell.counts
    );
    assert!(
        cell.counts.flows_exported > 0,
        "rescales migrated no flow state (seed {SEED}): {:?}",
        cell.counts
    );
    assert_eq!(
        cell.counts.flows_exported, cell.counts.flows_imported,
        "migration census unbalanced (seed {SEED})"
    );
}

/// Golden-trace pcap replay as the traffic axis: a seeded adversarial
/// capture (deny tuples, corrupted frames, snaplen cuts) goes through
/// the classic-pcap codec and back before injection, so the soak
/// invariants also cover the trace-replay admission path — on every
/// engine, under the combined chaos script.
#[test]
fn pcap_replay_traffic_holds_invariants_on_every_engine() {
    for kind in EngineKind::ALL {
        let cell = run_cell("pcap_replay", "combined", kind, &opts());
        assert!(
            cell.passed(),
            "cell {} violated invariants (replay with --seed {SEED}): {:?}",
            cell.label(),
            cell.invariants.violations
        );
        assert_eq!(
            cell.counts.injected,
            600,
            "cell {} (seed {SEED})",
            cell.label()
        );
        // The trace's malformed/snaplen-cut records must reach the
        // classifier-reject path…
        assert!(
            cell.counts.rejected > 0,
            "cell {} saw no rejects (seed {SEED})",
            cell.label()
        );
        // …while the well-formed bulk still flows.
        assert!(
            cell.counts.delivered > 0,
            "cell {} delivered nothing (seed {SEED})",
            cell.label()
        );
    }
}

/// The same cell twice is bit-identical in its flow counters: the whole
/// scenario — traffic, corruption, chaos timing — derives from the seed.
#[test]
fn soak_cells_replay_deterministically() {
    let a = run_cell("malformed", "swap_storm", EngineKind::Sync, &opts());
    let b = run_cell("malformed", "swap_storm", EngineKind::Sync, &opts());
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.counts.delivered, b.counts.delivered, "seed {SEED}");
    assert_eq!(a.counts.dropped, b.counts.dropped, "seed {SEED}");
    assert_eq!(a.counts.rejected, b.counts.rejected, "seed {SEED}");
    assert!(a.passed() && b.passed(), "{:?}", a.invariants.violations);
}
