//! Live reconfiguration: epoch-based program hot swap.
//!
//! Covers the three contract points of the swap protocol:
//!
//! 1. **Exactly-one-epoch attribution** (property): every packet the
//!    engine finishes — delivered or dropped — is accounted under exactly
//!    one program epoch, no matter where in the stream the swap lands.
//! 2. **Zero-loss live swap**: a threaded engine mid-run hot-swaps to a
//!    policy-edited program from a controller thread without losing a
//!    packet or leaking a pool slot.
//! 3. **Rejection is inert**: an incompatible candidate leaves the
//!    running engine byte-for-byte untouched.

use nfp_dataplane::engine::{Engine, EngineConfig};
use nfp_dataplane::swap::ReconfigError;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_nf::firewall::Firewall;
use nfp_nf::monitor::Monitor;
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{
    compile, CompileOptions, FailurePolicy, Program, Registry, UpdateRejection,
};
use nfp_packet::Packet;
use nfp_policy::Policy;
use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};
use proptest::prelude::*;
use std::sync::Arc;

const CHAIN: [&str; 2] = ["Monitor", "Firewall"];

fn base_program(epoch: u64) -> Program {
    let compiled = compile(
        &Policy::from_chain(CHAIN),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    compiled.program(1).unwrap().with_epoch(epoch)
}

/// The canonical hot-swappable policy edit: same chain, same topology,
/// but the Firewall profile pins the opposite failure policy — the merge
/// member specs differ, the wiring does not.
fn policy_edit(epoch: u64) -> Program {
    let mut reg = Registry::paper_table2();
    let mut fw = reg.get("Firewall").unwrap().clone();
    fw.failure = Some(FailurePolicy::FailOpen);
    reg.register(fw);
    let compiled = compile(
        &Policy::from_chain(CHAIN),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    compiled.program(1).unwrap().with_epoch(epoch)
}

/// Topology-incompatible candidate: the same chain forced sequential has
/// a different ring mesh and must be rejected for hot swap.
fn sequential_program(epoch: u64) -> Program {
    let compiled = compile(
        &Policy::from_chain(CHAIN),
        &Registry::paper_table2(),
        &[],
        &CompileOptions {
            force_sequential: true,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    compiled.program(1).unwrap().with_epoch(epoch)
}

fn nfs() -> Vec<Box<dyn NetworkFunction>> {
    vec![
        Box::new(Monitor::new("Monitor")),
        Box::new(Firewall::with_synthetic_acl("Firewall", 100)),
    ]
}

fn traffic(n: usize, flows: usize) -> Vec<Packet> {
    TrafficGenerator::new(TrafficSpec {
        flows,
        sizes: SizeDistribution::Fixed(128),
        ..TrafficSpec::default()
    })
    .batch(n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Wherever the swap lands in the stream, every finished packet is
    /// attributed to exactly one epoch: the per-epoch completion tallies
    /// partition the delivered+dropped total, with the split point exactly
    /// at the reconfigure() call — no hybrid processing.
    #[test]
    fn every_packet_settles_under_exactly_one_epoch(
        n in 1usize..60,
        split_frac in 0.0f64..1.0,
        flows in 1usize..8,
    ) {
        let k = ((n as f64) * split_frac) as usize;
        let mut e = SyncEngine::new(base_program(0), nfs(), 64);
        let pkts = traffic(n, flows);
        let first = e.run(pkts[..k].to_vec());
        prop_assert_eq!(e.epoch(), 0);
        let report = e.reconfigure(policy_edit(1)).unwrap();
        prop_assert_eq!(report.from_epoch, 0);
        prop_assert_eq!(report.to_epoch, 1);
        prop_assert_eq!(report.drained, 0, "sync engine idle between packets");
        let second = e.run(pkts[k..].to_vec());
        prop_assert_eq!(e.epoch(), 1);
        let finished = first.delivered + first.dropped + second.delivered + second.dropped;
        prop_assert_eq!(finished, n as u64);
        prop_assert_eq!(e.pool_in_use(), 0, "no leaked slots across the swap");
        let tallies = second.epochs;
        prop_assert_eq!(tallies.len(), 2);
        prop_assert_eq!(tallies[0].epoch, 0);
        prop_assert_eq!(tallies[0].completed, k as u64);
        prop_assert_eq!(tallies[1].epoch, 1);
        prop_assert_eq!(tallies[1].completed, (n - k) as u64);
    }
}

/// A threaded engine hot-swaps mid-run from a detached controller thread:
/// zero packet loss, zero pool-slot leakage, every output attributable to
/// exactly one epoch. (If the run finishes before the controller fires,
/// the swap degenerates to an idle swap — every assertion still holds.)
#[test]
fn live_swap_mid_run_loses_nothing() {
    let mut e = Engine::new(
        base_program(0),
        nfs(),
        EngineConfig {
            max_in_flight: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let controller = e.controller();
    let swap = std::thread::spawn(move || {
        // Land mid-stream with high probability; correctness must not
        // depend on where it actually lands.
        std::thread::sleep(std::time::Duration::from_millis(3));
        controller.reconfigure(policy_edit(1))
    });
    let report = e.run(traffic(3000, 16));
    let swap_report = swap.join().unwrap().expect("policy edit must hot-swap");
    assert_eq!(swap_report.from_epoch, 0);
    assert_eq!(swap_report.to_epoch, 1);
    assert_eq!(e.epoch(), 1);
    // Zero loss: this traffic hits no deny rule under either policy.
    assert_eq!(report.injected, 3000);
    assert_eq!(report.delivered + report.dropped, 3000);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.pool_in_use, 0, "no leaked slots across the swap");
    // Exactly-one-epoch attribution: lifetime tallies partition the total.
    let total: u64 = e.handle().tallies().iter().map(|t| t.completed).sum();
    assert_eq!(total, 3000);
}

/// The packets `pkts` deliver through `e`, in order.
fn delivered(e: &mut SyncEngine, pkts: Vec<Packet>) -> Vec<Packet> {
    let outcomes = pkts.into_iter().map(|p| e.process(p).unwrap());
    outcomes.filter_map(|o| o.delivered()).collect()
}

/// An engine that processed traffic, got a rejected update, and processes
/// more traffic behaves byte-for-byte like one that never saw the update.
#[test]
fn rejected_update_leaves_engine_byte_for_byte_untouched() {
    let pkts = traffic(80, 8);
    let mut control = SyncEngine::new(base_program(0), nfs(), 64);
    let mut probed = SyncEngine::new(base_program(0), nfs(), 64);
    let first: Vec<Packet> = pkts[..40].to_vec();
    let rest: Vec<Packet> = pkts[40..].to_vec();
    let mut out_control = delivered(&mut control, first.clone());
    let mut out_probed = delivered(&mut probed, first);

    // Topology change → structured rejection; stale epoch → ditto.
    let err = probed.reconfigure(sequential_program(1)).unwrap_err();
    assert!(matches!(
        err,
        ReconfigError::Rejected(UpdateRejection::TopologyChanged)
    ));
    let err = probed.reconfigure(policy_edit(0)).unwrap_err();
    assert!(matches!(
        err,
        ReconfigError::Rejected(UpdateRejection::StaleEpoch {
            current: 0,
            offered: 0
        })
    ));
    assert_eq!(probed.epoch(), 0, "running epoch untouched");

    out_control.extend(delivered(&mut control, rest.clone()));
    out_probed.extend(delivered(&mut probed, rest));
    assert_eq!(out_control.len(), out_probed.len());
    for (c, p) in out_control.iter().zip(&out_probed) {
        assert_eq!(c.data(), p.data(), "outputs diverged after rejection");
    }
}

/// The threaded engine's rejected install does not perturb the live
/// program slot: the current epoch state is pointer-identical before and
/// after, and a subsequent run is unaffected.
#[test]
fn rejected_install_keeps_program_slot_identity() {
    let mut e = Engine::new(base_program(0), nfs(), EngineConfig::default()).unwrap();
    let before = e.handle().current();
    let err = e.reconfigure(sequential_program(1)).unwrap_err();
    assert!(matches!(err, ReconfigError::Rejected(_)));
    assert!(
        Arc::ptr_eq(&before, &e.handle().current()),
        "rejected install must not replace the epoch state"
    );
    let report = e.run(traffic(100, 4));
    assert_eq!(report.delivered, 100);
    assert_eq!(report.epoch, 0);
}

/// Back-to-back swaps between runs: each run's packets settle under the
/// epoch that was current, and the report's epoch tracks the handle.
#[test]
fn swaps_between_runs_accumulate_tallies() {
    let mut e = Engine::new(
        base_program(0),
        nfs(),
        EngineConfig {
            max_in_flight: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let r0 = e.run(traffic(50, 4));
    assert_eq!(r0.epoch, 0);
    e.reconfigure(policy_edit(1)).unwrap();
    let r1 = e.run(traffic(70, 4));
    assert_eq!(r1.epoch, 1);
    let tallies = r1.epochs;
    assert_eq!(tallies.len(), 2);
    assert_eq!(tallies[0].completed, 50);
    assert_eq!(tallies[1].completed, 70);
}
