//! Cross-crate integration: the multi-threaded engine must agree with the
//! deterministic sync engine (same tables, same NF types) on delivery,
//! drops and packet contents.

use nfp_core::prelude::*;
use nfp_dataplane::sync_engine::SyncEngine;
use nfp_packet::ipv4::Ipv4Addr;
use std::collections::BTreeSet;

fn make(name: &str) -> Box<dyn NetworkFunction> {
    use nfp_core::nf::*;
    match name {
        "Monitor" => Box::new(monitor::Monitor::new(name)),
        "Firewall" => Box::new(firewall::Firewall::with_synthetic_acl(name, 100)),
        "LoadBalancer" => Box::new(lb::LoadBalancer::with_uniform_backends(name, 8)),
        other => unreachable!("{other}"),
    }
}

fn build(chain: &[&str]) -> (nfp_orchestrator::Compiled, Program) {
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let program = compiled.program(1).unwrap();
    (compiled, program)
}

fn traffic(n: usize) -> Vec<Packet> {
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(200),
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

#[test]
fn threaded_matches_sync_engine_with_copies_and_drops() {
    let chain = ["Monitor", "Firewall", "LoadBalancer"];
    let (compiled, program) = build(&chain);
    let nfs_threaded: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| make(n.name.as_str()))
        .collect();
    let nfs_sync: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| make(n.name.as_str()))
        .collect();

    let pkts = traffic(400);
    let mut sync = SyncEngine::new(program.clone(), nfs_sync, 128);
    let mut expected: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut expected_drops = 0u64;
    for p in pkts.clone() {
        match sync.process(p).unwrap().delivered() {
            Some(out) => {
                expected.insert(out.data().to_vec());
            }
            None => expected_drops += 1,
        }
    }

    let mut engine = Engine::new(
        program,
        nfs_threaded,
        EngineConfig {
            keep_packets: true,
            max_in_flight: 32,
            mergers: 2,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(pkts);
    assert_eq!(report.dropped, expected_drops);
    assert_eq!(report.delivered as usize, expected.len());
    let got: BTreeSet<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
    assert_eq!(got, expected, "threaded and sync outputs differ");
    assert!(report.latency.is_some());
}

#[test]
fn threaded_engine_with_single_merger() {
    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
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
            mergers: 1,
            max_in_flight: 8,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(traffic(200));
    assert_eq!(report.injected, 200);
    assert_eq!(report.delivered + report.dropped, 200);
}

#[test]
fn graph_with_two_parallel_segments_merges_twice() {
    // Monitor∥LB(copy) → Caching∥Gateway: two merge points per packet.
    let compiled = compile(
        &Policy::from_chain(["Monitor", "LoadBalancer", "Caching", "Gateway"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let g = &compiled.graph;
    let parallel_segments = g
        .segments
        .iter()
        .filter(|s| matches!(s, nfp_orchestrator::graph::Segment::Parallel(_)))
        .count();
    assert_eq!(parallel_segments, 2, "{}", g.describe());
    let program = compiled.program(1).unwrap();
    assert_eq!(program.tables().merge_specs.len(), 2);

    let make_all = |g: &nfp_orchestrator::ServiceGraph| -> Vec<Box<dyn NetworkFunction>> {
        g.nodes
            .iter()
            .map(|n| -> Box<dyn NetworkFunction> {
                use nfp_core::nf::extra;
                use nfp_core::nf::*;
                match n.name.as_str() {
                    "Monitor" => Box::new(monitor::Monitor::new("Monitor")),
                    "LoadBalancer" => Box::new(lb::LoadBalancer::with_uniform_backends("LB", 4)),
                    "Caching" => Box::new(extra::Caching::new("Caching", 32)),
                    "Gateway" => Box::new(extra::Gateway::new("Gateway")),
                    other => unreachable!("{other}"),
                }
            })
            .collect()
    };

    // Sync oracle.
    let mut sync = SyncEngine::new(program.clone(), make_all(g), 128);
    let pkts = traffic(150);
    let mut expected = Vec::new();
    for p in pkts.clone() {
        if let Some(out) = sync.process(p).unwrap().delivered() {
            expected.push(out.data().to_vec());
        }
    }
    // Threaded engine.
    let mut engine = Engine::new(
        program,
        make_all(g),
        EngineConfig {
            keep_packets: true,
            max_in_flight: 16,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(pkts);
    assert_eq!(report.delivered as usize, expected.len());
    let mut got: Vec<Vec<u8>> = report.packets.iter().map(|p| p.data().to_vec()).collect();
    got.sort();
    expected.sort();
    assert_eq!(got, expected);
}

#[test]
fn engine_rerun_accumulates() {
    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
    let nfs: Vec<_> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| make(n.name.as_str()))
        .collect();
    let mut engine = Engine::new(program, nfs, EngineConfig::default()).unwrap();
    let r1 = engine.run(traffic(50));
    let r2 = engine.run(traffic(50));
    assert_eq!(r1.injected + r2.injected, 100);
    assert_eq!(r1.delivered + r1.dropped + r2.delivered + r2.dropped, 100);
}

/// A parked engine must stay live: with an idle policy that parks almost
/// immediately and a long park timeout, a mid-run stall sends every
/// downstream stage thread to sleep — and the late burst the stalled NF
/// finally emits must still wake them and be delivered in full. A lost
/// wakeup here shows up as a multi-second run (every ring crossing waits
/// out a full park timeout) or a hang.
#[test]
fn parked_engine_wakes_for_late_burst() {
    use nfp_core::nf::chaos::StallOnce;
    use nfp_dataplane::exec::IdlePolicy;
    use std::time::Duration;

    let chain = ["Monitor", "Firewall"];
    let (compiled, program) = build(&chain);
    let nfs: Vec<Box<dyn NetworkFunction>> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| {
            if n.name.as_str() == "Firewall" {
                Box::new(StallOnce::new(
                    nfp_core::nf::firewall::Firewall::with_synthetic_acl("Firewall", 100),
                    20,
                    Duration::from_millis(80),
                )) as Box<dyn NetworkFunction>
            } else {
                make(n.name.as_str())
            }
        })
        .collect();
    let mut engine = Engine::new(
        program,
        nfs,
        EngineConfig {
            max_in_flight: 8,
            // Park after two no-progress passes, for up to a second — far
            // longer than the stall, so delivery depends on the wakeup
            // protocol rather than the timeout.
            idle_policy: IdlePolicy::Backoff {
                spin: 1,
                yields: 1,
                park_timeout: Duration::from_secs(1),
            },
            // Two threads: the stalled NF blocks the front section while
            // the back section (agent, merger, collector) goes idle.
            core_budget: 2,
            stall_timeout: Duration::from_secs(30),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let report = engine.run(traffic(120));
    assert_eq!(report.delivered + report.dropped, 120);
    assert_eq!(report.pool_in_use, 0);
    assert!(
        report.elapsed < Duration::from_secs(5),
        "late-burst delivery took {:?}: parked threads likely missed a wakeup",
        report.elapsed
    );
}

/// An ingress that yields malformed frames, stalls, then yields valid
/// frames: the rejects take no PIDs, so the valid frames' PIDs start at
/// 0 while the first injections happened before the stall.
struct StallingIngress {
    bursts: std::collections::VecDeque<(std::time::Duration, Vec<Packet>)>,
}

impl nfp_packet::io::Ingress for StallingIngress {
    fn next_burst(&mut self, _max: usize) -> Result<Option<Vec<Packet>>, nfp_packet::io::IoError> {
        Ok(self.bursts.pop_front().map(|(stall, pkts)| {
            std::thread::sleep(stall);
            pkts
        }))
    }
}

#[test]
fn latency_is_timed_from_each_packets_own_injection() {
    let stall = std::time::Duration::from_millis(50);
    let (compiled, program) = build(&["Monitor", "Firewall"]);
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
            max_in_flight: 1,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let malformed: Vec<Packet> = (0..8)
        .map(|_| Packet::from_bytes(&[0xab; 20]).unwrap())
        .collect();
    let mut ingress = StallingIngress {
        bursts: [(std::time::Duration::ZERO, malformed), (stall, traffic(16))].into(),
    };
    let mut egress = nfp_packet::io::CollectEgress::default();
    let (report, io) = engine.run_io(&mut ingress, &mut egress).unwrap();
    assert_eq!(io.rejected, 8);
    assert_eq!(report.delivered + report.dropped, 24);
    let latency = report.latency.expect("valid frames were delivered");
    assert!(
        latency.max < stall,
        "a delivered packet was timed against an earlier packet's injection: max {:?}",
        latency.max
    );
}
