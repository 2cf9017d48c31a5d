//! Long-lived engine lifecycle: an engine owns its stage threads from
//! build to drop, and a built engine that is not running a session does
//! not poll.
//!
//! Both checks read process-wide counters (`/proc/self/task`,
//! `/proc/self/stat`), so they live in one test in a binary of their own:
//! no other test may spawn threads or burn CPU while they measure.

use nfp_core::prelude::*;
use nfp_dataplane::shard::ShardedEngine;
use std::time::Duration;

fn program() -> Program {
    compile(
        &Policy::from_chain(["Monitor", "Firewall"]),
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap()
    .program(1)
    .unwrap()
}

fn nfs() -> Vec<Box<dyn NetworkFunction>> {
    use nfp_core::nf::*;
    vec![
        Box::new(monitor::Monitor::new("Monitor")),
        Box::new(firewall::Firewall::with_synthetic_acl("Firewall", 100)),
    ]
}

fn traffic(n: usize) -> Vec<Packet> {
    TrafficGenerator::new(TrafficSpec {
        flows: 16,
        sizes: SizeDistribution::Fixed(128),
        ..TrafficSpec::default()
    })
    .batch(n)
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Process CPU time (all threads, user + system) from `/proc/self/stat`.
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // Fields after the parenthesised command name start at field 3;
    // utime is field 14 and stime field 15, in clock ticks of 10 ms.
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_millis(ticks * 10)
}

/// CPU the whole process burns while `engine` sits built but idle.
fn idle_cpu_over(window: Duration) -> Duration {
    // Let the stage threads finish the gate's short grace poll first.
    std::thread::sleep(Duration::from_millis(20));
    let before = process_cpu();
    std::thread::sleep(window);
    process_cpu() - before
}

#[test]
fn engines_join_their_threads_and_idle_without_cpu() {
    let base = threads();

    // A lone engine: its stage threads exist from build to drop.
    let mut engine = Engine::new(program(), nfs(), EngineConfig::default()).unwrap();
    assert!(threads() > base, "Engine::new starts the stage threads");
    let idle = idle_cpu_over(Duration::from_millis(200));
    assert!(
        idle < Duration::from_millis(5),
        "freshly built engine burned {idle:?}"
    );
    let report = engine.run(traffic(256));
    assert_eq!(report.delivered, 256);
    let idle = idle_cpu_over(Duration::from_millis(200));
    assert!(
        idle < Duration::from_millis(5),
        "idle engine after a session burned {idle:?}"
    );
    drop(engine);
    assert_eq!(
        threads(),
        base,
        "dropping the engine joins every stage thread"
    );

    // A fleet, rescaled: the retired replicas' threads are joined too.
    let mut fleet = ShardedEngine::new(&program(), nfs, &EngineConfig::default(), 2).unwrap();
    fleet.run(traffic(256));
    fleet.rescale(3).unwrap();
    let report = fleet.run(traffic(256));
    assert_eq!(report.delivered, 256);
    let idle = idle_cpu_over(Duration::from_millis(200));
    assert!(
        idle < Duration::from_millis(5),
        "idle fleet burned {idle:?}"
    );
    drop(fleet);
    assert_eq!(
        threads(),
        base,
        "dropping the fleet joins every stage thread"
    );
}
