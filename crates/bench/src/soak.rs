//! Adversarial soak scenarios: hostile traffic × chaos scripts × engines,
//! audited live.
//!
//! One **cell** of the soak matrix drives one traffic profile through one
//! engine while one [`ChaosScript`] disrupts it — NF panics, stalls,
//! mid-storm live swaps and fleet rescale storms — with a continuous
//! [`auditor`](nfp_dataplane::audit::spawn_auditor) sampling the run and
//! an end-of-run [`InvariantReport`] over the five soak invariants (pool
//! census, exact accounting, no stale epochs, no wedge, migrated-state
//! census). Every cell is derived from one root seed ([`cell_seed`]), so
//! any failure replays bit-for-bit with `soak --seed N`.
//!
//! The `soak` binary iterates the full matrix, then runs the
//! [`run_long_session`] cell (one engine, many 64-packet sessions), and
//! writes `results/BENCH_soak_matrix.json`; `tests/soak_smoke.rs` runs a
//! small slice of it in CI.

use nfp_dataplane::audit::{spawn_auditor, AuditConfig, EngineProbe, InvariantReport, SoakCounts};
use nfp_dataplane::chaos_schedule::{drive_swaps, ChaosScript, SwapLog};
use nfp_dataplane::{Dataplane, EngineConfig, EngineKind, EngineReport, EngineSpec};
use nfp_io::trace::{build_golden_pcap, GoldenTraceSpec};
use nfp_io::{Ingress, PcapIngress};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{compile, CompileOptions, Compiled, FailurePolicy, Program, Registry};
use nfp_packet::Packet;
use nfp_policy::Policy;
use nfp_traffic::{HostileGenerator, HostileSpec, SizeDistribution, TrafficGenerator, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::setups::make_nf;

/// The service chain every soak cell runs: the same hot-swappable
/// Monitor|Firewall pair the reconfig bench edits live.
pub const SOAK_CHAIN: [&str; 2] = ["Monitor", "Firewall"];

/// Traffic-profile axis of the matrix (see [`traffic_batch`]).
/// `pcap_replay` sits second so the `--smoke` slice (`[..2]`) always
/// covers both a generator profile and the trace-replay path.
pub const TRAFFIC_PROFILES: [&str; 4] = ["malformed", "pcap_replay", "syn_flood", "elephant_mice"];

/// Chaos-script axis of the matrix (see [`chaos_script`]). The
/// `scale_storm` column rescales the sharded fleet mid-run, migrating
/// per-flow NF state; on the sync and threaded engines (no fleet to
/// rescale) it degenerates to the quiet control cell.
pub const CHAOS_SCRIPTS: [&str; 4] = ["panic", "swap_storm", "combined", "scale_storm"];

/// Shard-count ceiling for scripted rescale storms. The soak engine
/// config keeps every per-shard pool ≥ `max_in_flight ×
/// slots_per_packet` up to this ceiling, so a scripted rescale is never
/// rejected for pool reasons.
pub const SCALE_MAX_SHARDS: usize = 4;

/// How long a scripted chaos stall blocks its NF. Kept under the engine's
/// soak `stall_timeout` so the stall exercises merge deadlines, not the
/// watchdog's failure path.
pub const CHAOS_STALL: Duration = Duration::from_millis(150);

/// Per-run knobs shared by every cell of one matrix sweep.
#[derive(Debug, Clone, Copy)]
pub struct SoakOptions {
    /// Packets injected per cell.
    pub packets: usize,
    /// Root seed; each cell derives its own sub-seed via [`cell_seed`].
    pub seed: u64,
}

impl Default for SoakOptions {
    fn default() -> Self {
        Self {
            packets: 4_000,
            seed: 0x50A6_50A6,
        }
    }
}

/// Derive the deterministic per-cell seed from the root seed and the
/// cell's matrix coordinates (FNV-1a over the axis labels). Keeping every
/// cell's RNG independent means a failure replays in isolation: rerunning
/// just that cell with the same root seed reproduces it bit-for-bit.
pub fn cell_seed(root: u64, traffic: &str, chaos: &str, engine: EngineKind) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ root;
    for byte in traffic
        .bytes()
        .chain([b'\x1f'])
        .chain(chaos.bytes())
        .chain([b'\x1f'])
        .chain(engine.label().bytes())
    {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Build one cell's traffic. Profiles:
///
/// * `"malformed"` — the standard data-center mix with 15 % of frames
///   corrupted in place ([`TrafficSpec::malformed_fraction`]): the
///   classifier-rejection path under otherwise normal load.
/// * `"pcap_replay"` — a seeded golden trace (deny tuples, IDS markers,
///   corrupted frames, snaplen-cut captures) written through the
///   classic-pcap codec and replayed back via [`PcapIngress`]: the whole
///   trace-replay admission path, capture timestamps included.
/// * `"syn_flood"` — spoofed-source minimum-size SYNs with a 5 % malformed
///   share: maximum flow churn, every packet a new 5-tuple.
/// * `"elephant_mice"` — 4 elephant flows carrying 70 % of packets over
///   512 mice: per-flow skew that concentrates load on single shards.
///
/// # Panics
/// On an unknown profile name.
pub fn traffic_batch(profile: &str, n: usize, seed: u64) -> Vec<Packet> {
    match profile {
        "malformed" => TrafficGenerator::new(TrafficSpec {
            flows: 64,
            sizes: SizeDistribution::datacenter(),
            malformed_fraction: 0.15,
            seed,
            ..TrafficSpec::default()
        })
        .batch(n),
        "pcap_replay" => {
            let spec = GoldenTraceSpec {
                packets: n,
                ..GoldenTraceSpec::mixed(seed)
            };
            let mut ingress =
                PcapIngress::from_bytes(build_golden_pcap(&spec)).expect("golden pcap parses");
            let mut out = Vec::with_capacity(n);
            while let Some(burst) = ingress.next_burst(64).expect("golden pcap replays") {
                out.extend(burst);
            }
            out
        }
        "syn_flood" => {
            let mut spec = HostileSpec::syn_flood(seed);
            spec.malformed_rate = 0.05;
            HostileGenerator::new(spec).batch(n)
        }
        "elephant_mice" => HostileGenerator::new(HostileSpec::elephant_mice(seed)).batch(n),
        other => panic!("unknown traffic profile `{other}`"),
    }
}

/// Build one cell's chaos script, seed-derived where the script is
/// randomized. Script names: `"quiet"`, `"panic"`, `"stall_deadline"`,
/// `"swap_storm"`, `"combined"`, `"scale_storm"`.
///
/// # Panics
/// On an unknown script name.
pub fn chaos_script(name: &str, nf_count: usize, total_packets: u64, seed: u64) -> ChaosScript {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    match name {
        "quiet" => ChaosScript::quiet(),
        "panic" => ChaosScript::panic_storm(nf_count, total_packets, &mut rng),
        "stall_deadline" => {
            ChaosScript::stall_deadline(nf_count, total_packets, CHAOS_STALL, &mut rng)
        }
        "swap_storm" => ChaosScript::swap_storm(total_packets, 5),
        "combined" => ChaosScript::combined(nf_count, total_packets, CHAOS_STALL, &mut rng),
        "scale_storm" => ChaosScript::scale_storm(total_packets, SCALE_MAX_SHARDS, &mut rng),
        other => panic!("unknown chaos script `{other}`"),
    }
}

fn compiled_variant(fail_open: bool) -> Compiled {
    let mut reg = Registry::paper_table2();
    if fail_open {
        let mut fw = reg.get("Firewall").expect("profile").clone();
        fw.failure = Some(FailurePolicy::FailOpen);
        reg.register(fw);
    }
    compile(
        &Policy::from_chain(SOAK_CHAIN),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .expect("soak chain compiles")
}

/// The epoch→program function every cell's swaps cycle through: even
/// epochs run the fail-closed Firewall, odd epochs the fail-open edit —
/// the canonical live policy edit from the reconfig bench, so each swap
/// lands mid-storm with real table differences.
pub fn program_variants() -> impl Fn(u64) -> Program + Clone + Send + 'static {
    let base = compiled_variant(false).program(1).expect("program seals");
    let edit = compiled_variant(true).program(1).expect("program seals");
    move |epoch: u64| {
        if epoch.is_multiple_of(2) {
            base.clone().with_epoch(epoch)
        } else {
            edit.clone().with_epoch(epoch)
        }
    }
}

fn soak_nfs() -> Vec<Box<dyn NetworkFunction>> {
    SOAK_CHAIN.iter().map(|name| make_nf(name)).collect()
}

fn soak_spec(probe: &Arc<EngineProbe>, kind: EngineKind) -> EngineSpec {
    let config = EngineConfig {
        max_in_flight: 32,
        // Fleet total; ShardedEngine divides per shard.
        pool_size: 256 * kind.shards(),
        mergers: 2,
        merge_deadline: Duration::from_millis(50),
        stall_timeout: Duration::from_millis(500),
        probe: Some(Arc::clone(probe)),
        ..EngineConfig::default()
    };
    EngineSpec { kind, config }
}

fn audit_config(script: &ChaosScript, config: &EngineConfig) -> AuditConfig {
    AuditConfig {
        interval: Duration::from_micros(500),
        // Progress may legitimately sit still for one watchdog recovery
        // plus the longest scripted stall; wedge only well past that.
        wedge_timeout: config.stall_timeout + script.max_stall() + Duration::from_secs(2),
    }
}

/// Outcome of one soak cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Traffic-profile axis label.
    pub traffic: String,
    /// Chaos-script axis label.
    pub chaos: String,
    /// Engine axis label.
    pub engine: &'static str,
    /// The cell's derived seed (replays this cell alone).
    pub seed: u64,
    /// Final flow counters.
    pub counts: SoakCounts,
    /// What the swap driver did.
    pub swaps: SwapLog,
    /// NF failures the engine recorded (scripted panics land here).
    pub nf_failures: usize,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Live-audit observations (sample count, peak pool occupancy).
    pub samples: u64,
    /// Highest pool occupancy the auditor saw.
    pub peak_pool_in_use: u64,
    /// The five-invariant verdict.
    pub invariants: InvariantReport,
}

impl CellResult {
    /// `traffic×chaos×engine` coordinate string.
    pub fn label(&self) -> String {
        format!("{}×{}×{}", self.traffic, self.chaos, self.engine)
    }

    /// True when all five invariants held.
    pub fn passed(&self) -> bool {
        self.invariants.all_hold()
    }
}

/// Run one cell of the soak matrix: build the traffic and chaos script
/// from the cell seed, execute on the requested engine with a live
/// auditor attached, and evaluate the five invariants.
///
/// Every engine publishes its own gauges through the probe. Live swaps
/// fire from a controller thread keyed on injected counts wherever the
/// engine has controllers; the sync engine has none, so its swaps — and
/// a fleet's rescales, which rebuild the fleet and need `&mut` access —
/// run inline: the stream is split at those points and each action runs
/// in the gap between two sessions, where nothing is in flight. (Scripts
/// never mix swap and rescale timelines, so the swap driver — which
/// treats an idle probe as end-of-run — never races a chunk boundary.)
pub fn run_cell(traffic: &str, chaos: &str, kind: EngineKind, opts: &SoakOptions) -> CellResult {
    let seed = cell_seed(opts.seed, traffic, chaos, kind);
    let packets = traffic_batch(traffic, opts.packets, seed);
    let script = chaos_script(chaos, SOAK_CHAIN.len(), packets.len() as u64, seed);
    let variants = program_variants();
    let probe = EngineProbe::new();
    let spec = soak_spec(&probe, kind);
    // A fleet keeps the factory to rebuild replicas on a rescale, so it
    // owns its copy of the script.
    let nf_script = script.clone();
    let mut engine = Dataplane::build(&spec, variants(0), move || nf_script.wrap_nfs(soak_nfs()))
        .expect("soak engine builds");
    let auditor = spawn_auditor(Arc::clone(&probe), audit_config(&script, &spec.config));
    let controllers = engine.controllers();
    let mut inline: Vec<(u64, Inline)> = Vec::new();
    if let Dataplane::Sharded(_) = engine {
        let scales = script.scale_points().into_iter();
        inline.extend(scales.map(|(at, n)| (at, Inline::Rescale(n))));
    }
    let driver = if controllers.is_empty() {
        inline.extend(
            script
                .swap_points()
                .into_iter()
                .map(|at| (at, Inline::Swap)),
        );
        None
    } else {
        Some(spawn_swap_driver(controllers, &probe, &script, &variants))
    };
    inline.sort_by_key(|&(at, _)| at);
    // Split the stream at each point (cumulative injected counts), each
    // chunk after the first behind the action that precedes it.
    let mut rest = packets;
    let mut chunks = Vec::new();
    for &(at, action) in inline.iter().rev() {
        let tail = rest.split_off((at as usize).min(rest.len()));
        chunks.push((Some(action), tail));
    }
    chunks.push((None, rest));

    let mut swaps = SwapLog::default();
    let mut total: Option<EngineReport> = None;
    let mut epochs = Vec::new();
    let start = Instant::now();
    for (action, chunk) in chunks.into_iter().rev() {
        let refused = match (action, &mut engine) {
            (Some(Inline::Swap), _) => {
                swaps.attempted += 1;
                match engine.reconfigure(variants(engine.epoch() + 1)) {
                    Ok(_) => {
                        swaps.completed += 1;
                        None
                    }
                    Err(e) => {
                        swaps.rejected += 1;
                        Some(format!("swap rejected: {e}"))
                    }
                }
            }
            (Some(Inline::Rescale(n)), Dataplane::Sharded(fleet)) => fleet
                .rescale(n)
                .err()
                .map(|e| format!("rescale rejected: {e}")),
            _ => None,
        };
        if let Some(msg) = refused.filter(|_| swaps.failures.len() < 16) {
            swaps.failures.push(msg);
        }
        if !chunk.is_empty() {
            let report = engine.run(chunk);
            // Epoch tallies are lifetime counts: the last report's are whole.
            epochs.clone_from(&report.epochs);
            match &mut total {
                Some(total) => total.absorb(report),
                None => total = Some(report),
            }
        }
    }
    let elapsed = start.elapsed();
    let mut report = total.expect("a soak cell injects packets");
    report.epochs = epochs;
    if let Some(driver) = driver {
        let driven = driver.join().expect("swap driver");
        swaps.attempted += driven.attempted;
        swaps.completed += driven.completed;
        swaps.rejected += driven.rejected;
        swaps.failures.extend(driven.failures);
    }
    let live = auditor.finish();
    let counts = SoakCounts::from_report(&report);
    let invariants = InvariantReport::evaluate(&counts, &live);
    CellResult {
        traffic: traffic.to_string(),
        chaos: chaos.to_string(),
        engine: kind.label(),
        seed,
        counts,
        swaps,
        nf_failures: report.failures.len(),
        elapsed,
        samples: live.samples,
        peak_pool_in_use: live.peak_pool_in_use,
        invariants,
    }
}

/// A scripted action run between two sessions of a soak cell.
#[derive(Debug, Clone, Copy)]
enum Inline {
    Swap,
    Rescale(usize),
}

/// Packets per session in the [`run_long_session`] cell — the chunk the
/// autoscaler and the chunked sharded cells feed an engine.
pub const LONG_SESSION_CHUNK: usize = 64;

/// Packets pushed before the [`run_long_session`] cell takes its RSS
/// baseline (allocator pools, ring and telemetry buffers all warm).
pub const LONG_SESSION_WARMUP: u64 = 10_000;

/// Most the resident set may grow past the warm-up baseline.
pub const LONG_SESSION_RSS_SLACK_KIB: u64 = 1024;

/// Outcome of the long-session cell: one engine, many short sessions.
#[derive(Debug, Clone)]
pub struct LongSessionResult {
    /// Packets pushed through the engine.
    pub packets: u64,
    /// Sessions run.
    pub sessions: u64,
    /// Packets delivered, summed over sessions.
    pub delivered: u64,
    /// Packets dropped (classifier rejects included), summed.
    pub dropped: u64,
    /// Resident set after the warm-up, KiB.
    pub rss_warm_kib: u64,
    /// Largest resident set seen after the warm-up, KiB.
    pub rss_peak_kib: u64,
    /// Wall-clock time of the whole cell.
    pub elapsed: Duration,
    /// Broken checks: a session that left pool slots held or did not
    /// account for every packet, or resident-set growth past the slack.
    pub violations: Vec<String>,
}

impl LongSessionResult {
    /// True when every session left the pool empty and balanced, and the
    /// resident set stayed flat.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Resident set size from `/proc/self/statm` (resident pages × 4 KiB
/// pages), or 0 where it cannot be read.
fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4)
}

/// The long-session soak cell: push `packets` through **one** threaded
/// engine in back-to-back [`LONG_SESSION_CHUNK`]-packet sessions of
/// malformed-share traffic. After every session the pool census must be
/// zero and the session must account for every packet; past the
/// [`LONG_SESSION_WARMUP`] the resident set may grow by at most
/// [`LONG_SESSION_RSS_SLACK_KIB`]. No live probe is attached: a probe
/// registers one gauge slot per session, which would grow by design.
pub fn run_long_session(packets: u64, seed: u64) -> LongSessionResult {
    let mut spec = soak_spec(&EngineProbe::new(), EngineKind::Threaded);
    spec.config.probe = None;
    let mut engine = Dataplane::build(&spec, program_variants()(0), soak_nfs).expect("engine");
    let mut traffic = TrafficGenerator::new(TrafficSpec {
        flows: 64,
        sizes: SizeDistribution::datacenter(),
        malformed_fraction: 0.15,
        seed,
        ..TrafficSpec::default()
    });
    let mut out = LongSessionResult {
        packets: 0,
        sessions: 0,
        delivered: 0,
        dropped: 0,
        rss_warm_kib: 0,
        rss_peak_kib: 0,
        elapsed: Duration::ZERO,
        violations: Vec::new(),
    };
    let start = Instant::now();
    while out.packets < packets {
        let n = LONG_SESSION_CHUNK.min((packets - out.packets) as usize);
        let report = engine.run(traffic.batch(n));
        out.packets += n as u64;
        out.sessions += 1;
        out.delivered += report.delivered;
        out.dropped += report.dropped;
        let balanced = report.injected == report.delivered + report.dropped;
        if (report.pool_in_use != 0 || !balanced) && out.violations.len() < 16 {
            out.violations.push(format!(
                "session {}: pool_in_use {}, injected {}, delivered {}, dropped {}",
                out.sessions, report.pool_in_use, report.injected, report.delivered, report.dropped
            ));
        }
        if out.packets >= LONG_SESSION_WARMUP {
            let rss = rss_kib();
            if out.rss_warm_kib == 0 {
                out.rss_warm_kib = rss;
            }
            out.rss_peak_kib = out.rss_peak_kib.max(rss);
        }
    }
    out.elapsed = start.elapsed();
    let growth = out.rss_peak_kib.saturating_sub(out.rss_warm_kib);
    if growth > LONG_SESSION_RSS_SLACK_KIB {
        out.violations.push(format!(
            "resident set grew {growth} KiB past the warm-up (slack {LONG_SESSION_RSS_SLACK_KIB} KiB)"
        ));
    }
    out
}

fn spawn_swap_driver(
    controllers: Vec<nfp_dataplane::EngineController>,
    probe: &Arc<EngineProbe>,
    script: &ChaosScript,
    variants: &(impl Fn(u64) -> Program + Clone + Send + 'static),
) -> std::thread::JoinHandle<SwapLog> {
    let probe = Arc::clone(probe);
    let points = script.swap_points();
    let variants = variants.clone();
    std::thread::spawn(move || drive_swaps(&controllers, &probe, &points, variants))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let a = cell_seed(7, "malformed", "panic", EngineKind::Sync);
        let b = cell_seed(7, "malformed", "panic", EngineKind::Threaded);
        let c = cell_seed(7, "syn_flood", "panic", EngineKind::Sync);
        let d = cell_seed(8, "malformed", "panic", EngineKind::Sync);
        assert_eq!(a, cell_seed(7, "malformed", "panic", EngineKind::Sync));
        assert!(a != b && a != c && a != d);
    }

    #[test]
    fn traffic_profiles_build_and_are_deterministic() {
        for profile in TRAFFIC_PROFILES {
            let a = traffic_batch(profile, 50, 11);
            let b = traffic_batch(profile, 50, 11);
            assert_eq!(a.len(), 50);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.data(), y.data(), "{profile} not deterministic");
            }
        }
    }

    #[test]
    fn chaos_scripts_build() {
        for name in CHAOS_SCRIPTS {
            let s = chaos_script(name, SOAK_CHAIN.len(), 1_000, 3);
            assert_eq!(s.name, name);
        }
        assert!(chaos_script("quiet", 2, 100, 0).actions.is_empty());
    }

    #[test]
    fn sharded_scale_cell_migrates_state_and_balances_census() {
        let opts = SoakOptions {
            packets: 600,
            seed: 2,
        };
        let cell = run_cell(
            "elephant_mice",
            "scale_storm",
            EngineKind::Sharded(2),
            &opts,
        );
        assert!(cell.passed(), "{:?}", cell.invariants.violations);
        assert_eq!(cell.counts.injected, 600);
        assert!(cell.counts.rescales >= 3, "{:?}", cell.counts);
        // The Monitor accumulates per-flow state, so every rescale
        // migrates real entries and the census must balance exactly.
        assert!(cell.counts.flows_exported > 0, "{:?}", cell.counts);
        assert_eq!(cell.counts.flows_exported, cell.counts.flows_imported);
        assert!(cell.invariants.migration_census);
    }

    #[test]
    fn long_session_cell_accounts_every_session() {
        // The resident-set bound is the bin's to judge: other tests in
        // this binary allocate concurrently.
        let r = run_long_session(LONG_SESSION_WARMUP + 2_000, 5);
        assert_eq!(r.packets, LONG_SESSION_WARMUP + 2_000);
        assert_eq!(r.sessions, r.packets.div_ceil(LONG_SESSION_CHUNK as u64));
        assert_eq!(r.delivered + r.dropped, r.packets);
        assert!(r.dropped > 0, "the malformed share must reject");
        assert!(r.rss_warm_kib > 0 && r.rss_peak_kib >= r.rss_warm_kib);
        assert!(
            r.violations.iter().all(|v| v.starts_with("resident")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn sync_cell_holds_invariants() {
        let opts = SoakOptions {
            packets: 400,
            seed: 1,
        };
        let cell = run_cell("malformed", "swap_storm", EngineKind::Sync, &opts);
        assert!(cell.passed(), "{:?}", cell.invariants.violations);
        assert!(cell.counts.rejected > 0, "malformed share must reject");
        assert!(cell.swaps.attempted > 0);
    }
}
