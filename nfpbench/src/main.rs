//! The NFP dataplane benchmark.
//!
//! ```text
//! nfpbench --workload <fw64|north_south|east_west_pcap|sessions64>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs in one process; load is injected from the caller
//! thread in a closed loop, as the engines' `run`/`run_io` entry points
//! do. Each run checks every repetition's output against the sequential
//! `RunToCompletion` chain and prints, as its last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` measures the end-to-end metrics: saturated rate of the
//!   three engines (closed loop, 64 packets in flight), the threaded
//!   engine's unloaded latency (window 1) and set-up time, interleaved
//!   round-robin for `--seconds` and reported as medians over the
//!   repetitions.
//! * `--trace 1` measures the per-layer metrics: standalone layer costs,
//!   traced runs (timing wrappers around NFs and I/O, the entry call as
//!   root span) next to untraced ones, and a per-engine ledger whose
//!   terms must add back up to the end-to-end CPU cost per packet.
//!
//! The exit code is non-zero when any output differs from the
//! reference, an invariant breaks, or a ledger fails its self-check.

mod engines;
mod layers;
mod ledger;
mod stats;
mod trace;
mod workload;

use engines::{failed_packets, run_rep, Kind, RepOutcome};
use ledger::{Ledger, Term};
use nfp_dataplane::stats::{EngineStats, StageSnapshot};
use nfp_dataplane::{host_parallelism, Engine, EngineConfig, TelemetrySnapshot};
use nfp_packet::Packet;
use stats::median;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Built, Input, Reference, Workload};

/// The seed later changes use to confirm a claimed gain; no tuning is
/// done on it.
const HELD_OUT_SEED: u64 = 9_001;

/// Round-robin cycles every run completes, however short `--seconds`.
const MIN_CYCLES: usize = 3;

/// Salt deriving the latency input's seed from the run's seed.
const LATENCY_SALT: u64 = 0x1a7e_0c70;

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Inputs and references shared by every repetition of one run.
struct Prepared {
    w: &'static Workload,
    built: Built,
    input: Input,
    latency_input: Input,
    /// Reference per shard count (index 0: one shard).
    refs: Vec<Reference>,
    latency_ref: Reference,
    /// A frame the chain delivers: set-up ends when it comes out.
    first_frame: Packet,
}

fn prepare(w: &'static Workload, seed: u64) -> Prepared {
    let built = workload::build(&w.policy_text());
    let input = workload::generate(w.traffic, w.rep_packets, seed);
    let latency_input = workload::generate(w.traffic, w.latency_packets, seed ^ LATENCY_SALT);
    let refs = (1..=engines::SHARDS)
        .map(|s| workload::reference(w.chain, &built.program, &input.frames, s))
        .collect();
    let latency_ref = workload::reference(w.chain, &built.program, &latency_input.frames, 1);
    let first_frame = input
        .frames
        .iter()
        .find(|f| {
            workload::reference(w.chain, &built.program, std::slice::from_ref(*f), 1)
                .delivered
                .len()
                == 1
        })
        .expect("the workload delivers some frame")
        .clone();
    Prepared {
        w,
        built,
        input,
        latency_input,
        refs,
        latency_ref,
        first_frame,
    }
}

/// Packets attempted and failed across every check of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, out: &RepOutcome, r: &Reference) {
        let failed = failed_packets(out, r);
        self.attempted += out.offered;
        self.failed += failed;
        if failed > 0 && self.notes.len() < 8 {
            self.notes.push(format!(
                "{what}: {failed} of {} packets differ from the reference; {:?}",
                out.offered, out.violations
            ));
        }
    }
}

/// One set-up: policy text → compile → seal → NF instances → threaded
/// `Engine::new` → one-packet run. Returns (compile, build, first run).
fn setup_rep(p: &Prepared, tally: &mut Tally) -> [Duration; 3] {
    let pkt = p.first_frame.clone();
    let t0 = Instant::now();
    let built = workload::build(&p.w.policy_text());
    let t1 = Instant::now();
    let nfs = workload::make_nfs(&built.names);
    let mut engine = Engine::new(built.program, nfs, EngineConfig::default())
        .expect("engine builds under the default config");
    let t2 = Instant::now();
    let report = engine.run(vec![pkt]);
    let t3 = Instant::now();
    tally.attempted += 1;
    if report.delivered != 1 || report.pool_in_use != 0 || !report.failures.is_empty() {
        tally.failed += 1;
        tally
            .notes
            .push("set-up run did not deliver its packet".into());
    }
    [t1 - t0, t2 - t1, t3 - t2]
}

/// The latency loop runs the workload's chain and frames as single runs:
/// the 64-packet session pattern only matters under a saturated window.
fn latency_workload(w: &Workload) -> Workload {
    Workload {
        session: None,
        ..w.clone()
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

/// A facts record printed before the result line.
struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    fn put(&mut self, k: &str, v: impl std::fmt::Display) {
        self.fields.push((k.to_string(), v.to_string()));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"record\": {{{}}}}}", body.join(", "))
    }
}

fn total_copies(s: &EngineStats) -> u64 {
    s.stages().map(|(_, st)| st.copies).sum()
}

/// `--trace 0`: end-to-end metrics.
fn measure_end_to_end(p: &Prepared, seconds: u64, tally: &mut Tally, rec: &mut Record) -> Metrics {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let lat_w = latency_workload(p.w);
    let mut mpps: [Vec<f64>; 3] = Default::default();
    let (mut p50, mut p99, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lat_samples, mut lat_min_rep) = (0usize, usize::MAX);
    let (mut copies, mut copied_over) = (0u64, 0u64);
    let mut cycles = 0;
    while cycles < MIN_CYCLES || Instant::now() < deadline {
        setup.push(setup_rep(p, tally).iter().sum::<Duration>().as_secs_f64());
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let out = run_rep(kind, p.w, &p.built, &p.input, kind.window(), None);
            tally.check(kind.label(), &out, &p.refs[kind.shards() - 1]);
            mpps[i].push(out.mpps());
            if let Some(s) = &out.stats {
                copies += total_copies(s);
                copied_over += out.offered;
            }
        }
        let out = run_rep(Kind::Threaded, &lat_w, &p.built, &p.latency_input, 1, None);
        tally.check("threaded window-1", &out, &p.latency_ref);
        for l in &out.latency {
            p50.push(l.p50.as_secs_f64() * 1e6);
            p99.push(l.p99.as_secs_f64() * 1e6);
            lat_samples += l.count;
            lat_min_rep = lat_min_rep.min(l.count);
        }
        cycles += 1;
    }
    rec.put("cycles", cycles);
    rec.put("latency_samples", lat_samples);
    rec.put("latency_samples_per_rep_min", lat_min_rep);
    rec.put("latency_samples_beyond_p99_per_rep_min", lat_min_rep / 100);
    let correct_frac = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    vec![
        ("sync.mpps".into(), median(&mut mpps[0]), "Mpps"),
        ("threaded.mpps".into(), median(&mut mpps[1]), "Mpps"),
        ("sharded2.mpps".into(), median(&mut mpps[2]), "Mpps"),
        ("threaded.lat_p50_us".into(), median(&mut p50), "us"),
        ("threaded.lat_p99_us".into(), median(&mut p99), "us"),
        (
            "buffers_per_pkt".into(),
            1.0 + copies as f64 / copied_over.max(1) as f64,
            "buf/pkt",
        ),
        ("correct_frac".into(), correct_frac, "frac"),
        ("setup_s".into(), median(&mut setup), "s"),
    ]
}

/// Traced or untraced repetitions of one engine, accumulated.
#[derive(Default)]
struct Side {
    wall_s: f64,
    cpu_s: f64,
    pkts: u64,
    stats: Option<EngineStats>,
    sync_stats: Option<StageSnapshot>,
    telemetry: Option<TelemetrySnapshot>,
}

impl Side {
    fn absorb(&mut self, out: &RepOutcome) {
        self.wall_s += out.elapsed.as_secs_f64();
        self.cpu_s += out.cpu_s;
        self.pkts += out.offered;
        if let Some(s) = &out.stats {
            match &mut self.stats {
                Some(acc) => acc.merge(s),
                None => self.stats = Some(s.clone()),
            }
        }
        if let Some(s) = &out.sync_stats {
            match &mut self.sync_stats {
                Some(acc) => acc.absorb(s),
                None => self.sync_stats = Some(*s),
            }
        }
        match &mut self.telemetry {
            Some(acc) => acc.merge(&out.telemetry),
            None => self.telemetry = Some(out.telemetry.clone()),
        }
    }

    fn ns_per_pkt(&self) -> f64 {
        self.wall_s * 1e9 / self.pkts as f64
    }

    /// Telemetry (count, sum ns) of one stage group.
    fn stage_group(&self, group: &str) -> (u64, u64) {
        let Some(t) = &self.telemetry else {
            return (0, 0);
        };
        t.stages
            .iter()
            .filter(|s| s.label.trim_end_matches(|c: char| c.is_ascii_digit()) == group)
            .fold((0, 0), |(c, n), s| (c + s.hist.count, n + s.hist.sum_ns))
    }
}

/// I/O cost per packet moved and packets moved per offered packet.
fn io_term(name: &str, t: &Tracer, offered: f64) -> Term {
    let c = t.counts(name);
    if c.packets == 0 {
        return Term::new(name, 0.0, 0.0);
    }
    Term::new(
        name,
        c.sampled_ns as f64 / c.packets as f64,
        c.packets as f64 / offered,
    )
}

/// One engine's ledger over its traced repetitions. The terms are the
/// engine's own stage timers (telemetry histogram sums), charged per
/// visit with visits from `EngineReport.stats`, plus the I/O wrappers'
/// spans. The base is the thread time serving the run: wall time × the
/// threads that run stages, inject or front the run. Every term is time
/// one of those threads spent inside a timed call within the entry
/// call, and a thread's timed calls never overlap, so the terms cannot
/// exceed the base; the leftover is handoff, ring waits, idling,
/// waiting for a core and untimed glue.
fn ledger_for(kind: Kind, traced: &Side, t: &Tracer, p: &Prepared) -> Ledger {
    let n = traced.pkts as f64;
    let hist = |label: &str| {
        traced
            .telemetry
            .as_ref()
            .and_then(|t| t.stage(label))
            .map_or((0, 0), |s| (s.hist.count, s.hist.sum_ns))
    };
    // The sync engine keeps one folded counter set; its per-stage visits
    // are its stage timers' counts (one per call).
    let visits = |label: &str, counted: Option<u64>| counted.unwrap_or(hist(label).0);
    let term = |name: String, labels: &[String], visits: u64| {
        let sum: u64 = labels.iter().map(|l| hist(l).1).sum();
        let cost = if visits == 0 {
            0.0
        } else {
            sum as f64 / visits as f64
        };
        Term::new(name, cost, visits as f64 / n)
    };
    let st = traced.stats.as_ref();
    let merger_labels: Vec<String> = (0..EngineConfig::default().mergers)
        .map(|m| format!("merger{m}"))
        .collect();
    let merger_visits: u64 = match st {
        Some(s) => s.mergers.iter().map(|m| m.packets_in).sum(),
        None => merger_labels.iter().map(|l| hist(l).0).sum(),
    };
    let mut terms = vec![
        io_term("io.read", t, n),
        io_term("io.write", t, n),
        term(
            "classifier".into(),
            &["classifier".into()],
            visits("classifier", st.map(|s| s.classifier.packets_in)),
        ),
    ];
    for (i, name) in p.built.names.iter().enumerate() {
        let label = format!("nf{i}");
        let v = visits(&label, st.map(|s| s.nfs[i].packets_in));
        terms.push(term(format!("nf.{name}"), &[label], v));
    }
    terms.extend([
        term(
            "agent".into(),
            &["agent".into()],
            visits("agent", st.map(|s| s.agent.packets_in)),
        ),
        term("merger".into(), &merger_labels, merger_visits),
        term(
            "collector".into(),
            &["collector".into()],
            visits("collector", st.map(|s| s.collector.packets_in)),
        ),
    ]);
    let threads = kind.serving_threads(p.built.names.len()) as f64;
    Ledger::new(kind.label(), traced.wall_s * threads * 1e9 / n, terms)
}

/// `--trace 1`: per-layer metrics and the ledgers.
fn measure_layers(
    p: &Prepared,
    seconds: u64,
    tally: &mut Tally,
    rec: &mut Record,
) -> (Metrics, Vec<Ledger>, Vec<Arc<Tracer>>) {
    let mut meter = layers::LayerMeter::new(&p.built, &p.input.frames);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let tracers: Vec<Arc<Tracer>> = Kind::ALL.iter().map(|_| Tracer::new()).collect();
    let mut untraced: [Side; 3] = Default::default();
    let mut traced: [Side; 3] = Default::default();
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || Instant::now() < deadline {
        for (i, d) in setup_rep(p, tally).iter().enumerate() {
            parts[i].push(d.as_secs_f64() * 1e6);
        }
        meter.pass();
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let r = &p.refs[kind.shards() - 1];
            // Alternate which side runs first.
            for traced_first in [cycles % 2 == 0, cycles % 2 == 1] {
                let tracer = traced_first.then_some(&tracers[i]);
                let out = run_rep(kind, p.w, &p.built, &p.input, kind.window(), tracer);
                tally.check(kind.label(), &out, r);
                let side = if traced_first {
                    &mut traced[i]
                } else {
                    &mut untraced[i]
                };
                side.absorb(&out);
            }
        }
        cycles += 1;
    }
    rec.put("cycles", cycles);
    let s = meter.standalone();

    let mut m: Metrics = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put("io.read_ns_per_pkt", s.codec_read_ns, "ns");
    put("io.write_ns_per_pkt", s.codec_write_ns, "ns");
    put("orchestrator.compile_us", median(&mut parts[0]), "us");
    put("engine.new_us", median(&mut parts[1]), "us");
    put("engine.spinup_us", median(&mut parts[2]), "us");
    put("classifier.admit_ns_per_pkt", s.classifier_ns, "ns");
    put("classifier.reject_frac", s.reject_frac, "frac");
    for (nf, (ns, drop_frac)) in ledger::NF_TYPES.iter().zip(s.nf_body) {
        put(&format!("nf.{nf}.ns_per_pkt"), ns, "ns");
        put(&format!("nf.{nf}.drop_frac"), drop_frac, "frac");
    }
    // In-run NF body time per offered packet, from the traced wrappers.
    let body_ns: f64 = tracers
        .iter()
        .flat_map(|t| p.built.names.iter().map(|n| t.counts(&format!("nf.{n}"))))
        .map(|c| c.mean_ns() * c.calls as f64)
        .sum();
    let traced_pkts: u64 = traced.iter().map(|t| t.pkts).sum();
    put("nf.body_ns_per_pkt", body_ns / traced_pkts as f64, "ns");
    put("pool.header_copy_ns", s.header_copy_ns, "ns");
    put("pool.insert_release_ns", s.insert_release_ns, "ns");
    put("merger.merge_ns", s.merger_ns, "ns");
    put("merger.merges_per_pkt", s.merges_per_pkt, "1/pkt");
    put("merger.nil_per_pkt", s.nil_per_pkt, "1/pkt");
    put("agent.route_ns_per_pkt", s.agent_ns, "ns");
    put("collector.collect_ns_per_pkt", s.collector_ns, "ns");
    put("ring.hop_ns", s.hop_ns, "ns");
    put("ring.xthread_hop_ns", s.xthread_hop_ns, "ns");

    let host = host_parallelism() as f64;
    let mut ledgers = Vec::new();
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let e = kind.label();
        let l = ledger_for(kind, &traced[i], &tracers[i], p);
        let u = &untraced[i];
        put(&format!("{e}.thread_ns_per_pkt"), l.total_ns, "ns");
        put(&format!("{e}.leftover_ns_per_pkt"), l.leftover_ns, "ns");
        put(
            &format!("{e}.cpu_busy_frac"),
            u.cpu_s / (u.wall_s * host),
            "frac",
        );
        put(
            &format!("{e}.stage_threads"),
            kind.stage_threads(p.built.names.len()) as f64,
            "count",
        );
        put(
            &format!("{e}.trace_overhead_pct"),
            100.0 * (traced[i].ns_per_pkt() / u.ns_per_pkt() - 1.0),
            "%",
        );
        for g in ledger::STAGE_GROUPS {
            let (count, sum) = u.stage_group(g);
            put(
                &format!("{e}.stage.{g}.mean_ns"),
                ratio(sum as f64, count as f64),
                "ns",
            );
        }
        if let Some(st) = &u.stats {
            let bp: u64 = st.stages().map(|(_, x)| x.backpressure).sum();
            put(
                &format!("{e}.backpressure"),
                1e3 * bp as f64 / u.pkts as f64,
                "1/kpkt",
            );
            let hw = |xs: &mut dyn Iterator<Item = &StageSnapshot>| {
                xs.map(|x| x.ring_high_water).max().unwrap_or(0) as f64
            };
            put(
                &format!("{e}.ring.high_water.classifier"),
                hw(&mut std::iter::once(&st.classifier)),
                "count",
            );
            put(
                &format!("{e}.ring.high_water.nf"),
                hw(&mut st.nfs.iter()),
                "count",
            );
            put(
                &format!("{e}.ring.high_water.agent"),
                hw(&mut std::iter::once(&st.agent)),
                "count",
            );
            put(
                &format!("{e}.ring.high_water.merger"),
                hw(&mut st.mergers.iter()),
                "count",
            );
            put(
                &format!("{e}.ring.high_water.collector"),
                hw(&mut std::iter::once(&st.collector)),
                "count",
            );
        }
        ledgers.push(l);
    }
    (m, ledgers, tracers)
}

/// Every catalogue metric present exactly once, finite; returns the
/// problems found.
fn check_catalogue(m: &Metrics, want: &[ledger::MetricDef]) -> Vec<String> {
    let mut errs = Vec::new();
    let got: BTreeMap<&str, (f64, &str)> =
        m.iter().map(|(n, v, u)| (n.as_str(), (*v, *u))).collect();
    for (name, unit) in want {
        match got.get(name.as_str()) {
            None => errs.push(format!("metric {name} missing")),
            Some((v, u)) if !v.is_finite() || u != unit => {
                errs.push(format!("metric {name} = {v} {u}"))
            }
            _ => {}
        }
    }
    if got.len() != want.len() || m.len() != want.len() {
        errs.push(format!(
            "{} metrics printed, {} expected",
            m.len(),
            want.len()
        ));
    }
    errs
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: nfpbench --workload <fw64|north_south|east_west_pcap|sessions64> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let p = prepare(w, args.seed);
    let mut tally = Tally::default();
    let mut rec = Record { fields: Vec::new() };
    rec.put("workload", format!("\"{}\"", w.name));
    rec.put("graph", format!("\"{}\"", p.built.graph));
    rec.put("seed", args.seed);
    rec.put("held_out_seed", HELD_OUT_SEED);
    rec.put("seconds", args.seconds);
    rec.put("trace", u8::from(args.trace));
    let host = host_parallelism();
    let budget = EngineConfig::default().core_budget;
    rec.put("host_parallelism", host);
    rec.put("core_budget", budget);
    let threads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| {
            format!(
                "\"{}\": {}",
                k.label(),
                k.stage_threads(p.built.names.len())
            )
        })
        .collect();
    rec.put("stage_threads", format!("{{{}}}", threads.join(", ")));
    let oversubscribed = Kind::ALL
        .iter()
        .any(|k| k.stage_threads(p.built.names.len()) > host);
    rec.put("oversubscribed", oversubscribed);
    rec.put("loop", "\"closed\"");
    let windows: Vec<String> = Kind::ALL
        .iter()
        .map(|k| format!("\"{}\": {}", k.label(), k.window()))
        .collect();
    rec.put(
        "window",
        format!("{{{}, \"threaded_latency\": 1}}", windows.join(", ")),
    );
    rec.put("rep_packets", w.rep_packets);
    rec.put("session_packets", w.session.unwrap_or(w.rep_packets));
    rec.put("latency_packets", w.latency_packets);
    println!(
        "nfpbench {} seed {} ({} s, trace {}): graph {}, host {} cpus, core budget {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        p.built.graph,
        host,
        budget
    );

    let mut errors = Vec::new();
    let metrics = if args.trace {
        let (m, ledgers, tracers) = measure_layers(&p, args.seconds, &mut tally, &mut rec);
        for l in &ledgers {
            print!("{}", l.render());
            if let Err(e) = l.check() {
                errors.push(e);
            }
        }
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("spans")));
        for (kind, t) in Kind::ALL.iter().zip(&tracers) {
            if let Some(dir) = &dir {
                let path = dir.join(format!("{}-{}.tsv", w.name, kind.label()));
                match t.write_tsv(&path) {
                    Ok(()) => println!(
                        "spans: {} ({} beyond the cap not kept)",
                        path.display(),
                        t.dropped()
                    ),
                    Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
                }
            }
        }
        errors.extend(check_catalogue(&m, &ledger::per_layer()));
        m
    } else {
        let m = measure_end_to_end(&p, args.seconds, &mut tally, &mut rec);
        errors.extend(check_catalogue(&m, &ledger::end_to_end()));
        m
    };
    errors.extend(tally.notes.iter().cloned());
    for (name, v, unit) in &metrics {
        println!("  {name:<40} {v:>14.4} {unit}");
    }
    for e in &errors {
        eprintln!("error: {e}");
    }
    rec.put("errors", errors.len());
    println!("{}", rec.json());

    let correct = tally.failed == 0 && errors.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
