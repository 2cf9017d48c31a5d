//! `nfp` — command-line front end for the NFP orchestrator.
//!
//! ```text
//! nfp census [--uniform]          the §4.3 parallelizability statistics
//! nfp check   <policy-file>       parse + conflict-check a policy
//! nfp compile <policy-file>       compile a policy into a service graph
//!             [--sequential]     …without parallelization (baseline)
//!             [--no-dirty-reuse] …with OP#1 disabled
//!             [--tables]         …and print the generated runtime tables
//! nfp telemetry <policy-file>     run synthetic traffic through the graph
//!             [--packets=N]      …N packets (default 1000)
//!             [--trace-every=N]  …trace-sample every Nth packet (default 100)
//!             [--prometheus]     …emit Prometheus text instead of JSON
//! nfp replay  <policy-file>       replay a classic-pcap trace through the graph
//!             --pcap=<in.pcap>   …the trace to replay (required)
//!             [--pcap-out=<f>]   …write delivered packets to a pcap file
//!             [--engine=E]       …sync (default) | threaded | sharded
//!             [--shards=N]       …fleet width for --engine=sharded (default 2)
//! ```
//!
//! Policies use the paper's §3 syntax (see `examples/policy_playground.rs`);
//! NF names resolve against the built-in Table 2 registry.

use nfp_core::orchestrator::census::{census, Weighting};
use nfp_core::prelude::*;
use nfp_core::sim::overhead;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value = |name: &str| args.iter().find_map(|a| a.strip_prefix(name));
    let number =
        |name: &str, default: u64| value(name).and_then(|v| v.parse().ok()).unwrap_or(default);
    let files: Vec<&str> = (args.iter().skip(1))
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    match (args.first().map(String::as_str), files.first()) {
        (Some("census"), _) => cmd_census(has("--uniform")),
        (Some("check"), Some(path)) => cmd_check(path),
        (Some("compile"), Some(path)) => cmd_compile(
            path,
            has("--sequential"),
            has("--no-dirty-reuse"),
            has("--tables"),
        ),
        (Some("telemetry"), Some(path)) => cmd_telemetry(
            path,
            number("--packets=", 1000),
            number("--trace-every=", 100),
            has("--prometheus"),
        ),
        (Some("replay"), Some(path)) => match value("--pcap=") {
            Some(pcap) => cmd_replay(
                path,
                pcap,
                value("--pcap-out="),
                value("--engine=").unwrap_or("sync"),
                number("--shards=", 2).max(1) as usize,
            ),
            None => usage("replay needs a policy file and --pcap=<in.pcap>"),
        },
        (Some(cmd @ ("check" | "compile" | "telemetry" | "replay")), None) => {
            usage(&format!("{cmd} needs a policy file"))
        }
        (Some("--help") | Some("-h") | None, _) => usage(""),
        (Some(other), _) => usage(&format!("unknown command `{other}`")),
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage:\n  nfp census [--uniform]\n  nfp check <policy-file>\n  \
         nfp compile <policy-file> [--sequential] [--no-dirty-reuse] [--tables]\n  \
         nfp telemetry <policy-file> [--packets=N] [--trace-every=N] [--prometheus]\n  \
         nfp replay <policy-file> --pcap=<in.pcap> [--pcap-out=<f>] [--engine=sync|threaded|sharded] [--shards=N]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_census(uniform: bool) -> ExitCode {
    let weighting = if uniform {
        Weighting::Uniform
    } else {
        Weighting::DeploymentShare
    };
    let r = census(&Registry::paper_table2(), weighting, Default::default());
    println!(
        "{weighting:?} census over Table 2: parallelizable {:.1}%, no-copy {:.1}%, with-copy {:.1}%",
        r.parallelizable * 100.0,
        r.no_copy * 100.0,
        r.with_copy * 100.0
    );
    if !uniform {
        println!("paper §4.3 reports: 53.8% / 41.5% / 12.3%");
    }
    ExitCode::SUCCESS
}

fn read_policy(path: &str) -> Result<Policy, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::from(1)
    })?;
    parse_policy(&text).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })
}

fn cmd_check(path: &str) -> ExitCode {
    let policy = match read_policy(path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let conflicts = nfp_core::policy::check_conflicts(&policy);
    if conflicts.is_empty() {
        println!("ok: {} rules, no conflicts", policy.len());
        ExitCode::SUCCESS
    } else {
        for c in &conflicts {
            eprintln!("conflict: {c}");
        }
        ExitCode::from(1)
    }
}

/// Instantiate a concrete NF for a Table 2 type name (the same set the
/// cross-crate property tests replay).
fn instantiate(name: &str) -> Option<Box<dyn NetworkFunction>> {
    use nfp_core::nf::extra;
    use nfp_core::nf::*;
    Some(match name {
        "Monitor" => Box::new(monitor::Monitor::new(name)),
        "Firewall" => Box::new(firewall::Firewall::with_synthetic_acl(name, 100)),
        "LoadBalancer" => Box::new(lb::LoadBalancer::with_uniform_backends(name, 4)),
        "IDS" | "NIDS" => Box::new(ids::Ids::with_synthetic_signatures(
            name,
            50,
            ids::IdsMode::Inline,
        )),
        "VPN" => Box::new(vpn::Vpn::new(name, [1; 16], 5, vpn::VpnMode::Encapsulate)),
        "Proxy" => Box::new(extra::Proxy::new(
            name,
            nfp_core::packet::ipv4::Ipv4Addr::new(10, 0, 0, 99),
            nfp_core::packet::ipv4::Ipv4Addr::new(10, 50, 0, 1),
        )),
        "Compression" => Box::new(extra::Compression::new(
            name,
            extra::CompressionMode::Compress,
        )),
        "Gateway" => Box::new(extra::Gateway::new(name)),
        "Caching" => Box::new(extra::Caching::new(name, 64)),
        _ => return None,
    })
}

/// Compile the policy at `path` against the Table 2 registry.
fn compile_policy(path: &str, opts: &CompileOptions) -> Result<Compiled, ExitCode> {
    let policy = read_policy(path)?;
    compile(&policy, &Registry::paper_table2(), &[], opts).map_err(|e| {
        eprintln!("compile error: {e}");
        ExitCode::from(1)
    })
}

fn seal(compiled: &Compiled) -> Result<Program, ExitCode> {
    compiled.program(1).map_err(|e| {
        eprintln!("program seal error: {e}");
        ExitCode::from(1)
    })
}

/// Builds one NF instance per graph node, in `NodeId` order.
type NfFactory = Box<dyn Fn() -> Vec<Box<dyn NetworkFunction>> + Send>;

/// Compile and seal the policy at `path` for running: its program, the
/// graph's description, and a factory for its NF instances (every NF is
/// checked for a runnable implementation here, once).
fn load(path: &str) -> Result<(Program, String, NfFactory), ExitCode> {
    let compiled = compile_policy(path, &CompileOptions::default())?;
    let program = seal(&compiled)?;
    let names: Vec<String> = compiled
        .graph
        .nodes
        .iter()
        .map(|n| n.name.as_str().to_string())
        .collect();
    if let Some(n) = names.iter().find(|n| instantiate(n).is_none()) {
        eprintln!("error: no runnable implementation for NF `{n}`");
        return Err(ExitCode::from(1));
    }
    let make_nfs = move || names.iter().filter_map(|n| instantiate(n)).collect();
    Ok((program, compiled.graph.describe(), Box::new(make_nfs)))
}

fn cmd_telemetry(path: &str, packets: u64, trace_every: u64, prometheus: bool) -> ExitCode {
    let (program, _, make_nfs) = match load(path) {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };
    let spec = EngineSpec {
        kind: EngineKind::Sync,
        config: EngineConfig {
            pool_size: 256,
            telemetry: TelemetryConfig {
                histograms: true,
                trace_every,
                trace_capacity: 4096,
            },
            ..EngineConfig::default()
        },
    };
    let mut engine = Dataplane::build(&spec, program, make_nfs).expect("a sync engine builds");
    let pkts = (0..packets)
        .map(|i| {
            nfp_core::traffic::gen::build_tcp_frame(
                nfp_core::packet::ipv4::Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                nfp_core::packet::ipv4::Ipv4Addr::new(10, 99, 0, 1),
                (1024 + (i % 1000)) as u16,
                443,
                b"telemetry probe",
            )
        })
        .collect();
    let snap = engine.run(pkts).telemetry;
    if prometheus {
        print!("{}", snap.to_prometheus());
    } else {
        print!("{}", snap.to_json());
    }
    ExitCode::SUCCESS
}

fn cmd_replay(
    path: &str,
    pcap_in: &str,
    pcap_out: Option<&str>,
    engine: &str,
    shards: usize,
) -> ExitCode {
    use nfp_core::io::{Egress, NullEgress, PcapEgress, PcapFormat, PcapIngress};

    let kind = match engine {
        "sync" => EngineKind::Sync,
        "threaded" => EngineKind::Threaded,
        "sharded" => EngineKind::Sharded(shards),
        other => return usage(&format!("unknown engine `{other}`")),
    };
    let (program, graph, make_nfs) = match load(path) {
        Ok(loaded) => loaded,
        Err(code) => return code,
    };
    let mut ingress = match PcapIngress::open(pcap_in) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: cannot open {pcap_in}: {e}");
            return ExitCode::from(1);
        }
    };
    let mut egress: Box<dyn Egress> = match pcap_out {
        Some(out) => match PcapEgress::create(out, PcapFormat::default()) {
            Ok(e) => Box::new(e),
            Err(e) => {
                eprintln!("error: cannot create {out}: {e}");
                return ExitCode::from(1);
            }
        },
        None => Box::new(NullEgress::new()),
    };

    let defaults = EngineConfig::default();
    let spec = EngineSpec {
        kind,
        config: EngineConfig {
            // A fleet splits its pool across its shards.
            pool_size: defaults.pool_size * kind.shards(),
            ..defaults
        },
    };
    let start = std::time::Instant::now();
    let mut dataplane = match Dataplane::build(&spec, program, make_nfs) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("engine error: {e}");
            return ExitCode::from(1);
        }
    };
    let io = dataplane.run_io(&mut ingress, egress.as_mut());
    let elapsed = start.elapsed();

    match io {
        Ok((_, io)) => {
            println!(
                "replayed {pcap_in} through {graph} [{engine}]: pulled {} delivered {} \
                 dropped {} rejected {} in {:.3}s ({:.0} pps)",
                io.pulled,
                io.delivered,
                io.dropped,
                io.rejected,
                elapsed.as_secs_f64(),
                io.pulled as f64 / elapsed.as_secs_f64().max(1e-9)
            );
            if let Some(out) = pcap_out {
                println!("wrote {} delivered packet(s) to {out}", io.delivered);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay error: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_compile(path: &str, sequential: bool, no_dirty_reuse: bool, show_tables: bool) -> ExitCode {
    let opts = CompileOptions {
        force_sequential: sequential,
        identify: nfp_core::orchestrator::IdentifyOptions {
            dirty_memory_reusing: !no_dirty_reuse,
        },
    };
    let compiled = match compile_policy(path, &opts) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let g = &compiled.graph;
    println!("graph:            {}", g.describe());
    println!("equivalent length: {}", g.equivalent_chain_length());
    println!("NFs:               {}", g.nf_count());
    println!("max degree:        {}", g.max_degree());
    println!("copies/packet:     {}", g.copies_per_packet());
    println!(
        "overhead (DC mix): {:.1}%",
        g.copies_per_packet() as f64 * overhead::datacenter_overhead(2) * 100.0
    );
    for w in &compiled.warnings {
        println!("warning: {w:?}");
    }
    if show_tables {
        let program = match seal(&compiled) {
            Ok(p) => p,
            Err(code) => return code,
        };
        let t = program.tables();
        println!("\nslots/packet:      {}", program.slots_per_packet());
        println!("classifier actions: {:?}", t.entry_actions);
        for (i, cfg) in t.nf_configs.iter().enumerate() {
            println!("{}: {:?}", g.nodes[i].name, cfg.actions);
        }
        for spec in &t.merge_specs {
            println!(
                "merger@{}: expect {}, ops {:?}",
                spec.segment, spec.total_count, spec.ops
            );
        }
    }
    ExitCode::SUCCESS
}
