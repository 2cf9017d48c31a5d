//! Golden-trace differential suite: the committed pcap corpus replayed
//! through every engine must agree byte-for-byte.
//!
//! Three layers of lock-down:
//!
//! 1. **Corpus provenance** — the committed `tests/data/*.pcap` files
//!    byte-equal the seeded builder's output
//!    ([`nfp_io::trace::build_golden_pcap`]), so the corpus can never
//!    drift silently; regenerate with
//!    `cargo run -p nfp-io --bin golden_trace -- tests/data` and this
//!    test fails first on any deliberate change.
//! 2. **Cross-engine differential** — the same trace through every
//!    [`EngineSpec`]: the sync engine (deterministic reference), the
//!    threaded engine and the RSS fleet must produce identical delivered
//!    *byte multisets* and identical drop taxonomies (per
//!    [`StageSnapshot`] drop cause), for order-insensitive chains.
//!    Cross-flow output order is the one freedom parallel execution
//!    takes, so deliveries are compared as sorted multisets.
//! 3. **Mid-replay reconfigure** — the agreement must survive a live
//!    `reconfigure()` landing between two replay windows, cycling the
//!    soak harness's fail-closed/fail-open program variants.
//! 4. **Cut trace** — a capture cut mid-record fails every engine with
//!    the same error, after delivering what the intact prefix delivers.

use nfp_core::prelude::*;
use nfp_dataplane::stats::StageSnapshot;
use nfp_dataplane::{Dataplane, EngineKind, EngineSpec};
use nfp_io::backends::packet_from_record;
use nfp_io::pcap::{write_pcap_bytes, PcapFormat};
use nfp_io::trace::{build_golden_pcap, GoldenTraceSpec};
use nfp_io::{CollectEgress, IoError, PcapIngress, PcapReader, VecIngress};

const MIXED: &[u8] = include_bytes!("data/golden_mixed.pcap");
const CLEAN: &[u8] = include_bytes!("data/golden_clean.pcap");

/// Order-insensitive, byte-preserving chains only: each NF's verdict
/// depends on the packet alone (Monitor counts, Firewall's stateless
/// ACL, inline IDS signatures, Gateway session tallies), so delivered
/// byte-sets cannot depend on cross-flow interleaving — exactly what
/// differs between the sync reference, the threaded engine and the
/// sharded fleet. NAT/LoadBalancer/VPN are deliberately excluded: their
/// outputs are order- or instance-sensitive and are covered by the
/// per-shard equivalence suite instead.
const CHAINS: [&[&str]; 3] = [
    &["Monitor", "Firewall"],
    &["Firewall", "IDS"],
    &["Monitor", "Firewall", "IDS", "Gateway"],
];

fn registry() -> Registry {
    let mut r = Registry::paper_table2();
    let mut ids = r.get("NIDS").unwrap().clone().drops();
    ids.nf_type = "IDS".into();
    r.register(ids);
    r
}

fn make(name: &str) -> Box<dyn NetworkFunction> {
    use nfp_core::nf::extra;
    use nfp_core::nf::*;
    match name {
        "Monitor" => Box::new(monitor::Monitor::new(name)),
        "Firewall" => Box::new(firewall::Firewall::with_synthetic_acl(name, 100)),
        "IDS" => Box::new(ids::Ids::with_synthetic_signatures(
            name,
            50,
            ids::IdsMode::Inline,
        )),
        "Gateway" => Box::new(extra::Gateway::new(name)),
        other => unreachable!("{other}"),
    }
}

fn compile_chain(chain: &[&str], fail_open_firewall: bool) -> (Program, Vec<String>) {
    let mut reg = registry();
    if fail_open_firewall {
        let mut fw = reg.get("Firewall").unwrap().clone();
        fw.failure = Some(FailurePolicy::FailOpen);
        reg.register(fw);
    }
    let compiled = compile(
        &Policy::from_chain(chain.iter().copied()),
        &reg,
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let names = compiled
        .graph
        .nodes
        .iter()
        .map(|n| n.name.as_str().to_string())
        .collect();
    (compiled.program(1).unwrap(), names)
}

fn nfs_for(names: &[String]) -> Vec<Box<dyn NetworkFunction>> {
    names.iter().map(|n| make(n.as_str())).collect()
}

/// Every engine under test, pulling `io_burst` packets at a time.
fn specs(io_burst: usize) -> [EngineSpec; 4] {
    use EngineKind::*;
    [Sync, Threaded, Sharded(2), Sharded(3)].map(|kind| {
        let mut config = EngineConfig {
            pool_size: 256 * kind.shards(),
            max_in_flight: 16,
            io_burst,
            ..EngineConfig::default()
        };
        if let Sharded(n) = kind {
            config.core_budget = 2 * n;
        }
        EngineSpec { kind, config }
    })
}

/// The drop-cause taxonomy of a stage snapshot, as a comparable tuple.
fn taxonomy(s: &StageSnapshot) -> [u64; 8] {
    [
        s.drop_admit_rejected,
        s.drop_admit_malformed,
        s.drop_nf_verdict,
        s.drop_nf_error,
        s.drop_nf_failed,
        s.drop_merge_resolved,
        s.drop_merge_error,
        s.drop_merge_expired,
    ]
}

/// Delivered packets as a sorted byte multiset (cross-flow order is the
/// engines' one legitimate freedom).
fn multiset(pkts: &[Packet]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = pkts.iter().map(|p| p.data().to_vec()).collect();
    v.sort();
    v
}

fn build(spec: &EngineSpec, program: &Program, names: &[String]) -> Dataplane {
    let names = names.to_vec();
    Dataplane::build(spec, program.clone(), move || nfs_for(&names)).unwrap()
}

/// One replay, reduced to what must agree across engines.
struct Outcome {
    delivered: Vec<Vec<u8>>,
    taxonomy: [u64; 8],
    pulled: u64,
    rejected: u64,
}

fn replay(spec: &EngineSpec, chain: &[&str], trace: &[u8]) -> Outcome {
    let (program, names) = compile_chain(chain, false);
    let mut engine = build(spec, &program, &names);
    let mut ingress = PcapIngress::from_bytes(trace.to_vec()).unwrap();
    let mut egress = CollectEgress::new();
    let (report, io) = engine.run_io(&mut ingress, &mut egress).unwrap();
    let accounted = io.delivered + io.dropped + io.rejected;
    assert_eq!(io.pulled, accounted, "{:?} accounting", spec.kind);
    Outcome {
        delivered: multiset(&egress.pkts),
        taxonomy: taxonomy(&report.stats.fold()),
        pulled: io.pulled,
        rejected: io.rejected,
    }
}

#[test]
fn committed_corpus_matches_seeded_builder() {
    assert_eq!(
        MIXED,
        &build_golden_pcap(&GoldenTraceSpec::mixed(42))[..],
        "tests/data/golden_mixed.pcap drifted from GoldenTraceSpec::mixed(42); \
         regenerate with `cargo run -p nfp-io --bin golden_trace -- tests/data` \
         if the change is deliberate"
    );
    assert_eq!(
        CLEAN,
        &build_golden_pcap(&GoldenTraceSpec::clean(7))[..],
        "tests/data/golden_clean.pcap drifted from GoldenTraceSpec::clean(7)"
    );
}

#[test]
fn corpus_is_replayable_and_mixed_contains_rejects() {
    let recs = PcapReader::new(std::io::Cursor::new(MIXED.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    assert_eq!(recs.len(), 256);
    assert!(recs.iter().any(|r| r.truncated()));
    let clean = PcapReader::new(std::io::Cursor::new(CLEAN.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    assert_eq!(clean.len(), 128);
    assert!(clean.iter().all(|r| !r.truncated()));
}

#[test]
fn engines_agree_on_golden_traces() {
    for trace in [MIXED, CLEAN] {
        for chain in CHAINS {
            let outcomes = specs(16).map(|spec| (spec.kind, replay(&spec, chain, trace)));
            let [(_, sync), others @ ..] = outcomes;
            for (kind, other) in &others {
                assert_eq!(
                    sync.pulled, other.pulled,
                    "{kind:?} pulled, chain {chain:?}"
                );
                assert_eq!(
                    sync.rejected, other.rejected,
                    "{kind:?} admission rejects diverge, chain {chain:?}"
                );
                assert_eq!(
                    sync.taxonomy, other.taxonomy,
                    "{kind:?} drop taxonomy diverges, chain {chain:?}"
                );
                assert_eq!(
                    sync.delivered, other.delivered,
                    "{kind:?} delivered byte-set diverges, chain {chain:?}"
                );
            }
            // The mixed trace must actually exercise every interesting
            // path, or the agreement above is vacuous.
            if std::ptr::eq(trace, MIXED) {
                assert!(sync.rejected > 0, "no admission rejects, chain {chain:?}");
                assert!(
                    !sync.delivered.is_empty(),
                    "nothing delivered, chain {chain:?}"
                );
                if chain.contains(&"Firewall") {
                    assert!(
                        sync.taxonomy.iter().sum::<u64>() > sync.rejected,
                        "no policy drops, chain {chain:?}"
                    );
                }
            }
        }
    }
}

/// Split the mixed trace's packets in two replay windows with a live
/// `reconfigure()` between them (soak-style fail-closed → fail-open
/// Firewall table edit). Every engine applies the same swap at the same
/// trace position, so their outputs must still agree.
#[test]
fn engines_agree_across_mid_replay_reconfigure() {
    let chain: &[&str] = &["Monitor", "Firewall", "IDS"];
    let recs = PcapReader::new(std::io::Cursor::new(MIXED.to_vec()))
        .unwrap()
        .collect_records()
        .unwrap();
    let pkts: Vec<Packet> = recs
        .iter()
        .map(|r| packet_from_record(r).unwrap())
        .collect();
    let half = pkts.len() / 2;
    let (base_program, names) = compile_chain(chain, false);
    let (edit_program, _) = compile_chain(chain, true);

    let [(_, sync_bytes, sync_tax), others @ ..] = specs(16).map(|spec| {
        let mut engine = build(&spec, &base_program, &names);
        let mut egress = CollectEgress::new();
        let mut first = VecIngress::new(pkts[..half].to_vec());
        let (mut report, _) = engine.run_io(&mut first, &mut egress).unwrap();
        engine
            .reconfigure(edit_program.clone().with_epoch(engine.epoch() + 1))
            .unwrap();
        let mut second = VecIngress::new(pkts[half..].to_vec());
        report.absorb(engine.run_io(&mut second, &mut egress).unwrap().0);
        let tax = taxonomy(&report.stats.fold());
        (spec.kind, multiset(&egress.pkts), tax)
    });
    for (kind, bytes, tax) in others {
        assert_eq!(sync_bytes, bytes, "{kind:?} diverges across reconfigure");
        assert_eq!(sync_tax, tax, "{kind:?} taxonomy diverges");
    }
    assert!(!sync_bytes.is_empty());
}

/// The mixed trace cut mid-record: every engine, pulling 16 or 64 packets
/// at a time, returns the reader's error — after delivering exactly what
/// a sync replay of the intact record prefix delivers.
#[test]
fn cut_trace_fails_alike_after_delivering_the_intact_prefix() {
    let cut = &MIXED[..MIXED.len() * 3 / 4 + 7];
    let mut reader = PcapReader::new(std::io::Cursor::new(cut.to_vec())).unwrap();
    let mut intact = Vec::new();
    let want = loop {
        match reader.next_record() {
            Ok(Some(rec)) => intact.push(rec),
            Ok(None) => panic!("the cut must fall inside a record"),
            Err(e) => break e,
        }
    };
    assert!(matches!(want, IoError::Format { .. }), "{want:?}");
    let chain: &[&str] = &["Monitor", "Firewall"];
    let prefix = write_pcap_bytes(&intact, PcapFormat::default());
    let expected = replay(&specs(16)[0], chain, &prefix).delivered;
    assert!(!expected.is_empty());
    let (program, names) = compile_chain(chain, false);
    for spec in specs(16).into_iter().chain(specs(64)) {
        let mut engine = build(&spec, &program, &names);
        let mut ingress = PcapIngress::from_bytes(cut.to_vec()).unwrap();
        let mut egress = CollectEgress::new();
        let err = engine.run_io(&mut ingress, &mut egress).err();
        let label = format!("{:?} at burst {}", spec.kind, spec.config.io_burst);
        assert_eq!(err.as_ref(), Some(&want), "{label}");
        assert_eq!(multiset(&egress.pkts), expected, "{label} deliveries");
    }
}
