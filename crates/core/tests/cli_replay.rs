//! End-to-end tests of `nfp replay`: one capture through every engine
//! prints the same counts and writes the same deliveries, and a capture
//! cut mid-record fails every engine after writing what its intact
//! prefix delivers.

use nfp_core::io::pcap::{read_pcap_bytes, write_pcap_bytes, PcapFormat, PcapReader};
use std::path::{Path, PathBuf};
use std::process::Command;

const TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_mixed.pcap"
);

const ENGINES: [&[&str]; 4] = [
    &["--engine=sync"],
    &["--engine=threaded"],
    &["--engine=sharded", "--shards=2"],
    &["--engine=sharded", "--shards=3"],
];

/// A fresh directory for one test, holding a Monitor|Firewall policy.
fn workdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nfp-cli-replay-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("policy.txt"), "Order(Monitor, before, Firewall)\n").unwrap();
    dir
}

/// One `nfp replay` run.
struct Run {
    code: Option<i32>,
    stdout: String,
    /// Delivered frames from `--pcap-out`, sorted.
    delivered: Vec<Vec<u8>>,
}

fn replay(dir: &Path, trace: &Path, engine: &[&str]) -> Run {
    let out = dir.join(format!("out{}.pcap", engine.join("")));
    let output = Command::new(env!("CARGO_BIN_EXE_nfp"))
        .arg("replay")
        .arg(dir.join("policy.txt"))
        .arg(format!("--pcap={}", trace.display()))
        .arg(format!("--pcap-out={}", out.display()))
        .args(engine)
        .output()
        .unwrap();
    // No capture, or none a reader accepts, holds no deliveries.
    let records = std::fs::read(&out)
        .ok()
        .and_then(|b| read_pcap_bytes(&b).ok());
    let mut delivered: Vec<Vec<u8>> = records
        .unwrap_or_default()
        .into_iter()
        .map(|r| r.data)
        .collect();
    delivered.sort();
    Run {
        code: output.status.code(),
        stdout: String::from_utf8(output.stdout).unwrap(),
        delivered,
    }
}

/// The `pulled … rejected N` part of the summary line.
fn counts(stdout: &str) -> &str {
    let tail = stdout.split("]: ").nth(1).expect("summary line");
    tail.split(" in ").next().unwrap()
}

#[test]
fn every_engine_prints_the_same_counts_and_writes_the_same_records() {
    let dir = workdir("agree");
    let runs: Vec<Run> = ENGINES
        .iter()
        .map(|e| replay(&dir, Path::new(TRACE), e))
        .collect();
    for (engine, run) in ENGINES.iter().zip(&runs) {
        assert_eq!(run.code, Some(0), "{engine:?}: {}", run.stdout);
        assert_eq!(counts(&run.stdout), counts(&runs[0].stdout), "{engine:?}");
        assert_eq!(run.delivered, runs[0].delivered, "{engine:?} records");
    }
    assert!(counts(&runs[0].stdout).starts_with("pulled 256 "));
    assert!(!runs[0].delivered.is_empty());
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn unknown_engine_is_a_usage_error() {
    let dir = workdir("usage");
    let run = replay(&dir, Path::new(TRACE), &["--engine=warp"]);
    assert_eq!(run.code, Some(2));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cut_trace_fails_after_writing_the_intact_prefix_deliveries() {
    let dir = workdir("cut");
    let trace = std::fs::read(TRACE).unwrap();
    let cut = &trace[..trace.len() * 3 / 4 + 7];
    std::fs::write(dir.join("cut.pcap"), cut).unwrap();
    let mut reader = PcapReader::new(std::io::Cursor::new(cut.to_vec())).unwrap();
    let mut intact = Vec::new();
    while let Ok(Some(rec)) = reader.next_record() {
        intact.push(rec);
    }
    let prefix = write_pcap_bytes(&intact, PcapFormat::default());
    std::fs::write(dir.join("prefix.pcap"), prefix).unwrap();
    let expected = replay(&dir, &dir.join("prefix.pcap"), &["--engine=sync"]);
    assert_eq!(expected.code, Some(0), "{}", expected.stdout);
    assert!(!expected.delivered.is_empty());
    for engine in ENGINES {
        let run = replay(&dir, &dir.join("cut.pcap"), engine);
        assert_eq!(run.code, Some(1), "{engine:?}: {}", run.stdout);
        assert_eq!(run.delivered, expected.delivered, "{engine:?} records");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
