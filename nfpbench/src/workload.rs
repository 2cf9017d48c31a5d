//! The four named workloads: their policy text, seeded inputs, and the
//! sequential reference every engine's output is checked against.

use nfp_baseline::RunToCompletion;
use nfp_bench::setups::{eval_registry, make_nf};
use nfp_dataplane::actions::{Deliver, Msg};
use nfp_dataplane::shard::partition_by_flow;
use nfp_dataplane::{Classifier, StageStats};
use nfp_io::backends::packet_from_record;
use nfp_io::pcap::{write_pcap_bytes, PcapFormat};
use nfp_io::trace::{build_golden_records, GoldenTraceSpec};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::tables::Target;
use nfp_orchestrator::{compile, CompileOptions, Program};
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::pool::PacketPool;
use nfp_packet::testutil::{indexed_payload, tcp_packet};
use nfp_packet::Packet;
use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

/// How generated packets reach the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Fixed 64-byte frames over 64 flows.
    Fixed64,
    /// The data-center frame-size mix (mean ≈724 B) over 64 flows.
    Datacenter,
    /// A seeded `GoldenTraceSpec::mixed` capture replayed through the
    /// pcap codec (`PcapIngress` → `run_io` → `PcapEgress`).
    GoldenPcap,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The sequential chain the policy text orders.
    pub chain: &'static [&'static str],
    /// Input traffic.
    pub traffic: Traffic,
    /// Packets per saturated-rate repetition.
    pub rep_packets: usize,
    /// Packets per window-1 latency repetition.
    pub latency_packets: usize,
    /// `Some(n)`: each repetition is back-to-back `n`-packet runs on one
    /// built engine instead of one run over the whole repetition.
    pub session: Option<usize>,
}

/// Every workload, in `--workload` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fw64",
        chain: &["Monitor", "Firewall"],
        traffic: Traffic::Fixed64,
        rep_packets: 16_384,
        latency_packets: 4_096,
        session: None,
    },
    Workload {
        name: "north_south",
        chain: &["VPN", "Monitor", "Firewall", "LB"],
        traffic: Traffic::Datacenter,
        rep_packets: 4_096,
        latency_packets: 2_048,
        session: None,
    },
    Workload {
        name: "east_west_pcap",
        chain: &["IDS", "Monitor", "LB"],
        traffic: Traffic::GoldenPcap,
        rep_packets: 16_384,
        latency_packets: 4_096,
        session: None,
    },
    Workload {
        name: "sessions64",
        chain: &["Monitor", "Firewall"],
        traffic: Traffic::Fixed64,
        rep_packets: 8_192,
        latency_packets: 4_096,
        session: Some(64),
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The policy text the workload compiles from: one `Order` rule per
    /// adjacent pair of the chain (paper Table 1 syntax).
    pub fn policy_text(&self) -> String {
        self.chain
            .windows(2)
            .map(|w| format!("Order({}, before, {})\n", w[0], w[1]))
            .collect()
    }

    /// Scale the repetition sizes down (self-tests).
    #[cfg(test)]
    pub fn scaled(&self, rep_packets: usize, latency_packets: usize) -> Workload {
        Workload {
            rep_packets,
            latency_packets,
            ..self.clone()
        }
    }
}

/// Policy text → sealed program, plus the graph's NF names in `NodeId`
/// order and a one-line description of the compiled graph.
pub struct Built {
    /// The sealed program.
    pub program: Program,
    /// NF instance names by node.
    pub names: Vec<String>,
    /// `describe()` of the compiled graph.
    pub graph: String,
}

/// Parse, compile and seal a policy text against the evaluation registry.
pub fn build(policy_text: &str) -> Built {
    let policy = nfp_policy::parse_policy(policy_text).expect("workload policy parses");
    let compiled = compile(&policy, &eval_registry(), &[], &CompileOptions::default())
        .expect("workload policy compiles");
    let program = compiled.program(1).expect("workload program seals");
    Built {
        names: compiled
            .graph
            .nodes
            .iter()
            .map(|n| n.name.as_str().to_string())
            .collect(),
        graph: compiled.graph.describe(),
        program,
    }
}

/// Fresh NF instances for the graph, in `NodeId` order.
pub fn make_nfs(names: &[String]) -> Vec<Box<dyn NetworkFunction>> {
    names.iter().map(|n| make_nf(n)).collect()
}

/// One input set: the frames in replay order, and for pcap workloads the
/// capture the engines actually read.
#[derive(Clone)]
pub struct Input {
    /// Frames as the classifier receives them.
    pub frames: Vec<Packet>,
    /// The classic-pcap capture of `frames` (pcap workloads only).
    pub pcap: Option<Vec<u8>>,
}

impl Input {
    /// Number of offered frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }
}

/// Flows of the generated (non-pcap) traffic.
pub const FLOWS: u32 = 64;

/// SplitMix64: a tiny, stable seeded stream.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` TCP frames over [`FLOWS`] fixed 5-tuples (the `nfp-traffic`
/// generator's flow table), sized by `sizes`. The seed draws the frame
/// sizes, the order in which each round of packets visits the flows,
/// and the packet ids carried in the payloads; the flow set itself, and
/// so the RSS split across shards, is the same for every seed.
fn flow_frames(sizes: SizeDistribution, n: usize, seed: u64) -> Vec<Packet> {
    let lens: Vec<usize> = TrafficGenerator::new(TrafficSpec {
        flows: 1,
        sizes,
        seed,
        ..TrafficSpec::default()
    })
    .batch(n)
    .iter()
    .map(Packet::len)
    .collect();
    let mut rng = SplitMix64(seed);
    let id_base = rng.next() >> 24;
    let mut order: Vec<u32> = (0..FLOWS).collect();
    (0..n)
        .map(|i| {
            if i % FLOWS as usize == 0 {
                for k in (1..order.len()).rev() {
                    order.swap(k, (rng.next() % (k as u64 + 1)) as usize);
                }
            }
            let f = order[i % FLOWS as usize];
            let payload = indexed_payload(lens[i] - HEADERS, id_base + i as u64);
            tcp_packet(
                Ipv4Addr::from_u32((10 << 24) | (1 << 16) | f),
                Ipv4Addr::from_u32((10 << 24) | (2 << 16) | (f * 7)),
                20_000 + f as u16,
                80 + (f % 8) as u16 * 1000,
                &payload,
            )
        })
        .collect()
}

/// Ethernet + IPv4 + TCP header bytes of a generated frame.
const HEADERS: usize = 54;

/// Generate `n` frames of the workload's traffic from `seed`.
pub fn generate(traffic: Traffic, n: usize, seed: u64) -> Input {
    match traffic {
        Traffic::Fixed64 => Input {
            frames: flow_frames(SizeDistribution::Fixed(64), n, seed),
            pcap: None,
        },
        Traffic::Datacenter => Input {
            frames: flow_frames(SizeDistribution::datacenter(), n, seed),
            pcap: None,
        },
        Traffic::GoldenPcap => {
            let records = build_golden_records(&GoldenTraceSpec {
                packets: n,
                ..GoldenTraceSpec::mixed(seed)
            });
            let frames = records
                .iter()
                .map(|r| packet_from_record(r).expect("golden record fits a packet"))
                .collect();
            Input {
                frames,
                pcap: Some(write_pcap_bytes(&records, PcapFormat::default())),
            }
        }
    }
}

/// What a correct engine must produce for one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Delivered frames as a sorted byte multiset.
    pub delivered: Vec<Vec<u8>>,
    /// Admitted frames some NF dropped.
    pub dropped: u64,
    /// Frames the classifier rejected.
    pub rejected: u64,
}

/// A sink that releases every admitted reference at once: only the
/// admit verdict matters here.
struct ReleaseSink<'a>(&'a PacketPool);

impl Deliver for ReleaseSink<'_> {
    fn deliver(&mut self, _target: Target, msg: Msg) {
        self.0.release(msg.r);
    }
}

/// Whether the program's classifier admits each frame.
pub fn admitted(program: &Program, frames: &[Packet]) -> Vec<bool> {
    let pool = PacketPool::new(64);
    let stats = StageStats::new();
    let mut classifier = Classifier::single(program.tables().clone());
    frames
        .iter()
        .map(|f| {
            let ok = classifier
                .admit(f.clone(), &pool, &mut ReleaseSink(&pool), &stats)
                .is_ok();
            debug_assert_eq!(pool.in_use(), 0);
            ok
        })
        .collect()
}

/// The sequential reference (§6.4): the frames the classifier admits,
/// replayed through the `RunToCompletion` chain in offer order. With
/// `shards > 1` the frames are first split by the RSS flow hash and each
/// shard gets its own chain instance — a sharded deployment runs one
/// replica of every stateful NF (VPN sequence numbers, LB pins) per shard.
pub fn reference(chain: &[&str], program: &Program, frames: &[Packet], shards: usize) -> Reference {
    let admit = admitted(program, frames);
    let rejected = admit.iter().filter(|ok| !**ok).count() as u64;
    let kept: Vec<Packet> = frames
        .iter()
        .zip(&admit)
        .filter(|(_, ok)| **ok)
        .map(|(f, _)| f.clone())
        .collect();
    let mut delivered = Vec::new();
    let mut dropped = 0;
    for part in partition_by_flow(kept, shards) {
        let mut rtc = RunToCompletion::new(chain.iter().map(|n| make_nf(n)).collect());
        for f in part {
            match rtc.process(f) {
                Some(p) => delivered.push(p.data().to_vec()),
                None => dropped += 1,
            }
        }
    }
    delivered.sort_unstable();
    Reference {
        delivered,
        dropped,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_compile_to_the_documented_graphs() {
        let graphs: Vec<String> = WORKLOADS
            .iter()
            .map(|w| build(&w.policy_text()).graph)
            .collect();
        for (w, g) in WORKLOADS.iter().zip(&graphs) {
            assert!(!g.is_empty(), "{}", w.name);
        }
        assert_eq!(graphs[0], graphs[3], "sessions64 reuses the fw64 chain");
    }

    #[test]
    fn generation_is_seeded() {
        for traffic in [Traffic::Fixed64, Traffic::Datacenter, Traffic::GoldenPcap] {
            let a = generate(traffic, 64, 7);
            let b = generate(traffic, 64, 7);
            let c = generate(traffic, 64, 8);
            let bytes = |i: &Input| -> Vec<Vec<u8>> {
                i.frames.iter().map(|p| p.data().to_vec()).collect()
            };
            assert!(bytes(&a) == bytes(&b) && a.pcap == b.pcap, "{traffic:?}");
            assert!(bytes(&a) != bytes(&c), "{traffic:?}");
        }
    }

    #[test]
    fn pcap_reference_rejects_malformed_frames() {
        let w = by_name("east_west_pcap").unwrap();
        let built = build(&w.policy_text());
        let input = generate(w.traffic, 256, 3);
        let chain: Vec<&str> = w.chain.to_vec();
        let r = reference(&chain, &built.program, &input.frames, 1);
        assert!(r.rejected > 0 && r.dropped > 0 && !r.delivered.is_empty());
        assert_eq!(
            r.rejected + r.dropped + r.delivered.len() as u64,
            input.len() as u64
        );
    }
}
