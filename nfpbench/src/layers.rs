//! Standalone layer costs: each layer's public function timed on the
//! workload's own frames and program, outside any engine.
//!
//! The classifier, agent, merger and collector are timed by replaying
//! the workload through the shared stage cores in bursts of [`BURST`]:
//! admit a burst (`Classifier::admit_burst`), run the NFs it reaches,
//! route merger-bound messages (`AgentCore::route_burst`), merge them
//! (`MergerCore::offer_burst`), release in order (`AgentCore::release`)
//! and collect the outputs (`collector::collect_burst`). Only the core
//! calls are inside the clocks. Every evaluated NF type's body, the pcap
//! codec (`PcapIngress`, `PcapEgress`), pool copies and ring hops are
//! timed on the workload's admitted frames as well, on every workload,
//! so each layer has a cost even where the workload's graph lacks it.

use crate::ledger::NF_TYPES;
use crate::workload::Built;
use nfp_bench::setups::make_nf;
use nfp_dataplane::actions::{Deliver, Msg};
use nfp_dataplane::cores::{collector, AgentCore, MergerCore};
use nfp_dataplane::ring;
use nfp_dataplane::runtime::NfRuntime;
use nfp_dataplane::{Classifier, ProgramHandle, StageStats, TablesResolver};
use nfp_io::{PcapEgress, PcapFormat, PcapIngress};
use nfp_nf::{NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::tables::Target;
use nfp_packet::io::{Egress, Ingress};
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Burst size of the replay and ring measurements (the engines' burst).
pub const BURST: usize = 32;

/// Frames replayed per pass.
const REPLAY_FRAMES: usize = 2_048;

/// Times each admitted sample frame goes through an NF body or the codec
/// per pass.
const SAMPLE_ROUNDS: usize = 8;

/// Standalone per-unit costs (ns) and per-packet visit ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Standalone {
    /// `admit_burst` per offered frame (rejects included).
    pub classifier_ns: f64,
    /// Share of offered frames the classifier rejects.
    pub reject_frac: f64,
    /// `route_burst` + in-order `release`, per merger-bound message.
    pub agent_ns: f64,
    /// `offer_burst` per merger-bound message.
    pub merger_ns: f64,
    /// Completed merges per offered frame.
    pub merges_per_pkt: f64,
    /// Nil arrivals at the merger per offered frame.
    pub nil_per_pkt: f64,
    /// `collect_burst` per delivered frame.
    pub collector_ns: f64,
    /// `header_only_copy` + `release` of the workload's frames.
    pub header_copy_ns: f64,
    /// `insert` + `take` of the workload's frames.
    pub insert_release_ns: f64,
    /// Ring push + pop per message, one thread, burst-amortized.
    pub hop_ns: f64,
    /// Ring push on one thread, pop on another, per message.
    pub xthread_hop_ns: f64,
    /// Per [`NF_TYPES`] entry: body ns per call and share of calls
    /// that drop, one instance per type fed the admitted frames.
    pub nf_body: [(f64, f64); NF_TYPES.len()],
    /// `PcapIngress` pull per packet (record decode + packet build).
    pub codec_read_ns: f64,
    /// `PcapEgress` emit + flush per packet.
    pub codec_write_ns: f64,
}

struct RecordSink(Vec<(Target, Msg)>);

impl Deliver for RecordSink {
    fn deliver(&mut self, target: Target, msg: Msg) {
        self.0.push((target, msg));
    }
}

/// One replay pass's totals.
#[derive(Default)]
struct Pass {
    offered: u64,
    rejected: u64,
    routed: u64,
    delivered: u64,
    merges: u64,
    nils: u64,
    classifier_ns: u64,
    agent_ns: u64,
    merger_ns: u64,
    collector_ns: u64,
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn replay_pass(built: &Built, frames: &[Packet]) -> Pass {
    let handle = Arc::new(ProgramHandle::new(built.program.clone()));
    let tables = Arc::clone(built.program.tables());
    let mut classifier = Classifier::live(Arc::clone(&handle));
    let mut resolver = TablesResolver::new(Arc::clone(&handle));
    let mut runtimes: Vec<NfRuntime<Box<dyn NetworkFunction>>> = built
        .names
        .iter()
        .zip(tables.nf_configs.iter().cloned())
        .map(|(n, cfg)| NfRuntime::new(make_nf(n), cfg))
        .collect();
    let mut agent = AgentCore::new(1);
    let mut merger = MergerCore::new();
    let pool = PacketPool::new(BURST * built.program.slots_per_packet() * 4);
    let stats: [StageStats; 5] = std::array::from_fn(|_| StageStats::new());
    let [cs, ns, as_, ms, os] = &stats;

    let mut p = Pass::default();
    let (mut picks, mut outcomes, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for burst in frames.chunks(BURST) {
        let mut pending: VecDeque<Packet> = burst.iter().cloned().collect();
        let mut sink = RecordSink(Vec::new());
        let t = Instant::now();
        let b = classifier.admit_burst(&mut pending, &pool, &mut sink, cs, None);
        p.classifier_ns += ns_since(t);
        assert!(!b.stalled, "replay pool covers a burst");
        p.offered += burst.len() as u64;
        p.rejected += b.rejected;
        let mut events = sink.0;
        while !events.is_empty() {
            let mut next = RecordSink(Vec::new());
            let (mut to_merger, mut to_output) = (Vec::new(), Vec::new());
            for (target, msg) in events {
                match target {
                    Target::Nf(i) => runtimes[i].handle(msg, &pool, &mut next, ns),
                    Target::Merger(_) => to_merger.push(msg),
                    Target::Output => to_output.push(msg),
                }
            }
            if !to_merger.is_empty() {
                let t = Instant::now();
                picks.clear();
                agent.route_burst(&mut to_merger, &pool, &mut resolver, as_, &mut picks);
                p.agent_ns += ns_since(t);
                let t = Instant::now();
                merger.offer_burst(&to_merger, &pool, &mut resolver, ms, 0, &mut outcomes);
                p.merger_ns += ns_since(t);
                let t = Instant::now();
                for o in outcomes.drain(..) {
                    agent.release(o, &pool, &mut resolver, &mut next, as_);
                }
                p.agent_ns += ns_since(t);
                p.routed += to_merger.len() as u64;
            }
            if !to_output.is_empty() {
                let t = Instant::now();
                collector::collect_burst(&to_output, &pool, os, &mut out);
                p.collector_ns += ns_since(t);
                p.delivered += out.len() as u64;
                out.clear();
            }
            events = next.0;
        }
    }
    assert_eq!(pool.in_use(), 0, "replay leaks no pool slot");
    let m = ms.snapshot();
    p.merges = m.merges;
    p.nils = m.nil_packets;
    p
}

fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Time `rounds` calls of `op`, each handling `items` items: (ns, items).
fn timed(rounds: usize, items: usize, mut op: impl FnMut()) -> (u64, u64) {
    let t = Instant::now();
    for _ in 0..rounds {
        op();
    }
    (ns_since(t), (rounds * items) as u64)
}

/// Accumulates standalone measurements over a run. [`LayerMeter::pass`]
/// is called once per measurement cycle, interleaved with the engine
/// repetitions, so the layer costs and the end-to-end cost average over
/// the same stretch of (shared, noisy) machine time; every cost is a
/// ratio of sums over all passes.
pub struct LayerMeter<'a> {
    built: &'a Built,
    frames: Vec<Packet>,
    /// Admitted frames for the pool and ring measurements (a header copy
    /// of a malformed frame is refused before any copying happens).
    sample: Vec<Packet>,
    replay: Pass,
    nfs: Vec<Box<dyn NetworkFunction>>,
    /// Per NF type: (ns, calls, drops).
    nf_body: Vec<(u64, u64, u64)>,
    codec_read: (u64, u64),
    codec_write: (u64, u64),
    copy: (u64, u64),
    insert: (u64, u64),
    hop: (u64, u64),
    xhop: (u64, u64),
}

impl<'a> LayerMeter<'a> {
    /// A meter over the workload's first [`REPLAY_FRAMES`] frames.
    pub fn new(built: &'a Built, frames: &[Packet]) -> Self {
        let frames = frames[..frames.len().min(REPLAY_FRAMES)].to_vec();
        let admitted = crate::workload::admitted(&built.program, &frames);
        let sample = frames
            .iter()
            .zip(admitted)
            .filter(|(_, ok)| *ok)
            .map(|(f, _)| f.clone())
            .take(BURST)
            .collect();
        LayerMeter {
            built,
            frames,
            sample,
            replay: Pass::default(),
            nfs: NF_TYPES.iter().map(|t| make_nf(t)).collect(),
            nf_body: vec![(0, 0, 0); NF_TYPES.len()],
            codec_read: (0, 0),
            codec_write: (0, 0),
            copy: (0, 0),
            insert: (0, 0),
            hop: (0, 0),
            xhop: (0, 0),
        }
    }

    /// One pass of every measurement.
    pub fn pass(&mut self) {
        let p = replay_pass(self.built, &self.frames);
        let r = &mut self.replay;
        r.offered += p.offered;
        r.rejected += p.rejected;
        r.routed += p.routed;
        r.delivered += p.delivered;
        r.merges += p.merges;
        r.nils += p.nils;
        r.classifier_ns += p.classifier_ns;
        r.agent_ns += p.agent_ns;
        r.merger_ns += p.merger_ns;
        r.collector_ns += p.collector_ns;

        let rounds: Vec<Packet> = (0..SAMPLE_ROUNDS)
            .flat_map(|_| self.sample.iter().cloned())
            .collect();
        for (nf, acc) in self.nfs.iter_mut().zip(&mut self.nf_body) {
            let mut pkts = rounds.clone();
            let t = Instant::now();
            let mut drops = 0;
            for p in &mut pkts {
                if nf.process(&mut PacketView::Exclusive(p)) == Verdict::Drop {
                    drops += 1;
                }
            }
            acc.0 += ns_since(t);
            acc.1 += pkts.len() as u64;
            acc.2 += drops;
        }
        let t = Instant::now();
        let mut egress = PcapEgress::in_memory(PcapFormat::default());
        egress.emit_burst(&rounds).expect("in-memory egress");
        egress.flush().expect("in-memory egress");
        self.codec_write.0 += ns_since(t);
        self.codec_write.1 += rounds.len() as u64;
        let capture = egress.into_inner().expect("in-memory egress");
        let t = Instant::now();
        let mut ingress = PcapIngress::from_bytes(capture).expect("capture parses");
        let mut pulled = 0;
        while let Some(burst) = ingress.next_burst(BURST).expect("capture replays") {
            pulled += burst.len() as u64;
        }
        self.codec_read.0 += ns_since(t);
        self.codec_read.1 += pulled;

        let pool = PacketPool::new(2 * BURST);
        let refs: Vec<_> = self
            .sample
            .iter()
            .map(|p| pool.insert(p.clone()).expect("pool has room"))
            .collect();
        let add = |acc: &mut (u64, u64), (ns, n): (u64, u64)| {
            acc.0 += ns;
            acc.1 += n;
        };
        add(
            &mut self.copy,
            timed(256, refs.len(), || {
                for &r in &refs {
                    let c = pool.header_only_copy(r, 2).expect("pool has room");
                    pool.release(c);
                }
            }),
        );
        let mut held = self.sample.clone();
        add(
            &mut self.insert,
            timed(256, held.len(), || {
                for p in std::mem::take(&mut held) {
                    let r = pool.insert(p).expect("pool has room");
                    held.push(pool.take(r));
                }
            }),
        );
        let msgs: Vec<Msg> = refs
            .iter()
            .map(|&r| Msg {
                r,
                segment: 0,
                seq: 0,
            })
            .collect();
        let (tx, rx) = ring::channel::<Msg>(256);
        let mut popped = Vec::with_capacity(BURST);
        add(
            &mut self.hop,
            timed(2_048, msgs.len(), || {
                assert_eq!(tx.push_burst(&msgs), msgs.len());
                rx.pop_burst(&mut popped, BURST);
                popped.clear();
            }),
        );
        add(&mut self.xhop, xthread_hops(&msgs));
        for r in refs {
            pool.release(r);
        }
    }

    /// The costs so far.
    pub fn standalone(&self) -> Standalone {
        let r = &self.replay;
        Standalone {
            classifier_ns: per(r.classifier_ns, r.offered),
            reject_frac: per(r.rejected, r.offered),
            agent_ns: per(r.agent_ns, r.routed),
            merger_ns: per(r.merger_ns, r.routed),
            merges_per_pkt: per(r.merges, r.offered),
            nil_per_pkt: per(r.nils, r.offered),
            collector_ns: per(r.collector_ns, r.delivered),
            header_copy_ns: per(self.copy.0, self.copy.1),
            insert_release_ns: per(self.insert.0, self.insert.1),
            hop_ns: per(self.hop.0, self.hop.1),
            xthread_hop_ns: per(self.xhop.0, self.xhop.1),
            nf_body: std::array::from_fn(|i| {
                let (ns, calls, drops) = self.nf_body[i];
                (per(ns, calls), per(drops, calls))
            }),
            codec_read_ns: per(self.codec_read.0, self.codec_read.1),
            codec_write_ns: per(self.codec_write.0, self.codec_write.1),
        }
    }
}

/// Cross-thread hops: one thread pushes bursts, this one pops them.
/// Returns (ns, messages).
fn xthread_hops(msgs: &[Msg]) -> (u64, u64) {
    const MESSAGES: usize = 1 << 16;
    let (tx, rx) = ring::channel::<Msg>(256);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut sent = 0;
            while sent < MESSAGES {
                let n = tx.push_burst(&msgs[..msgs.len().min(MESSAGES - sent)]);
                if n == 0 {
                    std::hint::spin_loop();
                }
                sent += n;
            }
        });
        let mut got = 0;
        let mut buf = Vec::with_capacity(BURST);
        while got < MESSAGES {
            let n = rx.pop_burst(&mut buf, BURST);
            if n == 0 {
                std::hint::spin_loop();
            }
            got += n;
            buf.clear();
        }
    });
    (ns_since(t), MESSAGES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, by_name, generate};

    #[test]
    fn replay_counts_match_the_graph() {
        let w = by_name("east_west_pcap").unwrap();
        let built = build(&w.policy_text());
        let input = generate(w.traffic, 512, 2);
        let mut meter = LayerMeter::new(&built, &input.frames);
        meter.pass();
        meter.pass();
        let s = meter.standalone();
        assert!(s.reject_frac > 0.0 && s.reject_frac < 0.5, "{s:?}");
        // One parallel segment: every frame the IDS passes merges once.
        assert!(s.merges_per_pkt > 0.5 && s.merges_per_pkt < 1.0, "{s:?}");
        for c in [
            s.codec_read_ns,
            s.codec_write_ns,
            s.nf_body[0].0,
            s.nf_body[1].0,
            s.classifier_ns,
            s.agent_ns,
            s.merger_ns,
            s.collector_ns,
            s.header_copy_ns,
            s.insert_release_ns,
            s.hop_ns,
            s.xthread_hop_ns,
        ] {
            assert!(c > 0.0 && c.is_finite(), "{s:?}");
        }
    }
}
