//! The packet classifier — paper §5.1.
//!
//! "The classifier module takes an incoming packet from the NIC and finds
//! out the corresponding service graph information for the packet … tags
//! those packets that follow the same service graph with the same Match ID
//! (MID) … we design a Packet ID (PID) identifier of 40 bits … and assign
//! a version to each packet copy."

use crate::actions::{self, Deliver, VersionMap};
use crate::stats::{DropCause, StageStats};
use crate::swap::ProgramHandle;
use crate::telemetry::Telemetry;
use nfp_orchestrator::tables::GraphTables;
use nfp_orchestrator::Stage;
use nfp_packet::ipv4::Ipv4Addr;
use nfp_packet::meta::{Metadata, PID_MAX, VERSION_ORIGINAL};
use nfp_packet::pool::PacketPool;
use nfp_packet::Packet;
use std::sync::Arc;

/// Classification-table match field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowMatch {
    /// Match every packet (single-graph deployments).
    Any,
    /// Exact 5-tuple.
    FiveTuple {
        /// Source address.
        sip: Ipv4Addr,
        /// Destination address.
        dip: Ipv4Addr,
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
        /// L4 protocol.
        proto: u8,
    },
    /// Destination-port match (coarse service selection).
    Dport(u16),
    /// Destination-prefix match.
    DipPrefix {
        /// Prefix address.
        prefix: Ipv4Addr,
        /// Prefix length.
        len: u8,
    },
}

impl FlowMatch {
    /// Does this matcher cover `pkt`?
    pub fn matches(&self, pkt: &Packet) -> bool {
        match self {
            FlowMatch::Any => true,
            FlowMatch::FiveTuple {
                sip,
                dip,
                sport,
                dport,
                proto,
            } => pkt
                .five_tuple()
                .map(|t| t == (*sip, *dip, *sport, *dport, *proto))
                .unwrap_or(false),
            FlowMatch::Dport(p) => pkt.dport().map(|d| d == *p).unwrap_or(false),
            FlowMatch::DipPrefix { prefix, len } => match pkt.dip() {
                Ok(d) => {
                    if *len == 0 {
                        true
                    } else {
                        let mask = u32::MAX << (32 - u32::from(*len));
                        (d.to_u32() & mask) == (prefix.to_u32() & mask)
                    }
                }
                Err(_) => false,
            },
        }
    }
}

/// One Classification Table row: match → service graph tables.
#[derive(Debug, Clone)]
pub struct CtEntry {
    /// The match field.
    pub matcher: FlowMatch,
    /// The graph's compiled tables (carrying its MID).
    pub tables: Arc<GraphTables>,
}

/// Why a packet could not be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// No Classification Table entry matched.
    NoMatch,
    /// The packet pool is exhausted (backpressure point).
    PoolExhausted,
    /// The frame ends before its headers do — cut short below the
    /// Ethernet/IPv4/L4 header budget (hostile truncation).
    Truncated,
    /// The packet does not parse as Ethernet/IPv4/TCP|UDP.
    Unparseable,
    /// Entry actions failed (table inconsistency).
    ActionFailed,
}

/// Outcome of one [`Classifier::admit_burst`] pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmitBatch {
    /// Packets admitted into their graph this pass.
    pub admitted: u64,
    /// Packets terminally rejected (unparseable, unmatched, or failed
    /// entry actions) and consumed this pass.
    pub rejected: u64,
    /// The pass stopped early on pool exhaustion; the stalled packet is
    /// still at the front of the pending queue for retry.
    pub stalled: bool,
}

/// The classifier: first-match CT lookup, metadata tagging, entry-action
/// launch.
///
/// Two construction modes:
///
/// * **Static** ([`Classifier::new`] / [`Classifier::single`]) — a fixed
///   CT; admitted packets carry epoch 0.
/// * **Live** ([`Classifier::live`]) — a single-graph classifier over a
///   swappable [`ProgramHandle`]: each admission pins the handle's
///   current epoch, classifies against that epoch's tables, and stamps
///   the epoch into the packet metadata so every downstream stage
///   resolves the same tables.
#[derive(Debug)]
pub struct Classifier {
    entries: Vec<CtEntry>,
    handle: Option<Arc<ProgramHandle>>,
    next_pid: u64,
    /// Packets admitted (diagnostics).
    pub admitted: u64,
    /// Packets rejected (diagnostics).
    pub rejected: u64,
}

impl Classifier {
    /// Build a classifier from CT entries (first match wins).
    pub fn new(entries: Vec<CtEntry>) -> Self {
        Self {
            entries,
            handle: None,
            next_pid: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Single-graph classifier matching everything.
    pub fn single(tables: Arc<GraphTables>) -> Self {
        Self::new(vec![CtEntry {
            matcher: FlowMatch::Any,
            tables,
        }])
    }

    /// Single-graph classifier over a swappable program handle: every
    /// packet matches, classifies under the handle's current epoch, and
    /// is stamped with it. The pin taken at admission must be settled by
    /// the engine ([`ProgramHandle::finish`] on delivery/drop); failed
    /// admissions are aborted here, so a retried packet (pool
    /// backpressure) re-pins whatever epoch is current at the retry.
    pub fn live(handle: Arc<ProgramHandle>) -> Self {
        Self {
            entries: Vec::new(),
            handle: Some(handle),
            next_pid: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    /// Admit one packet: find its graph, tag MID/PID/v1 metadata (plus
    /// the pinned epoch in live mode), move it into the pool and run the
    /// graph's entry actions against `sink`.
    pub fn admit(
        &mut self,
        pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
    ) -> Result<Arc<GraphTables>, AdmitError> {
        self.admit_observed(pkt, pool, sink, stats, None)
    }

    /// [`Classifier::admit`] with telemetry: times the admission into the
    /// classifier histogram, stamps every
    /// [`trace_every`](crate::telemetry::TelemetryConfig::trace_every)-th
    /// packet `traced` (by PID, so pool-backpressure retries sample the
    /// same packets) and records its first trace hop.
    pub fn admit_observed(
        &mut self,
        pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        tele: Option<&Telemetry>,
    ) -> Result<Arc<GraphTables>, AdmitError> {
        let t0 = tele.and_then(|t| t.clock());
        let res = self.admit_inner(pkt, pool, sink, stats, tele);
        if res.is_ok() {
            if let Some(t) = tele {
                t.record(Stage::Classifier, t0);
            }
        }
        res
    }

    /// Burst admission: admit packets from the front of `pending` until
    /// it drains or the pool backpressures, with the telemetry clock
    /// amortized to one pair per burst ([`Telemetry::record_split`] keeps
    /// the histogram count at exactly one per admitted packet).
    ///
    /// On pool exhaustion the stalled packet stays at the front of
    /// `pending` — FIFO admission order (and therefore dense PID
    /// numbering) is preserved across retries. Terminally rejected
    /// packets are consumed and counted in the returned batch.
    pub fn admit_burst(
        &mut self,
        pending: &mut std::collections::VecDeque<Packet>,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        tele: Option<&Telemetry>,
    ) -> AdmitBatch {
        let t0 = tele.and_then(|t| t.clock());
        let mut out = AdmitBatch::default();
        while let Some(pkt) = pending.front() {
            match self.admit_inner(pkt.clone(), pool, sink, stats, tele) {
                Ok(_) => {
                    pending.pop_front();
                    out.admitted += 1;
                }
                Err(AdmitError::PoolExhausted) => {
                    out.stalled = true;
                    break;
                }
                Err(_) => {
                    pending.pop_front();
                    out.rejected += 1;
                }
            }
        }
        if let Some(t) = tele {
            t.record_split(Stage::Classifier, t0, out.admitted);
        }
        out
    }

    fn admit_inner(
        &mut self,
        mut pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        tele: Option<&Telemetry>,
    ) -> Result<Arc<GraphTables>, AdmitError> {
        if let Err(e) = pkt.parse() {
            // Hostile framing is rejected with its own cause so soak runs
            // can distinguish malformed-input pressure from policy
            // rejections; the telemetry histograms stay untouched (only
            // admitted packets are timed).
            self.rejected += 1;
            stats.note_in(1);
            stats.note_drop(DropCause::AdmitMalformed);
            return Err(match e {
                nfp_packet::PacketError::Truncated { .. } => AdmitError::Truncated,
                _ => AdmitError::Unparseable,
            });
        }
        if let Some(handle) = self.handle.as_ref().map(Arc::clone) {
            // Pin the current epoch for the packet's whole lifetime. Any
            // admission failure aborts the pin — the caller either drops
            // the packet (already counted at this stage) or retries, and
            // a retry re-pins.
            let pinned = handle.admit_current();
            let res = self.admit_tables(
                pkt,
                pool,
                sink,
                stats,
                pinned.tables(),
                pinned.epoch(),
                tele,
            );
            if res.is_err() {
                handle.abort(&pinned);
            }
            return res;
        }
        let entry = self
            .entries
            .iter()
            .find(|e| e.matcher.matches(&pkt))
            .cloned();
        let Some(entry) = entry else {
            self.rejected += 1;
            stats.note_in(1);
            stats.note_drop(DropCause::AdmitRejected);
            return Err(AdmitError::NoMatch);
        };
        self.admit_tables(pkt, pool, sink, stats, entry.tables, 0, tele)
    }

    /// Shared tail of admission: tag metadata, pool the packet, launch
    /// entry actions. `pkt` is already parsed.
    #[allow(clippy::too_many_arguments)]
    fn admit_tables(
        &mut self,
        mut pkt: Packet,
        pool: &PacketPool,
        sink: &mut impl Deliver,
        stats: &StageStats,
        tables: Arc<GraphTables>,
        epoch: u64,
        tele: Option<&Telemetry>,
    ) -> Result<Arc<GraphTables>, AdmitError> {
        // The PID only advances on success, so retried packets (pool
        // backpressure) keep a dense injection-order numbering.
        let pid = self.next_pid;
        // Sampling keys off the PID (dense on success), so a retried
        // packet keeps its sampling decision across attempts.
        let traced = tele.is_some_and(|t| {
            let n = t.trace_every();
            n > 0 && pid.is_multiple_of(n)
        });
        // The admission-time flow key rides the metadata sidecar so every
        // stateful NF downstream — even past a header-rewriting NAT —
        // keys its per-flow state by the same tuple RSS sharded on.
        // The backend arrival stamp (pcap capture time, raw-socket
        // receive time) survives the fresh admission metadata so trace
        // timing stays visible downstream (0 for synthetic traffic), and
        // so does the engine's injection stamp the collector times by.
        let meta = Metadata::new(tables.mid, pid, VERSION_ORIGINAL)
            .with_epoch(epoch)
            .with_traced(traced)
            .with_flow(nfp_packet::flow::FlowKey::of(&pkt))
            .with_ingress_ns(pkt.meta().ingress_ns())
            .with_inject_ns(pkt.meta().inject_ns());
        pkt.set_meta(meta);
        let r = match pool.insert(pkt) {
            Ok(r) => r,
            Err(_) => {
                // The caller retries this packet, so it is not counted as
                // "in" yet — only the stall is recorded.
                stats.note_backpressure();
                return Err(AdmitError::PoolExhausted);
            }
        };
        // The first hop is recorded before entry actions run: a sink may
        // flush mid-execute, and the NF hop must never precede this one.
        if let Some(t) = tele {
            t.hop_if_traced(Stage::Classifier, meta, false);
        }
        let mut versions = VersionMap::single(VERSION_ORIGINAL, r);
        match actions::execute(&tables.entry_actions, pool, &mut versions, sink, stats) {
            Ok(()) => {
                stats.note_in(1);
                self.next_pid = (pid + 1) & PID_MAX;
                self.admitted += 1;
                // Feed the inter-arrival gap once per *successful*
                // admission, so pool-backpressure retries never
                // double-count a stamp.
                if let Some(t) = tele {
                    t.note_ingress(meta.ingress_ns());
                }
                Ok(tables)
            }
            Err(actions::ActionError::PoolExhausted) => {
                // Entry copies ran out of slots. Generated entry actions
                // always order copies before distributes, so nothing has
                // been delivered yet: roll back every reference we still
                // own and let the caller retry once downstream drains.
                for owned in versions.refs() {
                    pool.release(owned);
                }
                if traced {
                    if let Some(t) = tele {
                        // The retry will re-record the classifier hop.
                        t.retract_classifier_hop(pid);
                    }
                }
                stats.note_backpressure();
                Err(AdmitError::PoolExhausted)
            }
            Err(_) => {
                // Release what we still own; copies already delivered are
                // the sink's problem only on success paths, but entry
                // actions fail before any delivery of the failed version.
                pool.release(r);
                self.rejected += 1;
                stats.note_in(1);
                stats.note_drop(DropCause::AdmitRejected);
                Err(AdmitError::ActionFailed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Msg;
    use nfp_orchestrator::tables::{FtAction, Target};
    use nfp_orchestrator::{compile, CompileOptions, Registry};
    use nfp_policy::Policy;

    #[derive(Default)]
    struct Capture(Vec<(Target, Msg)>);
    impl Deliver for Capture {
        fn deliver(&mut self, target: Target, msg: Msg) {
            self.0.push((target, msg));
        }
    }

    fn tables(chain: &[&str]) -> Arc<GraphTables> {
        let reg = Registry::paper_table2();
        let c = compile(
            &Policy::from_chain(chain.iter().copied()),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        Arc::new(nfp_orchestrator::tables::generate(&c.graph, 5))
    }

    fn pkt(dport: u16) -> Packet {
        nfp_traffic::gen::build_tcp_frame(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            1234,
            dport,
            b"x",
        )
    }

    #[test]
    fn admit_tags_metadata_and_launches_entry() {
        let pool = PacketPool::new(8);
        let mut cl = Classifier::single(tables(&["Monitor", "Firewall"]));
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        cl.admit(pkt(81), &pool, &mut sink, &StageStats::new())
            .unwrap();
        // Parallel pair shares v1: one distribute of the same ref to both.
        assert_eq!(sink.0.len(), 4);
        let m0 = sink.0[0].1;
        pool.with(m0.r, |p| {
            assert_eq!(p.meta().mid(), 5);
            assert_eq!(p.meta().pid(), 0);
            assert_eq!(p.meta().version(), 1);
        });
        let m2 = sink.0[2].1;
        pool.with(m2.r, |p| assert_eq!(p.meta().pid(), 1));
        assert_eq!(cl.admitted, 2);
    }

    #[test]
    fn first_match_wins_and_no_match_rejects() {
        let pool = PacketPool::new(8);
        let t80 = tables(&["Monitor", "Firewall"]);
        let t_other = tables(&["NAT", "LoadBalancer"]);
        let mut cl = Classifier::new(vec![
            CtEntry {
                matcher: FlowMatch::Dport(80),
                tables: Arc::clone(&t80),
            },
            CtEntry {
                matcher: FlowMatch::DipPrefix {
                    prefix: Ipv4Addr::new(10, 0, 0, 0),
                    len: 8,
                },
                tables: Arc::clone(&t_other),
            },
        ]);
        let mut sink = Capture::default();
        let t = cl
            .admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(t.mid, t80.mid);
        let t = cl
            .admit(pkt(443), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(t.mid, t_other.mid);
        // Non-matching packet.
        let mut cl2 = Classifier::new(vec![CtEntry {
            matcher: FlowMatch::Dport(9),
            tables: t80,
        }]);
        assert_eq!(
            cl2.admit(pkt(80), &pool, &mut sink, &StageStats::new())
                .unwrap_err(),
            AdmitError::NoMatch
        );
        assert_eq!(cl2.rejected, 1);
    }

    #[test]
    fn five_tuple_match() {
        let m = FlowMatch::FiveTuple {
            sip: Ipv4Addr::new(10, 0, 0, 1),
            dip: Ipv4Addr::new(10, 9, 9, 9),
            sport: 1234,
            dport: 80,
            proto: nfp_packet::ipv4::PROTO_TCP,
        };
        assert!(m.matches(&pkt(80)));
        assert!(!m.matches(&pkt(81)));
    }

    #[test]
    fn pool_exhaustion_is_backpressure() {
        let pool = PacketPool::new(1);
        let mut cl = Classifier::single(tables(&["Monitor", "Firewall"]));
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(
            cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
                .unwrap_err(),
            AdmitError::PoolExhausted
        );
    }

    #[test]
    fn pids_wrap_at_40_bits() {
        let pool = PacketPool::new(4);
        let mut cl = Classifier::single(tables(&["Monitor", "Firewall"]));
        cl.next_pid = PID_MAX;
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(cl.next_pid, 0);
    }

    #[test]
    fn garbage_rejected() {
        let pool = PacketPool::new(4);
        let mut cl = Classifier::single(tables(&["Monitor", "Firewall"]));
        let mut sink = Capture::default();
        let garbage = Packet::from_bytes(&[0u8; 60]).unwrap();
        assert_eq!(
            cl.admit(garbage, &pool, &mut sink, &StageStats::new())
                .unwrap_err(),
            AdmitError::Unparseable
        );
    }

    #[test]
    fn truncated_frame_rejected_with_distinct_error() {
        let pool = PacketPool::new(4);
        let mut cl = Classifier::single(tables(&["Monitor", "Firewall"]));
        let mut sink = Capture::default();
        // A valid frame cut short mid-IPv4-header: the ethertype still
        // says IPv4, but the header bytes are missing.
        let whole = pkt(80);
        let truncated = Packet::from_bytes(&whole.data()[..20]).unwrap();
        let stats = StageStats::new();
        assert_eq!(
            cl.admit(truncated, &pool, &mut sink, &stats).unwrap_err(),
            AdmitError::Truncated
        );
        assert_eq!(cl.rejected, 1);
        let snap = stats.snapshot();
        assert_eq!(snap.drop_admit_malformed, 1);
        assert_eq!(snap.drop_admit_rejected, 0);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn entry_with_copy_for_east_west_head() {
        // Monitor∥LB needs a header-only copy from the very first hop when
        // the group opens the graph.
        let pool = PacketPool::new(8);
        let reg = {
            let mut r = Registry::paper_table2();
            let mut ids = r.get("NIDS").unwrap().clone();
            ids.nf_type = "IDS".into();
            r.register(ids.drops());
            r
        };
        let c = compile(
            &Policy::from_chain(["Monitor", "LoadBalancer"]),
            &reg,
            &[],
            &CompileOptions::default(),
        )
        .unwrap();
        let t = Arc::new(nfp_orchestrator::tables::generate(&c.graph, 1));
        assert!(t
            .entry_actions
            .iter()
            .any(|a| matches!(a, FtAction::Copy { .. })));
        let mut cl = Classifier::single(t);
        let mut sink = Capture::default();
        cl.admit(pkt(80), &pool, &mut sink, &StageStats::new())
            .unwrap();
        assert_eq!(pool.in_use(), 2, "original + header-only copy");
    }
}
