//! The NF action inspector — paper §5.4.
//!
//! "NFP provides an inspection tool for operators that can inspect NF codes
//! to find the usage of interfaces that operate on packets, including
//! reading, writing, dropping and adding/removing bits. Operators can run
//! the inspector against their NF code to automatically generate an action
//! profile, which can be registered into NFP."
//!
//! Rather than static code analysis, this implementation observes the NF
//! *dynamically*: it runs the NF over sample packets through an
//! instrumented [`PacketView`] that records every packet-API call, and
//! additionally diffs each packet before/after processing to catch writes
//! performed through `exclusive_mut` (structural edits, payload
//! encryption). Drops are observed from verdicts; header addition/removal
//! from frame-structure changes.
//!
//! Dynamic inspection is sound for the fields it *sees*; like any
//! coverage-based tool it needs representative samples (e.g. a firewall
//! only reveals its drop action when some sample matches a deny rule).

use crate::nf::{NetworkFunction, PacketView, Verdict};
use core::cell::RefCell;
use nfp_orchestrator::{ActionProfile, HeaderKind};
use nfp_packet::{FieldId, FieldMask, Packet};

/// Recorded packet-API usage for one inspection run.
#[derive(Debug, Default, Clone)]
pub struct UsageLog {
    /// Fields read through the field API.
    pub reads: FieldMask,
    /// Fields written through the field API.
    pub writes: FieldMask,
    /// The NF read the whole packet (conservative: counts as reading
    /// every field).
    pub whole_packet_read: bool,
    /// The NF took `exclusive_mut` (structural access).
    pub exclusive_taken: bool,
}

/// Run the inspector: process every sample through `nf` and derive its
/// action profile.
pub fn inspect(nf: &mut dyn NetworkFunction, samples: Vec<Packet>) -> ActionProfile {
    let log = RefCell::new(UsageLog::default());
    let mut profile = ActionProfile::new(nf.name().to_string());
    let mut saw_drop = false;
    let mut saw_add_rm = false;
    let mut diffed_writes = FieldMask::EMPTY;
    let mut payload_read_hint = false;

    for mut sample in samples {
        let _ = sample.parse();
        let before = sample.clone();
        let verdict = {
            let mut view = PacketView::Inspect {
                pkt: &mut sample,
                log: &log,
            };
            nf.process(&mut view)
        };
        if verdict == Verdict::Drop {
            saw_drop = true;
        }
        // *Header* structure change ⇒ Add/Rm. (A payload-length change —
        // e.g. a compressor — is a payload write, not header add/removal:
        // the L4 offset and AH presence are what define structure.)
        let structure_changed = match (before.parsed(), sample.parsed()) {
            (Ok(a), Ok(b)) => a.ah != b.ah || a.l4 != b.l4 || a.payload != b.payload,
            _ => false,
        };
        if structure_changed {
            saw_add_rm = true;
            // An NF that restructures almost certainly examined the payload
            // region it moved/encrypted.
            payload_read_hint = true;
            continue; // field ranges shifted; byte diff would mislead
        }
        if sample.len() != before.len() {
            // Same header structure, different frame length: payload
            // resize — a transformation that reads and rewrites it.
            payload_read_hint = true;
            continue; // payload byte ranges differ in length; skip the diff
        }
        // Byte-level diff catches writes made via exclusive_mut.
        for field in FieldId::ALL {
            let (a, b) = (before.field_bytes(field), sample.field_bytes(field));
            if let (Ok(a), Ok(b)) = (a, b) {
                if a != b {
                    diffed_writes.insert(field);
                }
            }
        }
    }

    let log = log.into_inner();
    let mut reads = log.reads;
    if log.whole_packet_read {
        reads = reads.union(FieldMask::ALL);
    }
    let mut writes = log.writes.union(diffed_writes);
    // The checksum field changes as a side effect of any header rewrite;
    // it is not an intentional action.
    writes.remove(FieldId::L4Checksum);
    reads.remove(FieldId::L4Checksum);
    if payload_read_hint {
        reads.insert(FieldId::Payload);
        writes.insert(FieldId::Payload);
    }

    profile = profile.reads(reads.iter()).writes(writes.iter());
    if saw_add_rm {
        profile = profile.adds_removes();
        profile.add_rm_header = Some(HeaderKind::AuthHeader);
    }
    if saw_drop {
        profile = profile.drops();
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::Firewall;
    use crate::ids::{Ids, IdsMode};
    use crate::lb::LoadBalancer;
    use crate::monitor::Monitor;
    use crate::nf::testutil::*;
    use crate::vpn::{Vpn, VpnMode};

    fn samples() -> Vec<Packet> {
        vec![
            tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1000, 80, b"hello"),
            tcp_packet(ip(3, 3, 3, 3), ip(172, 16, 5, 5), 1001, 7005, b"deny me"),
            tcp_packet(ip(4, 4, 4, 4), ip(5, 5, 5, 5), 1002, 443, b"EVIL0001SIG"),
            udp_packet(ip(6, 6, 6, 6), ip(7, 7, 7, 7), 53, 53, b"dns"),
        ]
    }

    #[test]
    fn monitor_profile_is_read_only_tuple() {
        let mut m = Monitor::new("mon");
        let p = inspect(&mut m, samples());
        assert!(p.is_read_only());
        assert!(!p.has_drop());
        for f in [FieldId::Sip, FieldId::Dip, FieldId::Sport, FieldId::Dport] {
            assert!(p.read_mask().contains(f), "{f}");
        }
    }

    #[test]
    fn firewall_profile_shows_drop_with_matching_sample() {
        let mut fw = Firewall::with_synthetic_acl("fw", 100);
        let p = inspect(&mut fw, samples());
        assert!(p.has_drop());
        assert!(p.write_mask().is_empty());
    }

    #[test]
    fn firewall_drop_invisible_without_matching_sample() {
        // Coverage caveat: no deny-matching sample ⇒ no drop in profile.
        let mut fw = Firewall::with_synthetic_acl("fw", 100);
        let p = inspect(
            &mut fw,
            vec![tcp_packet(ip(1, 1, 1, 1), ip(2, 2, 2, 2), 1, 80, b"")],
        );
        assert!(!p.has_drop());
    }

    #[test]
    fn lb_profile_shows_address_writes() {
        let mut lb = LoadBalancer::with_uniform_backends("lb", 4);
        let p = inspect(&mut lb, samples());
        assert!(p.write_mask().contains(FieldId::Sip));
        assert!(p.write_mask().contains(FieldId::Dip));
        assert!(p.read_mask().contains(FieldId::Sport));
        assert!(!p.has_add_rm());
    }

    #[test]
    fn vpn_profile_shows_add_rm_and_payload() {
        let mut vpn = Vpn::new("vpn", [1u8; 16], 9, VpnMode::Encapsulate);
        let p = inspect(&mut vpn, samples());
        assert!(p.has_add_rm());
        assert!(p.write_mask().contains(FieldId::Payload));
    }

    #[test]
    fn ids_profile_reads_payload_and_drops_inline() {
        let mut ids = Ids::with_synthetic_signatures("ids", 100, IdsMode::Inline);
        let p = inspect(&mut ids, samples());
        assert!(p.read_mask().contains(FieldId::Payload));
        assert!(p.has_drop());
    }

    #[test]
    fn inspected_profiles_feed_the_orchestrator() {
        // End-to-end §5.4 story: inspect NFs, register profiles, compile.
        use nfp_orchestrator::{compile, CompileOptions, Registry};
        use nfp_policy::Policy;
        let mut reg = Registry::new();
        reg.register(inspect(&mut Monitor::new("Monitor"), samples()));
        reg.register(inspect(
            &mut Firewall::with_synthetic_acl("Firewall", 100),
            samples(),
        ));
        let policy = Policy::from_chain(["Monitor", "Firewall"]);
        let compiled = compile(&policy, &reg, &[], &CompileOptions::default()).unwrap();
        assert_eq!(compiled.graph.equivalent_chain_length(), 1);
        assert_eq!(compiled.graph.copies_per_packet(), 0);
    }
}
