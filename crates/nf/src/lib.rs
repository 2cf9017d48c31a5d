//! # nfp-nf
//!
//! Network function implementations for NFP — the six NFs the paper's
//! evaluation uses (§6.1) plus a NAT, all built from scratch:
//!
//! * [`forwarder::L3Forwarder`] — longest-prefix-match forwarding over a
//!   1000-entry table (binary trie in [`lpm`]).
//! * [`lb::LoadBalancer`] — the "commonly used ECMP mechanism in data
//!   centers" hashing the 5-tuple.
//! * [`firewall::Firewall`] — Click-IPFilter-style ACL with 100 rules.
//! * [`ids::Ids`] — Snort-like signature matching (100 rules) over an
//!   Aho-Corasick automaton ([`aho`]).
//! * [`vpn::Vpn`] — IPsec AH tunnel-mode: AES-CTR payload encryption
//!   (from-scratch AES-128 in [`aes`]) plus Authentication Header
//!   encapsulation.
//! * [`monitor::Monitor`] — NetFlow-style per-flow counters keyed by the
//!   hashed 5-tuple.
//! * [`nat::Nat`] — source NAT with port allocation.
//! * [`cycles::CycleFirewall`] — the paper's Figure 9 instrument: a
//!   firewall that "busily loops for a given number of cycles after
//!   modifying the packet" to emulate NF complexity.
//! * [`extra`] — the remaining Table 2 rows: terminating proxy, LZSS
//!   payload compression ([`lz`]), token-bucket traffic shaper, media
//!   gateway and LRU request cache.
//! * [`chaos`] — fault-injection wrappers (panic after N packets, stall
//!   once) for exercising the failure model; not part of the paper.
//!
//! NFs implement [`NetworkFunction`] and process packets through a
//! [`PacketView`], which supports both exclusive access (sequential
//! segments, copied packets) and field-scoped shared access (Dirty Memory
//! Reusing parallel stages). The [`inspector`] module implements the §5.4
//! analysis tool: it observes an NF's `PacketView` usage and derives its
//! action profile automatically.

#![warn(missing_docs)]

pub mod aes;
pub mod aho;
pub mod chaos;
pub mod cycles;
pub mod extra;
pub mod firewall;
pub mod forwarder;
pub mod ids;
pub mod inspector;
pub mod lb;
pub mod lpm;
pub mod lz;
pub mod monitor;
pub mod nat;
pub mod nf;
pub mod state;
pub mod vpn;

pub use inspector::inspect;
pub use nf::{NetworkFunction, PacketView, Verdict};
pub use state::{FlowSnapshot, FlowTable};
