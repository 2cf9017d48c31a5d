//! §6.4 — the result-correctness replay.
//!
//! Paper: "we generate a series of packets …, tag each packet with a
//! unique packet ID in the payload, and replay them to the sequential
//! service chain and the optimized NFP service graph. We compare the
//! processed packets and find that NFP service graph could provide the
//! same execution results as the sequential service chain."

use nfp_baseline::RunToCompletion;
use nfp_bench::setups::{compile_chain, datacenter_traffic, make_nf, nf_factory};
use nfp_dataplane::sync_engine::{ProcessOutcome, SyncEngine};

fn main() {
    println!("== §6.4: sequential chain vs NFP graph replay ==\n");
    for chain in [
        &["VPN", "Monitor", "Firewall", "LB"][..],
        &["IDS", "Monitor", "LB"][..],
        &["Monitor", "Firewall"][..],
    ] {
        let compiled = compile_chain(chain);
        let program = compiled.program(1).unwrap();
        let mut parallel = SyncEngine::new(program, nf_factory(&compiled)(), 128);
        let mut sequential = RunToCompletion::new(chain.iter().map(|n| make_nf(n)).collect());

        let packets = datacenter_traffic(2_000);
        let mut same = 0u64;
        let mut divergent = 0u64;
        let mut drops_seq = 0u64;
        let mut drops_par = 0u64;
        for pkt in packets {
            let seq_out = sequential.process(pkt.clone());
            let par_out = parallel.process(pkt).expect("admitted");
            match (seq_out, par_out) {
                (Some(a), ProcessOutcome::Delivered(b)) => {
                    if a.data() == b.data() {
                        same += 1;
                    } else {
                        divergent += 1;
                    }
                }
                (None, ProcessOutcome::Dropped) => {
                    same += 1;
                    drops_seq += 1;
                    drops_par += 1;
                }
                (None, ProcessOutcome::Delivered(_)) => {
                    divergent += 1;
                    drops_seq += 1;
                }
                (Some(_), ProcessOutcome::Dropped) => {
                    divergent += 1;
                    drops_par += 1;
                }
            }
        }
        println!(
            "chain {:?} -> graph `{}`:\n  identical outputs: {same}/2000  divergent: {divergent}  (drops seq {drops_seq} / par {drops_par})",
            chain,
            compiled.graph.describe()
        );
        assert_eq!(divergent, 0, "result correctness violated");
    }
    println!(
        "\nresult correctness holds: parallel graphs reproduce sequential outputs bit-for-bit."
    );
}
