//! Unit-test fixtures shared by the engines' test modules.

use nfp_nf::firewall::Firewall;
use nfp_nf::lb::LoadBalancer;
use nfp_nf::monitor::Monitor;
use nfp_nf::vpn::{Vpn, VpnMode};
use nfp_nf::NetworkFunction;
use nfp_orchestrator::{compile, CompileOptions, Program, Registry};
use nfp_policy::Policy;

/// `chain` compiled against the Table 2 registry and sealed, with one NF
/// instance per graph node.
pub(crate) fn chain_program(chain: &[&str]) -> (Program, Vec<Box<dyn NetworkFunction>>) {
    let policy = Policy::from_chain(chain.iter().copied());
    let compiled = compile(
        &policy,
        &Registry::paper_table2(),
        &[],
        &CompileOptions::default(),
    )
    .unwrap();
    let nfs = (compiled.graph.nodes.iter())
        .map(|n| nf(n.name.as_str()))
        .collect();
    (compiled.program(1).unwrap(), nfs)
}

/// A test instance of the NF type `name`.
pub(crate) fn nf(name: &str) -> Box<dyn NetworkFunction> {
    match name {
        "Monitor" => Box::new(Monitor::new(name)),
        "Firewall" => Box::new(Firewall::with_synthetic_acl(name, 100)),
        "LoadBalancer" => Box::new(LoadBalancer::with_uniform_backends(name, 4)),
        "VPN" => Box::new(Vpn::new(name, [7u8; 16], 42, VpnMode::Encapsulate)),
        other => panic!("no test instance of {other}"),
    }
}
