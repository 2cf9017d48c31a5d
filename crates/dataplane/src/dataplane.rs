//! One closed interface over the three executors.
//!
//! Every harness that needs "an engine" — the soak matrix, the `nfp`
//! CLI, the replay bench, the differential suites — names it with an
//! [`EngineSpec`] and drives the [`Dataplane`] built from it, so the
//! choice between [`SyncEngine`], [`Engine`] and [`ShardedEngine`] is
//! written once, here. [`Dataplane`] is an enum, not a trait: the set of
//! engines is closed and nothing substitutes a fake. Fleet-only
//! operations (`rescale`, `migration`) stay on [`ShardedEngine`]; reach
//! them by matching [`Dataplane::Sharded`].

use crate::engine::{finish_io, Engine, EngineConfig, EngineController, EngineError, EngineReport};
use crate::shard::ShardedEngine;
use crate::swap::{EpochReport, ReconfigError};
use crate::sync_engine::SyncEngine;
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::Program;
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats};
use nfp_packet::Packet;

/// Which executor an [`EngineSpec`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The deterministic single-threaded [`SyncEngine`].
    Sync,
    /// The multi-threaded [`Engine`].
    Threaded,
    /// A [`ShardedEngine`] fleet of this many replicas.
    Sharded(usize),
}

impl EngineKind {
    /// Every engine, the fleet at two shards.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Sync,
        EngineKind::Threaded,
        EngineKind::Sharded(2),
    ];

    /// Engine replicas: the fleet's width, else 1.
    pub fn shards(self) -> usize {
        match self {
            EngineKind::Sharded(n) => n,
            _ => 1,
        }
    }

    /// Label used in reports and JSON; a fleet's does not name its width.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Sync => "sync",
            EngineKind::Threaded => "threaded",
            EngineKind::Sharded(_) => "sharded",
        }
    }
}

/// An engine to build: its kind and its configuration. A fleet reads
/// `pool_size` and `core_budget` as fleet totals; the sync engine reads
/// only `pool_size`, `telemetry`, `keep_packets`, `probe` and `io_burst`.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Which executor.
    pub kind: EngineKind,
    /// Its configuration.
    pub config: EngineConfig,
}

/// Evaluate `$call` with `$e` bound to whichever engine `$plane` holds.
macro_rules! each {
    ($plane:expr, $e:ident => $call:expr) => {
        match $plane {
            Dataplane::Sync($e) => $call,
            Dataplane::Threaded($e) => $call,
            Dataplane::Sharded($e) => $call,
        }
    };
}

/// A built engine of any kind.
pub enum Dataplane {
    /// Single-threaded reference executor.
    Sync(Box<SyncEngine>),
    /// Threaded engine.
    Threaded(Engine),
    /// RSS-sharded fleet.
    Sharded(ShardedEngine),
}

impl Dataplane {
    /// Build the engine `spec` names over `program`. `make_nfs` returns
    /// NF instances ordered by `NodeId`; a fleet calls it once per
    /// replica (and again on every rescale).
    pub fn build(
        spec: &EngineSpec,
        program: Program,
        make_nfs: impl Fn() -> Vec<Box<dyn NetworkFunction>> + Send + 'static,
    ) -> Result<Dataplane, EngineError> {
        let config = &spec.config;
        Ok(match spec.kind {
            EngineKind::Sync => Dataplane::Sync(Box::new(SyncEngine::with_config(
                program,
                make_nfs(),
                config,
            ))),
            EngineKind::Threaded => {
                Dataplane::Threaded(Engine::new(program, make_nfs(), config.clone())?)
            }
            EngineKind::Sharded(n) => {
                Dataplane::Sharded(ShardedEngine::new(&program, make_nfs, config, n)?)
            }
        })
    }

    /// Run one session over `packets` and report.
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        each!(self, e => e.run(packets))
    }

    /// Run one session over `ingress`, pulled in
    /// [`EngineConfig::io_burst`]-sized bursts, and emit the deliveries
    /// to `egress`. On an ingress error every packet pulled before it is
    /// still processed and its deliveries emitted and flushed; then the
    /// error is returned ([`crate::engine::finish_io`]). The sync engine
    /// emits burst by burst and so keeps no deliveries in the report; the
    /// threaded engines emit at the end of the session and keep them when
    /// `keep_packets` is set.
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        match self {
            Dataplane::Sync(e) => {
                let (report, err) = e.stream(ingress, e.config.io_burst, Some(&mut *egress));
                finish_io(report, err, egress, false)
            }
            Dataplane::Threaded(e) => e.run_io(ingress, egress),
            Dataplane::Sharded(e) => e.run_io(ingress, egress),
        }
    }

    /// Hot-swap to `program` (a fleet rolls it out shard by shard).
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        each!(self, e => e.reconfigure(program))
    }

    /// The current program epoch (a fleet's newest).
    pub fn epoch(&self) -> u64 {
        each!(self, e => e.epoch())
    }

    /// Detached controllers for swapping programs from another thread
    /// while a session runs: one per threaded engine or shard, none for
    /// the sync engine (it swaps between sessions only).
    pub fn controllers(&self) -> Vec<EngineController> {
        match self {
            Dataplane::Sync(_) => Vec::new(),
            Dataplane::Threaded(e) => vec![e.controller()],
            Dataplane::Sharded(e) => e.controllers(),
        }
    }

    /// Every NF position's per-flow state (a fleet's merged across its
    /// shards). Call between sessions.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        each!(self, e => e.export_flow_state())
    }

    /// Restore snapshots shaped as [`Dataplane::export_flow_state`]
    /// returns them (a fleet re-partitions them onto its shards). Call
    /// between sessions.
    pub fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) {
        // A fleet also reports where the flows landed; nothing needs it here.
        each!(self, e => {
            e.import_flow_state(snaps);
        })
    }
}
