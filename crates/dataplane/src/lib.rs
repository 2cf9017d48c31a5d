//! # nfp-dataplane
//!
//! The NFP **infrastructure** (paper §5): everything below the orchestrator
//! that actually moves and merges packets.
//!
//! * [`ring`] — from-scratch lock-free SPSC ring buffers; the stand-in for
//!   the paper's per-NF receive/transmit rings in huge-page shared memory.
//! * [`classifier`] — the Classification Table: matches arriving packets
//!   to a service graph, assigns MID/PID/version metadata (paper Fig. 5)
//!   and launches the graph's entry actions.
//! * [`actions`] — the forwarding-action interpreter shared by classifier,
//!   NF runtimes and mergers (`copy` / `distribute` / `output`).
//! * [`runtime`] — the distributed per-NF runtime: polls receive rings,
//!   drives the NF, applies its forwarding-table slice, and converts drops
//!   into nil packets toward the merger (§5.2).
//! * [`merger`] — the Accumulating Table and merge-operation executor
//!   (§5.3), including priority-based drop-conflict resolution, plus the
//!   merger agent's PID-hash load balancing.
//! * [`stats`] — per-stage observability counters ([`stats::StageStats`]):
//!   packets in/out, copies, nils, merges, drops by cause, backpressure
//!   stalls and ring high-water marks, aggregated per engine run (and
//!   across shards).
//! * [`cores`] — the shared per-stage cores (agent/sequencer, merger,
//!   collector): each stage's semantics lives here exactly once, and every
//!   executor drives the same cores off the same sealed
//!   [`nfp_orchestrator::Program`].
//! * [`sync_engine`] — a deterministic single-threaded executor driving
//!   the cores from one FIFO queue; the reference for correctness tests
//!   (paper §6.4's replay experiment) and property tests.
//! * [`dataplane`] — the one engine interface: an [`EngineSpec`] names an
//!   executor and its config, [`Dataplane::build`] builds it, and every
//!   harness drives the resulting [`Dataplane`] the same way.
//! * [`engine`] — the multi-threaded engine: burst-driven stage cores for
//!   the classifier, NFs, merger agent, N merger instances and collector,
//!   wired with SPSC rings and scheduled onto a bounded set of threads.
//! * [`exec`] — the threading model: core budgets and stage coalescing
//!   ([`exec::plan_groups`]), the spin→yield→park idle strategy
//!   ([`exec::IdlePolicy`], [`exec::WakeHub`]), optional core pinning,
//!   and the [`exec::CachePadded`] false-sharing guard.
//! * [`swap`] — epoch-based live reconfiguration: the swappable
//!   [`swap::ProgramHandle`] every stage hangs off, per-packet epoch
//!   pinning, drain/retire accounting, and the per-stage
//!   [`swap::TablesResolver`] that keeps mid-swap packets on the tables
//!   that classified them.
//! * [`shard`] — RSS-style flow sharding: a 5-tuple hash front-end over N
//!   full engine replicas for multi-core scale-out, per-flow FIFO
//!   preserved — and elastic: [`shard::ShardedEngine::rescale`] changes
//!   the shard count between runs, migrating every stateful NF's
//!   per-flow state with its flows.
//! * [`autoscale`] — the policy loop over that elasticity: distills
//!   grow/hold/shrink decisions from the p99 stage histograms and ring
//!   high-water backpressure gauges, with hysteresis and cooldown.
//! * [`telemetry`] — packet-path telemetry: lock-free per-stage log₂
//!   latency histograms (p50/p90/p99/max per stage on every report) and
//!   sampled per-packet trace timelines, exportable as JSON or
//!   Prometheus text via [`telemetry::TelemetrySnapshot`].
//! * [`audit`] — continuous invariant auditing for adversarial soak runs:
//!   live engine gauges ([`audit::EngineProbe`]), a sampling auditor
//!   thread, and the five-invariant end-of-run verdict
//!   ([`audit::InvariantReport`]) — migrated-state census included.
//! * [`chaos_schedule`] — seed-derived chaos scripts (NF panics, stalls,
//!   mid-storm swap timelines, fleet rescale storms) and the driver that
//!   executes them against a running engine.

#![warn(missing_docs)]

pub mod actions;
pub mod audit;
pub mod autoscale;
pub mod chaos_schedule;
pub mod classifier;
pub mod cores;
pub mod dataplane;
pub mod engine;
pub mod exec;
pub mod merger;
pub mod ring;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod swap;
pub mod sync_engine;
pub mod telemetry;
#[cfg(test)]
mod testkit;

pub use audit::{
    spawn_auditor, AuditConfig, AuditorHandle, EngineProbe, InvariantReport, LiveAudit,
    ProbeGauges, ProbeSample, SoakCounts,
};
pub use autoscale::{AutoscalePolicy, Autoscaler, LoadSignals, ScaleDecision};
pub use chaos_schedule::{drive_swaps, ChaosAction, ChaosScript, SwapLog};
pub use classifier::Classifier;
pub use dataplane::{Dataplane, EngineKind, EngineSpec};
pub use engine::{
    Engine, EngineConfig, EngineController, EngineError, EngineReport, MigrationStats, NfFailure,
};
pub use exec::{host_parallelism, IdlePolicy, WakeHub};
pub use runtime::FailureKind;
pub use shard::{ScaleReport, ShardMigration, ShardedEngine};
pub use stats::{EngineStats, StageStats};
pub use swap::{
    EpochReport, EpochState, EpochTally, ProgramHandle, ReconfigError, ShardSwap, TablesResolver,
};
pub use sync_engine::SyncEngine;
pub use telemetry::{
    LatencyHistogram, PacketTrace, Telemetry, TelemetryConfig, TelemetrySnapshot, TraceHop,
};
