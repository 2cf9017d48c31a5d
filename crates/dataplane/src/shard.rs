//! RSS-style flow sharding: N engine replicas, one per shard.
//!
//! The paper's deployment scales out the way hardware RSS does: a
//! front-end hashes each packet's **immutable 5-tuple** to one of N
//! shards, and each shard runs a full engine replica — its own classifier,
//! NF instances, merger agent and merger instances over its own pool
//! partition. Because every packet of a flow hashes to the same shard and
//! traverses that shard FIFO, the §4.3 result-correctness argument is
//! preserved per flow: a shard's output is byte-identical to a sequential
//! reference fed the same sub-stream, and flows never interleave across
//! shards. Only *cross-flow* output order is unspecified — exactly the
//! freedom hardware RSS takes.
//!
//! All shard replicas execute the same sealed [`Program`] (cheap to
//! clone: the tables are behind an `Arc`), while agent sequencing and
//! merger accumulation state
//! stay shard-local by construction — each replica owns its cores.

use crate::engine::{
    add_tallies, drive_sessions, finish_io, Engine, EngineConfig, EngineController, EngineError,
    EngineReport, Feed, MigrationStats,
};
use crate::exec::WakeHub;
use crate::swap::{EpochReport, EpochTally, ReconfigError, ShardSwap};
use nfp_nf::{FlowSnapshot, NetworkFunction};
use nfp_orchestrator::Program;
use nfp_packet::flow::FlowKey;
use nfp_packet::io::{Egress, Ingress, IoError, IoRunStats, VecIngress};
use nfp_packet::Packet;
use nfp_traffic::LatencyRecorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The shard a packet's flow belongs to: the canonical
/// [`FlowKey::shard`] FNV-1a hash over the immutable 5-tuple, modulo
/// `shards`. Packets whose 5-tuple cannot be parsed all land on shard 0
/// (they will be rejected by that shard's classifier and counted as
/// drops there). Delegating to [`FlowKey`] — the same function stateful
/// NFs partition their [`nfp_nf::state::FlowTable`]s by and
/// [`ShardedEngine::rescale`] re-partitions snapshots with — makes
/// hash/partition drift impossible by construction.
pub fn shard_of(pkt: &Packet, shards: usize) -> usize {
    match FlowKey::of(pkt) {
        Some(key) => key.shard(shards),
        None => 0,
    }
}

/// Split `packets` into per-shard sub-streams, preserving arrival order
/// within each shard (per-flow FIFO).
pub fn partition_by_flow(packets: Vec<Packet>, shards: usize) -> Vec<Vec<Packet>> {
    let mut parts: Vec<Vec<Packet>> = (0..shards.max(1)).map(|_| Vec::new()).collect();
    for pkt in packets {
        let s = shard_of(&pkt, shards.max(1));
        parts[s].push(pkt);
    }
    parts
}

/// The outcome of one [`ShardedEngine::rescale`]: how much flow state
/// moved, where it landed, and how long the migration window was.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Shard count before the rescale.
    pub from_shards: usize,
    /// Shard count after the rescale.
    pub to_shards: usize,
    /// Stateful NF positions whose tables were migrated.
    pub stateful_nfs: usize,
    /// Flow-state entries exported from the retiring fleet.
    pub flows_exported: u64,
    /// Flow-state entries imported into the replacement fleet. Equal to
    /// `flows_exported` by construction — [`FlowSnapshot::retain_shard`]
    /// partitions, it never drops — and audited anyway.
    pub flows_imported: u64,
    /// Wall-clock of the whole export → re-partition → import window.
    pub latency: Duration,
    /// Per-destination-shard migration breakdown.
    pub shards: Vec<ShardMigration>,
}

/// Flow state received by one destination shard during a rescale.
#[derive(Debug, Clone, Copy)]
pub struct ShardMigration {
    /// Destination shard index (under the *new* shard count).
    pub shard: usize,
    /// Flow-state entries this shard imported.
    pub flows_in: u64,
}

/// N sharded engine replicas behind an RSS-style 5-tuple dispatcher.
///
/// The fleet is **elastic**: [`ShardedEngine::rescale`] changes the
/// shard count between runs, re-partitioning every stateful NF's flow
/// tables by the same [`FlowKey::shard`] hash the dispatcher routes
/// packets with, so a flow's state is always on the shard its packets
/// reach next run.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    /// The program the fleet currently executes — updated by
    /// [`ShardedEngine::reconfigure`] so a rescale rebuilds replicas at
    /// the rolled-out epoch, not the boot program.
    program: Program,
    /// Replica NF factory, retained so a rescale can build fresh shard
    /// engines and restore migrated state into them.
    make_nfs: Box<dyn Fn() -> Vec<Box<dyn NetworkFunction>> + Send>,
    /// Fleet-level config (total pool and core budgets, re-partitioned
    /// on every shard-count change).
    config: EngineConfig,
    /// Lifetime migration census, surfaced in every run's report.
    migration: MigrationStats,
    /// Epoch tallies of the fleets retired by rescales: with the live
    /// shards' they make up the fleet's lifetime tallies.
    retired: Vec<EpochTally>,
    /// Parent of every replica's wake hub: the caller thread drives all
    /// shards' sessions and parks here between polls.
    hub: Arc<WakeHub>,
}

impl ShardedEngine {
    /// Build `shards` engine replicas of `program`. `make_nfs` is called
    /// once per shard so each replica gets fresh (shard-local) NF state;
    /// `config.pool_size` is the *total* pool budget, partitioned evenly
    /// across shards — a partition too small for the in-flight window
    /// fails with [`EngineError::PoolTooSmall`], exactly as a lone engine
    /// would. `config.core_budget` is likewise the *fleet* budget: each
    /// replica gets an even share (at least one thread), so `shards ×
    /// stages` threads can never be spawned against a smaller host — the
    /// oversubscription that used to invert 4-shard throughput.
    ///
    /// Every replica is partition-bound ([`Engine::bind_partition`]):
    /// in debug builds a stateful NF panics the moment it is handed a
    /// flow that does not hash to its shard.
    pub fn new(
        program: &Program,
        make_nfs: impl Fn() -> Vec<Box<dyn NetworkFunction>> + Send + 'static,
        config: &EngineConfig,
        shards: usize,
    ) -> Result<ShardedEngine, EngineError> {
        let make_nfs: Box<dyn Fn() -> Vec<Box<dyn NetworkFunction>> + Send> = Box::new(make_nfs);
        let hub = Arc::default();
        let engines = Self::build_fleet(program, make_nfs.as_ref(), config, shards, &hub)?;
        Ok(ShardedEngine {
            shards: engines,
            program: program.clone(),
            make_nfs,
            config: config.clone(),
            migration: MigrationStats::default(),
            retired: Vec::new(),
            hub,
        })
    }

    /// Build a partition-bound fleet of `shards` replicas. Shared by
    /// [`ShardedEngine::new`] and [`ShardedEngine::rescale`] so both
    /// paths divide the pool/core budgets and arm the RSS-ownership
    /// assertions identically.
    fn build_fleet(
        program: &Program,
        make_nfs: &dyn Fn() -> Vec<Box<dyn NetworkFunction>>,
        config: &EngineConfig,
        shards: usize,
        hub: &Arc<WakeHub>,
    ) -> Result<Vec<Engine>, EngineError> {
        assert!(shards >= 1, "at least one shard");
        if config.core_budget == 0 {
            // Validate the fleet-level knob here: the per-shard division
            // below floors at 1 and would otherwise mask the bad config.
            return Err(EngineError::ZeroCoreBudget);
        }
        let shard_config = EngineConfig {
            pool_size: config.pool_size / shards,
            core_budget: (config.core_budget / shards).max(1),
            ..config.clone()
        };
        (0..shards)
            .map(|s| {
                let mut engine = Engine::build(
                    program.clone(),
                    make_nfs(),
                    shard_config.clone(),
                    WakeHub::with_parent(Arc::clone(hub)),
                    s,
                )?;
                engine.bind_partition(s, shards);
                Ok(engine)
            })
            .collect()
    }

    /// Number of shard replicas.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The newest program epoch across the shards (they differ only
    /// while a rollout is part-way).
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(Engine::epoch).max().unwrap_or(0)
    }

    /// One detached [`EngineController`] per shard, in shard order — for
    /// driving a rollout from another thread while the fleet is live.
    pub fn controllers(&self) -> Vec<EngineController> {
        self.shards.iter().map(Engine::controller).collect()
    }

    /// Roll `program` out across the fleet, one shard at a time: each
    /// shard hot-swaps and drains its old epoch before the next begins
    /// (a failure therefore leaves a *prefix* of shards on the new epoch;
    /// re-issue the same program to converge the rest — already-swapped
    /// shards reject it as a no-op [`nfp_orchestrator::UpdateRejection::StaleEpoch`]).
    ///
    /// The aggregated [`EpochReport`] sums per-shard drain/completion
    /// counts, records the whole rollout's wall time as `swap_latency`,
    /// and carries the per-shard breakdown in `shards`.
    pub fn reconfigure(&mut self, program: Program) -> Result<EpochReport, ReconfigError> {
        let started = Instant::now();
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut drained = 0;
        let mut completed = 0;
        let mut first: Option<EpochReport> = None;
        for (i, engine) in self.shards.iter_mut().enumerate() {
            let r = engine.reconfigure(program.clone())?;
            drained += r.drained;
            completed += r.completed;
            shards.push(ShardSwap {
                shard: i,
                swap_latency: r.swap_latency,
                drained: r.drained,
            });
            first.get_or_insert(r);
        }
        let first = first.expect("at least one shard");
        // Remember the rolled-out program: a later rescale must rebuild
        // replicas at this epoch, not the boot program.
        self.program = program;
        Ok(EpochReport {
            from_epoch: first.from_epoch,
            to_epoch: first.to_epoch,
            update: first.update,
            swap_latency: started.elapsed(),
            drained,
            completed,
            shards,
        })
    }

    /// Change the fleet to `new_shards` replicas, migrating every
    /// stateful NF's per-flow state with its flows.
    ///
    /// Call between runs — the closed-loop run leaves nothing in flight,
    /// so the gap between two bursts *is* the drain window. The
    /// migration is export → merge → re-partition → import:
    ///
    /// 1. every retiring shard exports one [`FlowSnapshot`] per NF
    ///    position ([`Engine::export_flow_state`]);
    /// 2. snapshots merge per position into one fleet-wide view;
    /// 3. a replacement fleet is built from the stored NF factory at the
    ///    current program (and epoch), with the pool/core budgets
    ///    re-divided by the new shard count;
    /// 4. each position's merged snapshot is filtered to each new
    ///    shard's partition ([`FlowSnapshot::retain_shard`] under the
    ///    same [`FlowKey::shard`] hash the dispatcher uses) and imported.
    ///
    /// The replacement fleet is built *before* the old one is dropped: a
    /// config rejection (e.g. the per-shard pool partition becomes too
    /// small for the in-flight window) leaves the running fleet — and
    /// its state — untouched. NF instances themselves are rebuilt fresh
    /// from the factory; only their per-flow state survives, which is
    /// exactly the contract [`nfp_nf::NetworkFunction::snapshot_state`]
    /// defines. Failure tallies and chaos-wrapper arming restart.
    pub fn rescale(&mut self, new_shards: usize) -> Result<ScaleReport, EngineError> {
        let started = Instant::now();
        let from_shards = self.shards.len();
        let stateful_nfs = self.program.stateful_nodes().len();
        let merged = self.export_flow_state();
        let flows_exported = merged.iter().map(|snap| snap.len() as u64).sum();

        // Build the replacement fleet before touching the old one.
        let mut fleet = Self::build_fleet(
            &self.program,
            self.make_nfs.as_ref(),
            &self.config,
            new_shards,
            &self.hub,
        )?;

        // Re-partition and import: each new shard gets exactly the flows
        // that hash to it under the new shard count.
        let shard_migrations = import_partitioned(&mut fleet, &merged);
        let flows_imported = shard_migrations.iter().map(|m| m.flows_in).sum();

        for engine in &self.shards {
            add_tallies(&mut self.retired, &engine.handle().tallies());
        }
        self.shards = fleet;
        self.migration.rescales += 1;
        self.migration.flows_exported += flows_exported;
        self.migration.flows_imported += flows_imported;
        Ok(ScaleReport {
            from_shards,
            to_shards: new_shards,
            stateful_nfs,
            flows_exported,
            flows_imported,
            latency: started.elapsed(),
            shards: shard_migrations,
        })
    }

    /// The fleet's lifetime migration census (also carried in every
    /// [`ShardedEngine::run`] report).
    pub fn migration(&self) -> MigrationStats {
        self.migration
    }

    /// Checkpoint the whole fleet's flow state: every shard's
    /// per-position snapshots merged into one vector of fleet-wide
    /// [`FlowSnapshot`]s (same shape as [`Engine::export_flow_state`]),
    /// entries sorted by flow key for deterministic comparison.
    pub fn export_flow_state(&self) -> Vec<FlowSnapshot> {
        let n_nfs = self.program.nf_count();
        let mut merged: Vec<FlowSnapshot> = (0..n_nfs).map(|_| FlowSnapshot::default()).collect();
        for engine in &self.shards {
            for (i, snap) in engine.export_flow_state().into_iter().enumerate() {
                merged[i].merge(snap);
            }
        }
        for snap in &mut merged {
            snap.entries.sort_by_key(|(k, _)| *k);
        }
        merged
    }

    /// Restore fleet-wide snapshots (one per NF position, as
    /// [`ShardedEngine::export_flow_state`] returns them), re-partitioned
    /// onto the shards by the dispatcher's hash. Call between runs.
    pub fn import_flow_state(&mut self, snaps: &[FlowSnapshot]) -> Vec<ShardMigration> {
        import_partitioned(&mut self.shards, snaps)
    }

    /// Dispatch `packets` to their shards and run every replica
    /// concurrently, folding the per-shard reports into one
    /// ([`EngineReport::absorb`]): latency samples merge into one summary,
    /// epoch tallies span the fleet's lifetime (rescales included), and
    /// `elapsed` is the wall-clock of the whole sharded run (so
    /// [`EngineReport::pps`] reflects actual scale-out, not a sum of
    /// per-shard rates).
    pub fn run(&mut self, packets: Vec<Packet>) -> EngineReport {
        let keep = self.config.keep_packets;
        self.run_parts(partition_by_flow(packets, self.shards.len()), keep)
    }

    /// Stream a pluggable [`Ingress`] through the whole fleet and emit
    /// its delivered packets to `egress` in folded shard order — also
    /// when the ingress failed, see [`finish_io`].
    pub fn run_io(
        &mut self,
        ingress: &mut dyn Ingress,
        egress: &mut dyn Egress,
    ) -> Result<(EngineReport, IoRunStats), IoError> {
        let (report, err) = self.stream(ingress, true);
        finish_io(report, err, egress, self.config.keep_packets)
    }

    /// The RSS front-end must see the full stream to partition it, so
    /// the ingress is drained first (in [`EngineConfig::io_burst`]-sized
    /// pulls, up to its end or its error), then every shard runs as in
    /// [`ShardedEngine::run`].
    pub(crate) fn stream(
        &mut self,
        ingress: &mut dyn Ingress,
        keep: bool,
    ) -> (EngineReport, Option<IoError>) {
        let mut all = Vec::new();
        let err = loop {
            match ingress.next_burst(self.config.io_burst.max(1)) {
                Ok(Some(pkts)) => all.extend(pkts),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        let parts = partition_by_flow(all, self.shards.len());
        (self.run_parts(parts, keep), err)
    }

    /// Like [`ShardedEngine::run`] but keeping the per-shard reports
    /// separate, in shard order. Equivalence tests compare each shard's
    /// delivered packets against a sequential reference fed the same
    /// sub-stream.
    pub fn run_per_shard(&mut self, packets: Vec<Packet>) -> Vec<EngineReport> {
        let parts = partition_by_flow(packets, self.shards.len());
        let keep = self.config.keep_packets;
        self.run_shards(parts, keep)
            .into_iter()
            .map(|(r, _)| r)
            .collect()
    }

    /// [`ShardedEngine::run_shards`], folded into the fleet's report.
    fn run_parts(&mut self, parts: Vec<Vec<Packet>>, keep: bool) -> EngineReport {
        let started = Instant::now();
        let mut latency = LatencyRecorder::new();
        let mut fleet: Option<EngineReport> = None;
        for (shard, (mut report, samples)) in self.run_shards(parts, keep).into_iter().enumerate() {
            // PIDs are dense per shard: the shard index keeps fleet-wide
            // traces from colliding.
            report.telemetry.tag_shard(shard as u32);
            latency.merge(&samples);
            match &mut fleet {
                Some(fleet) => fleet.absorb(report),
                None => fleet = Some(report),
            }
        }
        let mut report = fleet.expect("at least one shard");
        report.elapsed = started.elapsed();
        report.latency = latency.summary();
        add_tallies(&mut report.epochs, &self.retired);
        report.migration = self.migration;
        report
    }

    /// Run one session per shard over its sub-stream, all driven from
    /// the calling thread: it injects into every shard in turn and parks
    /// on the fleet's shared hub when none can move.
    fn run_shards(
        &mut self,
        parts: Vec<Vec<Packet>>,
        keep: bool,
    ) -> Vec<(EngineReport, LatencyRecorder)> {
        let burst = self.config.io_burst;
        let mut feeds: Vec<VecIngress> = parts.into_iter().map(VecIngress::new).collect();
        let mut sessions: Vec<_> = self
            .shards
            .iter_mut()
            .zip(&mut feeds)
            .map(|(engine, part)| engine.begin(Feed::new(part, burst), keep))
            .collect();
        drive_sessions(&mut sessions, &self.hub, self.config.idle_policy);
        sessions
            .into_iter()
            .map(|s| {
                let (report, latency, _) = s.finish();
                (report, latency)
            })
            .collect()
    }
}

/// Import per-position fleet-wide snapshots into `fleet`, each shard
/// receiving exactly the flows that hash to it under the fleet's shard
/// count ([`FlowSnapshot::retain_shard`] partitions, it never drops).
fn import_partitioned(fleet: &mut [Engine], merged: &[FlowSnapshot]) -> Vec<ShardMigration> {
    let shards = fleet.len();
    fleet
        .iter_mut()
        .enumerate()
        .map(|(s, engine)| {
            let parts: Vec<FlowSnapshot> = merged
                .iter()
                .map(|m| {
                    let mut part = m.clone();
                    part.retain_shard(s, shards);
                    part
                })
                .collect();
            engine.import_flow_state(&parts);
            ShardMigration {
                shard: s,
                flows_in: parts.iter().map(|p| p.len() as u64).sum(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{chain_program, nf};
    use nfp_traffic::{SizeDistribution, TrafficGenerator, TrafficSpec};

    fn firewall_program() -> Program {
        chain_program(&["Monitor", "Firewall"]).0
    }

    fn nfs() -> Vec<Box<dyn NetworkFunction>> {
        vec![nf("Monitor"), nf("Firewall")]
    }

    fn traffic(n: usize, flows: usize) -> Vec<Packet> {
        TrafficGenerator::new(TrafficSpec {
            flows,
            sizes: SizeDistribution::Fixed(128),
            ..TrafficSpec::default()
        })
        .batch(n)
    }

    #[test]
    fn sharding_is_per_flow_and_deterministic() {
        let pkts = traffic(64, 16);
        for pkt in &pkts {
            let s = shard_of(pkt, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(pkt, 4), "stable for a given packet");
        }
        // Every packet of one flow lands on one shard.
        let mut by_tuple: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
        for pkt in &pkts {
            let t = pkt.five_tuple().unwrap();
            let s = shard_of(pkt, 4);
            assert_eq!(
                *by_tuple.entry(t).or_insert(s),
                s,
                "flow split across shards"
            );
        }
        // 16 flows over 4 shards actually spread.
        let used: std::collections::HashSet<_> = pkts.iter().map(|p| shard_of(p, 4)).collect();
        assert!(used.len() > 1, "all flows hashed to one shard");
    }

    #[test]
    fn partition_preserves_per_shard_order() {
        let pkts = traffic(50, 8);
        let tagged: Vec<usize> = pkts.iter().map(|p| shard_of(p, 3)).collect();
        let parts = partition_by_flow(pkts, 3);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 50);
        // Shard s receives exactly the packets tagged s, in arrival order
        // (lengths + per-shard tuple sequence check).
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), tagged.iter().filter(|&&t| t == s).count());
        }
    }

    #[test]
    fn sharded_run_aggregates_shards() {
        let program = firewall_program();
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                keep_packets: true,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        let report = sharded.run(traffic(120, 12));
        assert_eq!(report.injected, 120);
        assert_eq!(report.delivered, 120);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.packets.len(), 120);
        assert_eq!(report.latency.unwrap().count, 120);
        // Merged stage counters still balance across the fleet.
        assert_eq!(report.stats.classifier.packets_in, 120);
        assert_eq!(report.stats.collector.packets_out, 120);
    }

    #[test]
    fn fleet_core_budget_divides_and_validates() {
        let program = firewall_program();
        // Zero fleet budget is rejected up front, not masked by the
        // per-shard floor of one.
        let err = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                core_budget: 0,
                ..EngineConfig::default()
            },
            2,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, EngineError::ZeroCoreBudget));
        // A fleet budget smaller than the shard count still builds: each
        // replica coalesces onto its single thread.
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                core_budget: 2,
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            3,
        )
        .unwrap();
        let report = sharded.run(traffic(90, 9));
        assert_eq!(report.delivered + report.dropped, 90);
        assert_eq!(report.pool_in_use, 0);
    }

    #[test]
    fn rescale_migrates_flow_state_losslessly() {
        let program = firewall_program();
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        let batch = traffic(120, 12);
        let report = sharded.run(batch.clone());
        assert_eq!(report.delivered + report.dropped, 120);
        assert_eq!(report.migration, MigrationStats::default());

        // The Monitor (node 0) tracked all 12 flows across the fleet.
        let before = sharded.export_flow_state();
        assert_eq!(before[0].len(), 12);
        assert!(before[1].is_empty(), "firewall is stateless");

        // Grow 2 → 3: the checkpoint is byte-identical after migration.
        let scale = sharded.rescale(3).unwrap();
        assert_eq!(sharded.shards(), 3);
        assert_eq!((scale.from_shards, scale.to_shards), (2, 3));
        assert_eq!(scale.stateful_nfs, 1);
        assert_eq!(scale.flows_exported, 12);
        assert_eq!(scale.flows_imported, 12);
        assert_eq!(scale.shards.iter().map(|s| s.flows_in).sum::<u64>(), 12);
        assert_eq!(sharded.export_flow_state(), before);

        // Replaying the same batch doubles every flow's packet count —
        // the counters kept counting on migrated state, they were not
        // rebuilt from zero.
        sharded.run(batch);
        let after = sharded.export_flow_state();
        assert_eq!(after[0].len(), 12);
        for ((key, old), (_, new)) in before[0].entries.iter().zip(&after[0].entries) {
            let old = nfp_nf::monitor::FlowStats::from_bytes(old).unwrap();
            let new = nfp_nf::monitor::FlowStats::from_bytes(new).unwrap();
            assert_eq!(new.packets, 2 * old.packets, "flow {key}");
            assert_eq!(new.bytes, 2 * old.bytes);
        }

        // Shrink 3 → 1: still lossless, census still balanced.
        let scale = sharded.rescale(1).unwrap();
        assert_eq!((scale.flows_exported, scale.flows_imported), (12, 12));
        assert_eq!(sharded.export_flow_state(), after);
        let census = sharded.migration();
        assert_eq!(census.rescales, 2);
        assert!(census.balanced());
        // The run report carries the lifetime census.
        let report = sharded.run(traffic(10, 12));
        assert_eq!(report.migration, census);
    }

    /// Satellite of the partition-binding contract: every replica built
    /// by [`ShardedEngine::new`]/[`rescale`] is partition-bound, so the
    /// stateful runs above would already panic in debug builds if the
    /// dispatcher ever handed a shard a flow outside its RSS partition.
    /// This test drives the assertion directly at the [`Engine`] level:
    /// state for a flow that hashes elsewhere must not be importable
    /// into a bound shard.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "RSS partition drift")]
    fn misdirected_flow_state_trips_partition_assertion() {
        let program = firewall_program();
        let mut engine = Engine::new(
            program,
            nfs(),
            EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        // A flow that does not hash to shard 1 of 4.
        let stray = (1..)
            .map(|sport| {
                FlowKey::new(
                    nfp_packet::ipv4::Ipv4Addr::new(10, 0, 0, 1),
                    nfp_packet::ipv4::Ipv4Addr::new(10, 9, 9, 9),
                    sport,
                    80,
                    6,
                )
            })
            .find(|k| k.shard(4) != 1)
            .unwrap();
        engine.bind_partition(1, 4);
        let monitor_state = FlowSnapshot {
            nf: "Monitor".to_string(),
            entries: vec![(stray, vec![0; 16])],
        };
        engine.import_flow_state(&[monitor_state]);
    }

    #[test]
    fn rescale_rejection_leaves_fleet_untouched() {
        let program = firewall_program();
        // 64-slot pool: fine for 2 shards (32 ≥ 2 slots × 16 in flight),
        // too small per shard at 4.
        let mut sharded = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                pool_size: 64,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
            2,
        )
        .unwrap();
        sharded.run(traffic(60, 6));
        let before = sharded.export_flow_state();
        let err = sharded.rescale(4).map(|_| ()).unwrap_err();
        assert!(matches!(err, EngineError::PoolTooSmall { .. }));
        // Old fleet still intact and serviceable, no census movement.
        assert_eq!(sharded.shards(), 2);
        assert_eq!(sharded.export_flow_state(), before);
        assert_eq!(sharded.migration().rescales, 0);
        let report = sharded.run(traffic(30, 6));
        assert_eq!(report.delivered + report.dropped, 30);
    }

    #[test]
    fn undersized_pool_partition_rejected() {
        let program = firewall_program();
        // Total pool 64 over 4 shards = 16 slots/shard; the firewall graph
        // needs 2 slots/packet × 16 in flight = 32.
        let err = ShardedEngine::new(
            &program,
            nfs,
            &EngineConfig {
                pool_size: 64,
                max_in_flight: 16,
                ..EngineConfig::default()
            },
            4,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::PoolTooSmall { pool_size: 16, .. }
        ));
    }
}
