//! Per-stage engine observability.
//!
//! Every pipeline stage (classifier, each NF runtime, the merger agent,
//! each merger instance, the collector) owns a [`StageStats`]: a set of
//! relaxed atomic counters cheap enough to bump on the fast path. The
//! engine aggregates them into an [`EngineStats`] snapshot on the
//! [`crate::engine::EngineReport`], so a correctness failure can be
//! localized by inspecting where the counters stop balancing
//! (see README.md, "Debugging correctness failures with stage counters").
//!
//! Accounting discipline: for every stage, packets in = packets out +
//! packets dropped at that stage, where each drop carries an explicit
//! [`DropCause`]. Ring backpressure is *never* a drop — full rings are
//! waited out (the mesh is deadlock-free) and surface as `backpressure`
//! stall events instead.

use nfp_orchestrator::Stage;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomically raise `slot` to at least `value` with a compare-and-swap
/// max loop. A plain `store` would let two concurrent drainers race —
/// the smaller observation could land last and erase the true peak; the
/// CAS loop only ever moves the value up. Used for every "keep the
/// maximum" cell (ring high-water marks, histogram maxima).
#[inline]
pub fn atomic_max(slot: &AtomicU64, value: u64) {
    let mut current = slot.load(Ordering::Relaxed);
    while current < value {
        match slot.compare_exchange_weak(current, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Why a stage dropped a packet. Every drop in the engine is attributed to
/// exactly one cause; there is no silent-loss path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// An NF verdict in a sequential position (`DropBehavior::Discard`).
    NfVerdict,
    /// A forwarding-action failure in the NF runtime (defensive discard).
    NfError,
    /// A merge resolved to the drop intention (nil from the decider won).
    MergeResolved,
    /// A merge failed (missing version / malformed copy); packet released.
    MergeError,
    /// The classifier rejected the packet on policy grounds (no matching
    /// flow rule, pool pressure, or a failed admission action).
    AdmitRejected,
    /// The classifier rejected the packet because the frame itself was
    /// hostile: truncated below header size or otherwise unparseable.
    AdmitMalformed,
    /// A failed (panicked/stalled) fail-closed NF: the runtime drops the
    /// packets that would have traversed it.
    NfFailed,
    /// A merge deadline expired and the partial merge resolved to a drop
    /// (a fail-closed member's copy never arrived, or the original was
    /// unavailable to forward).
    MergeExpired,
}

/// Atomic counters for one pipeline stage.
///
/// Aligned to a cache line: stage stats live in arrays (one entry per NF
/// or merger) and are hammered from different threads, so adjacent
/// entries must never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct StageStats {
    /// Messages (packet references) entering the stage.
    pub packets_in: AtomicU64,
    /// Messages the stage emitted downstream.
    pub packets_out: AtomicU64,
    /// Packet copies materialized by this stage (paper OP#2).
    pub copies: AtomicU64,
    /// Nil (drop-intention) packets emitted or received here.
    pub nil_packets: AtomicU64,
    /// Completed merge resolutions.
    pub merges: AtomicU64,
    /// Full-ring stall events while emitting (bounded-retry exhausted once).
    pub backpressure: AtomicU64,
    /// Highest receive-ring occupancy observed when draining.
    pub ring_high_water: AtomicU64,
    /// References that arrived at a stage with no ring to their target
    /// (released defensively; the wiring validator makes this unreachable).
    pub misroutes: AtomicU64,
    /// Copies that arrived for an already-expired merge entry (released
    /// against the expiry tombstone; the packet was accounted at expiry).
    pub late_arrivals: AtomicU64,
    /// Packets this stage resolved under a draining (non-newest) epoch —
    /// the expected transient during a live swap, not an error.
    pub stale_epochs: AtomicU64,
    /// Epoch lookups that matched no live epoch and fell back to the
    /// current tables (the drain protocol makes this unreachable).
    pub epoch_conflicts: AtomicU64,
    drop_nf_verdict: AtomicU64,
    drop_nf_error: AtomicU64,
    drop_merge_resolved: AtomicU64,
    drop_merge_error: AtomicU64,
    drop_admit_rejected: AtomicU64,
    drop_admit_malformed: AtomicU64,
    drop_nf_failed: AtomicU64,
    drop_merge_expired: AtomicU64,
}

impl StageStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count `n` messages entering the stage.
    pub fn note_in(&self, n: u64) {
        self.packets_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` messages emitted downstream.
    pub fn note_out(&self, n: u64) {
        self.packets_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one packet copy (OP#2).
    pub fn note_copy(&self) {
        self.copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one nil packet.
    pub fn note_nil(&self) {
        self.nil_packets.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one completed merge resolution.
    pub fn note_merge(&self) {
        self.merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one full-ring stall event.
    pub fn note_backpressure(&self) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an observed receive-ring occupancy (keeps the maximum via a
    /// compare-and-swap loop, so concurrent drainers can never regress
    /// the high-water mark).
    pub fn note_occupancy(&self, n: usize) {
        atomic_max(&self.ring_high_water, n as u64);
    }

    /// Count one misrouted reference (no ring to the target stage).
    pub fn note_misroute(&self) {
        self.misroutes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one arrival for an already-expired merge entry.
    pub fn note_late_arrival(&self) {
        self.late_arrivals.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one packet resolved under a draining (non-newest) epoch.
    pub fn note_stale_epoch(&self) {
        self.stale_epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one epoch lookup that matched no live epoch.
    pub fn note_epoch_conflict(&self) {
        self.epoch_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one drop with its cause.
    pub fn note_drop(&self, cause: DropCause) {
        let c = match cause {
            DropCause::NfVerdict => &self.drop_nf_verdict,
            DropCause::NfError => &self.drop_nf_error,
            DropCause::MergeResolved => &self.drop_merge_resolved,
            DropCause::MergeError => &self.drop_merge_error,
            DropCause::AdmitRejected => &self.drop_admit_rejected,
            DropCause::AdmitMalformed => &self.drop_admit_malformed,
            DropCause::NfFailed => &self.drop_nf_failed,
            DropCause::MergeExpired => &self.drop_merge_expired,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Plain-value counters for one stage (what reports carry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Messages entering the stage.
    pub packets_in: u64,
    /// Messages emitted downstream.
    pub packets_out: u64,
    /// Packet copies materialized (OP#2).
    pub copies: u64,
    /// Nil packets seen.
    pub nil_packets: u64,
    /// Completed merge resolutions.
    pub merges: u64,
    /// Full-ring stall events.
    pub backpressure: u64,
    /// Highest receive-ring occupancy observed.
    pub ring_high_water: u64,
    /// References defensively released for want of a ring to their target.
    pub misroutes: u64,
    /// Arrivals released against an expired merge entry's tombstone.
    pub late_arrivals: u64,
    /// Packets resolved under a draining (non-newest) epoch.
    pub stale_epochs: u64,
    /// Epoch lookups that matched no live epoch (fell back to current).
    pub epoch_conflicts: u64,
    /// Drops: sequential NF verdict.
    pub drop_nf_verdict: u64,
    /// Drops: NF runtime action error.
    pub drop_nf_error: u64,
    /// Drops: merge resolved to the drop intention.
    pub drop_merge_resolved: u64,
    /// Drops: merge failure.
    pub drop_merge_error: u64,
    /// Drops: classifier policy rejection (no match / failed action).
    pub drop_admit_rejected: u64,
    /// Drops: classifier rejection of a truncated or unparseable frame.
    pub drop_admit_malformed: u64,
    /// Drops: failed fail-closed NF.
    pub drop_nf_failed: u64,
    /// Drops: deadline-expired merge resolved to a drop.
    pub drop_merge_expired: u64,
}

impl StageSnapshot {
    /// Total packets this stage dropped, over all causes.
    pub fn drops(&self) -> u64 {
        self.drop_nf_verdict
            + self.drop_nf_error
            + self.drop_merge_resolved
            + self.drop_merge_error
            + self.drop_admit_rejected
            + self.drop_admit_malformed
            + self.drop_nf_failed
            + self.drop_merge_expired
    }

    /// Total classifier rejections, over both admission causes (policy
    /// and malformed framing) — the `rejected` term of the soak
    /// accounting invariant `delivered + dropped + rejected == injected`.
    pub fn rejects(&self) -> u64 {
        self.drop_admit_rejected + self.drop_admit_malformed
    }
}

/// Every counter of a stage, listed once: [`StageStats::reset`],
/// [`StageStats::snapshot`] and [`StageSnapshot::absorb`] expand from
/// the list, so none of them can miss a counter.
macro_rules! stage_counters {
    ($($c:ident),* $(,)?) => {
        impl StageStats {
            /// Zero every counter — the start of a session on a long-lived
            /// engine. Only sound while no stage is recording.
            pub(crate) fn reset(&self) {
                $(self.$c.store(0, Ordering::Relaxed);)*
            }

            /// Plain-value snapshot of the counters.
            pub fn snapshot(&self) -> StageSnapshot {
                StageSnapshot { $($c: self.$c.load(Ordering::Relaxed),)* }
            }
        }

        impl StageSnapshot {
            /// Fold another snapshot of the *same logical stage* into this
            /// one. Counters sum; `ring_high_water` keeps the maximum (it
            /// is a peak observation, not a flow count). Used to aggregate
            /// per-shard stats into one fleet-wide view.
            pub fn absorb(&mut self, other: &StageSnapshot) {
                let high_water = self.ring_high_water.max(other.ring_high_water);
                $(self.$c += other.$c;)*
                self.ring_high_water = high_water;
            }
        }
    };
}

stage_counters!(
    packets_in,
    packets_out,
    copies,
    nil_packets,
    merges,
    backpressure,
    ring_high_water,
    misroutes,
    late_arrivals,
    stale_epochs,
    epoch_conflicts,
    drop_nf_verdict,
    drop_nf_error,
    drop_merge_resolved,
    drop_merge_error,
    drop_admit_rejected,
    drop_admit_malformed,
    drop_nf_failed,
    drop_merge_expired,
);

/// Snapshot of every stage of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// The classifier stage.
    pub classifier: StageSnapshot,
    /// One entry per NF runtime, in `NodeId` order.
    pub nfs: Vec<StageSnapshot>,
    /// The merger agent (router + sequencer).
    pub agent: StageSnapshot,
    /// One entry per merger instance.
    pub mergers: Vec<StageSnapshot>,
    /// The collector stage.
    pub collector: StageSnapshot,
}

impl EngineStats {
    /// Total drops across all stages and causes.
    pub fn total_drops(&self) -> u64 {
        self.stages().map(|(_, s)| s.drops()).sum()
    }

    /// Fold another engine's stats into this one, stage by stage. Shards
    /// run identical pipelines, so stage `i` of one shard corresponds to
    /// stage `i` of every other; vectors extend when `other` has more
    /// entries (it never does between equal shards, but the merge stays
    /// total rather than panicking).
    pub fn merge(&mut self, other: &EngineStats) {
        self.classifier.absorb(&other.classifier);
        self.agent.absorb(&other.agent);
        self.collector.absorb(&other.collector);
        for (i, s) in other.nfs.iter().enumerate() {
            match self.nfs.get_mut(i) {
                Some(mine) => mine.absorb(s),
                None => self.nfs.push(*s),
            }
        }
        for (i, s) in other.mergers.iter().enumerate() {
            match self.mergers.get_mut(i) {
                Some(mine) => mine.absorb(s),
                None => self.mergers.push(*s),
            }
        }
    }

    /// Every stage folded into one snapshot: the single counter set of a
    /// whole-engine view such as [`crate::SyncEngine::stats`].
    pub fn fold(&self) -> StageSnapshot {
        let mut all = StageSnapshot::default();
        self.stages().for_each(|(_, s)| all.absorb(s));
        all
    }

    /// Iterate `(label, snapshot)` over every stage.
    pub fn stages(&self) -> impl Iterator<Item = (String, &StageSnapshot)> {
        std::iter::once(("classifier".to_string(), &self.classifier))
            .chain(
                self.nfs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("nf{i}"), s)),
            )
            .chain(std::iter::once(("agent".to_string(), &self.agent)))
            .chain(
                self.mergers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (format!("merger{i}"), s)),
            )
            .chain(std::iter::once(("collector".to_string(), &self.collector)))
    }
}

/// One live [`StageStats`] per pipeline stage: what an engine records
/// into, snapshotted as [`EngineStats`].
#[derive(Debug)]
pub(crate) struct StageSet {
    pub(crate) classifier: StageStats,
    pub(crate) nfs: Vec<StageStats>,
    pub(crate) agent: StageStats,
    pub(crate) mergers: Vec<StageStats>,
    pub(crate) collector: StageStats,
}

impl StageSet {
    pub(crate) fn new(nfs: usize, mergers: usize) -> Self {
        Self {
            classifier: StageStats::new(),
            nfs: (0..nfs).map(|_| StageStats::new()).collect(),
            agent: StageStats::new(),
            mergers: (0..mergers).map(|_| StageStats::new()).collect(),
            collector: StageStats::new(),
        }
    }

    /// The counters of `stage`.
    pub(crate) fn get(&self, stage: Stage) -> &StageStats {
        match stage {
            Stage::Classifier => &self.classifier,
            Stage::Nf(i) => &self.nfs[i],
            Stage::Agent => &self.agent,
            Stage::Merger(m) => &self.mergers[m],
            Stage::Collector => &self.collector,
        }
    }

    /// Zero every stage.
    pub(crate) fn reset(&self) {
        [&self.classifier, &self.agent, &self.collector]
            .into_iter()
            .chain(&self.nfs)
            .chain(&self.mergers)
            .for_each(StageStats::reset);
    }

    pub(crate) fn snapshot(&self) -> EngineStats {
        EngineStats {
            classifier: self.classifier.snapshot(),
            nfs: self.nfs.iter().map(StageStats::snapshot).collect(),
            agent: self.agent.snapshot(),
            mergers: self.mergers.iter().map(StageStats::snapshot).collect(),
            collector: self.collector.snapshot(),
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6} {:>9} {:>6}",
            "stage", "in", "out", "copies", "nils", "merges", "drops", "backpres", "hiwat"
        )?;
        for (label, s) in self.stages() {
            writeln!(
                f,
                "{:<12} {:>9} {:>9} {:>7} {:>6} {:>7} {:>6} {:>9} {:>6}",
                label,
                s.packets_in,
                s.packets_out,
                s.copies,
                s.nil_packets,
                s.merges,
                s.drops(),
                s.backpressure,
                s.ring_high_water
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = StageStats::new();
        s.note_in(5);
        s.note_out(3);
        s.note_copy();
        s.note_nil();
        s.note_merge();
        s.note_backpressure();
        s.note_occupancy(7);
        s.note_occupancy(3); // max keeps 7
        s.note_drop(DropCause::NfVerdict);
        s.note_drop(DropCause::MergeResolved);
        s.note_drop(DropCause::NfFailed);
        s.note_drop(DropCause::MergeExpired);
        s.note_late_arrival();
        s.note_misroute();
        let snap = s.snapshot();
        assert_eq!(snap.packets_in, 5);
        assert_eq!(snap.packets_out, 3);
        assert_eq!(snap.copies, 1);
        assert_eq!(snap.nil_packets, 1);
        assert_eq!(snap.merges, 1);
        assert_eq!(snap.backpressure, 1);
        assert_eq!(snap.ring_high_water, 7);
        assert_eq!(snap.drops(), 4); // failure causes count as drops
        assert_eq!(snap.late_arrivals, 1); // observations, not drops
        assert_eq!(snap.misroutes, 1);
    }

    #[test]
    fn snapshots_absorb_and_engine_stats_merge() {
        let a = StageStats::new();
        a.note_in(4);
        a.note_occupancy(9);
        a.note_drop(DropCause::NfVerdict);
        let b = StageStats::new();
        b.note_in(6);
        b.note_occupancy(2);
        b.note_drop(DropCause::MergeError);
        let mut snap = a.snapshot();
        snap.absorb(&b.snapshot());
        assert_eq!(snap.packets_in, 10);
        assert_eq!(snap.ring_high_water, 9); // max, not sum
        assert_eq!(snap.drops(), 2);

        let mut left = EngineStats {
            nfs: vec![a.snapshot()],
            ..EngineStats::default()
        };
        let right = EngineStats {
            nfs: vec![b.snapshot(), a.snapshot()],
            mergers: vec![b.snapshot()],
            ..EngineStats::default()
        };
        left.merge(&right);
        assert_eq!(left.nfs.len(), 2); // extended by the longer side
        assert_eq!(left.nfs[0].packets_in, 10);
        assert_eq!(left.mergers.len(), 1);
        assert_eq!(left.total_drops(), 4);
    }

    #[test]
    fn ring_high_water_survives_two_thread_hammer() {
        // Regression: the high-water mark must be a monotone max under
        // concurrent drainers. Two threads interleave ascending and
        // descending occupancy observations; a racy plain store could
        // leave a smaller value in place, the CAS max loop cannot.
        let s = StageStats::new();
        const TOP: usize = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for n in 0..=TOP {
                    s.note_occupancy(n);
                }
            });
            scope.spawn(|| {
                for n in (0..TOP).rev() {
                    s.note_occupancy(n);
                }
            });
        });
        assert_eq!(s.snapshot().ring_high_water, TOP as u64);

        // The helper alone, hammered on one cell from two threads.
        let cell = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for offset in [0u64, 1] {
                let cell = &cell;
                scope.spawn(move || {
                    for v in (offset..2 * TOP as u64).step_by(2) {
                        atomic_max(cell, v);
                    }
                    for v in (0..TOP as u64).rev() {
                        atomic_max(cell, v);
                    }
                });
            }
        });
        assert_eq!(cell.load(Ordering::Relaxed), 2 * TOP as u64 - 1);
    }

    #[test]
    fn engine_stats_totals_and_display() {
        let s = StageStats::new();
        s.note_drop(DropCause::AdmitRejected);
        let e = EngineStats {
            classifier: s.snapshot(),
            nfs: vec![StageSnapshot::default(); 2],
            ..Default::default()
        };
        assert_eq!(e.total_drops(), 1);
        let text = e.to_string();
        assert!(text.contains("classifier"));
        assert!(text.contains("nf1"));
        assert!(text.contains("collector"));
    }
}
