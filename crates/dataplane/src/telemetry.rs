//! Packet-path telemetry: per-stage latency histograms and sampled packet
//! traces (the instrumentation behind NFP §7's per-hop numbers).
//!
//! Two independent signals, both cheap enough for the fast path:
//!
//! * **Latency histograms** — every stage (classifier, each NF runtime,
//!   the merger agent, each merger instance, the collector) records the
//!   wall time of each unit of work into a fixed-size log₂-bucketed
//!   [`LatencyHistogram`]: 40 relaxed atomic counters, lock-free to
//!   record, mergeable across shards. Quantiles (p50/p90/p99) are read
//!   from the bucket upper bounds, so they are conservative to within one
//!   power of two.
//! * **Sampled traces** — when [`TelemetryConfig::trace_every`] is `N > 0`
//!   the classifier stamps every Nth admitted packet `traced` in its
//!   [`Metadata`] sidecar; copies and nils inherit the flag, and every
//!   stage that touches a traced reference appends a [`TraceHop`] to a
//!   bounded buffer. The result is a complete
//!   classify→copy→NF→merge→deliver timeline per sampled packet,
//!   including nil-packet propagation.
//!
//! With histograms off and `trace_every == 0` every instrumentation call
//! is a branch on a bool (no clock read, no lock): the disabled
//! configuration costs nearly nothing (see `telemetry_overhead` in
//! `crates/bench` and the `zero_sampling_overhead` test).
//!
//! [`Telemetry`] is the live recorder the engines share across stage
//! threads; [`TelemetrySnapshot`] is the plain-value export carried on
//! [`EngineReport`](crate::engine::EngineReport), serializable to JSON
//! ([`TelemetrySnapshot::to_json`]) and Prometheus text exposition
//! ([`TelemetrySnapshot::to_prometheus`]).

use crate::stats::atomic_max;
use nfp_orchestrator::Stage;
use nfp_packet::meta::Metadata;
use nfp_packet::pool::{PacketPool, PacketRef};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of log₂ buckets per histogram. Bucket 0 holds 0 ns; bucket `i`
/// (for `0 < i < 39`) holds `[2^(i-1), 2^i)` ns; bucket 39 holds
/// everything from `2^38` ns (~4.6 minutes) up.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The bucket index a nanosecond value lands in.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound (ns) of bucket `i` — what quantile reads report.
/// The last bucket is open-ended; callers clamp it to the observed max.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log₂ latency histogram: relaxed atomic bucket counters
/// plus count/sum/max, recordable from any stage thread and snapshot-able
/// without stopping the engine.
///
/// Cache-line aligned: per-stage histograms sit side by side in vectors
/// (one per NF, one per merger) and are written from different threads;
/// the alignment keeps one stage's counters off its neighbour's line.
#[derive(Debug)]
#[repr(align(64))]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A fresh, zeroed histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one latency observation.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        atomic_max(&self.max_ns, ns);
    }

    /// Record `n` observations that together took `total_ns`, using the
    /// burst's mean as the representative sample. This is the
    /// burst-amortized path: one clock pair per burst instead of one per
    /// packet, with the observation **count** (what the sync/threaded
    /// differential harness compares) exactly preserved.
    #[inline]
    pub fn record_split(&self, total_ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mean = total_ns / n;
        self.buckets[bucket_of(mean)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum_ns.fetch_add(total_ns, Ordering::Relaxed);
        atomic_max(&self.max_ns, mean);
    }

    /// Zero the histogram (only sound while nothing records into it).
    pub(crate) fn reset(&self) {
        for b in self
            .buckets
            .iter()
            .chain([&self.count, &self.sum_ns, &self.max_ns])
        {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Plain-value snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value histogram (what snapshots and reports carry).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed nanoseconds.
    pub sum_ns: u64,
    /// Largest single observation.
    pub max_ns: u64,
}

impl HistogramSnapshot {
    /// Fold another histogram of the same stage into this one (buckets and
    /// count/sum add; max keeps the maximum). Used for per-shard roll-up.
    pub fn absorb(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The nearest-rank `q`-quantile in nanoseconds, reported as the upper
    /// bound of the bucket holding that rank (conservative to within one
    /// power of two; clamped to the observed max). 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency (ns), bucket-resolution.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile latency (ns), bucket-resolution.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile latency (ns), bucket-resolution.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean latency (ns). 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// What the telemetry layer records. The default records histograms but
/// no traces; [`TelemetryConfig::disabled`] records nothing and reduces
/// every instrumentation call to a branch.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Record per-stage latency histograms.
    pub histograms: bool,
    /// Stamp every Nth classified packet `traced` (0 disables tracing).
    pub trace_every: u64,
    /// Trace-hop buffer capacity; hops beyond it are counted as
    /// [`TelemetrySnapshot::trace_drops`] instead of growing unboundedly.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            histograms: true,
            trace_every: 0,
            trace_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Record nothing (the near-zero-overhead configuration).
    pub fn disabled() -> Self {
        Self {
            histograms: false,
            trace_every: 0,
            trace_capacity: 0,
        }
    }

    /// Histograms on plus trace sampling of every `n`th packet.
    pub fn sampled(n: u64) -> Self {
        Self {
            trace_every: n,
            ..Self::default()
        }
    }
}

/// One hop of a traced packet's timeline: which stage touched which copy
/// of which packet, under which program epoch, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceHop {
    /// RSS shard that recorded the hop (0 outside [`crate::ShardedEngine`];
    /// PIDs are dense per shard, so traces group by `(shard, mid, pid)`).
    pub shard: u32,
    /// Match ID of the packet's service graph.
    pub mid: u32,
    /// Packet ID within the graph.
    pub pid: u64,
    /// Copy version the stage handled (v1 = original).
    pub version: u8,
    /// Whether the reference was a nil (drop-intention) packet.
    pub nil: bool,
    /// The pipeline stage that recorded the hop.
    pub stage: Stage,
    /// Program epoch stamped on the packet at this hop.
    pub epoch: u64,
    /// Nanoseconds since the session's telemetry started.
    pub t_ns: u64,
}

/// Human-readable stage label, matching
/// [`EngineStats::stages`](crate::stats::EngineStats::stages) labels.
pub fn stage_label(stage: Stage) -> String {
    match stage {
        Stage::Classifier => "classifier".to_string(),
        Stage::Nf(i) => format!("nf{i}"),
        Stage::Agent => "agent".to_string(),
        Stage::Merger(i) => format!("merger{i}"),
        Stage::Collector => "collector".to_string(),
    }
}

/// The live telemetry recorder one engine's stage threads share.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    classifier: LatencyHistogram,
    nfs: Vec<LatencyHistogram>,
    agent: LatencyHistogram,
    mergers: Vec<LatencyHistogram>,
    collector: LatencyHistogram,
    /// Inter-arrival gaps between backend-stamped ingress timestamps
    /// (pcap capture times, raw-socket receive times); empty for
    /// synthetic traffic, which carries no stamp.
    ingress: LatencyHistogram,
    /// The previous packet's ingress stamp (0 = none yet).
    ingress_prev: AtomicU64,
    trace: Mutex<TraceLog>,
    trace_drops: AtomicU64,
}

/// Sampled trace hops plus the clock origin their `t_ns` count from.
#[derive(Debug)]
struct TraceLog {
    start: Instant,
    hops: Vec<TraceHop>,
}

impl Telemetry {
    /// A recorder for an engine with `nfs` NF runtimes and `mergers`
    /// merger instances.
    pub fn new(config: TelemetryConfig, nfs: usize, mergers: usize) -> Self {
        Self {
            config,
            classifier: LatencyHistogram::new(),
            nfs: (0..nfs).map(|_| LatencyHistogram::new()).collect(),
            agent: LatencyHistogram::new(),
            mergers: (0..mergers).map(|_| LatencyHistogram::new()).collect(),
            collector: LatencyHistogram::new(),
            ingress: LatencyHistogram::new(),
            ingress_prev: AtomicU64::new(0),
            trace: Mutex::new(TraceLog {
                start: Instant::now(),
                hops: Vec::new(),
            }),
            trace_drops: AtomicU64::new(0),
        }
    }

    /// Clear every histogram and trace and restart the trace clock, as
    /// if freshly built — the start of a session on a long-lived engine.
    /// Only sound while no stage is recording.
    pub(crate) fn reset(&self) {
        let hists = [
            &self.classifier,
            &self.agent,
            &self.collector,
            &self.ingress,
        ];
        for h in hists.into_iter().chain(&self.nfs).chain(&self.mergers) {
            h.reset();
        }
        self.ingress_prev.store(0, Ordering::Relaxed);
        self.trace_drops.store(0, Ordering::Relaxed);
        let mut trace = self.trace.lock().expect("trace buffer poisoned");
        trace.start = Instant::now();
        trace.hops.clear();
    }

    /// A recorder that records nothing (for paths that need a `Telemetry`
    /// but were configured without one).
    pub fn off() -> Self {
        Self::new(TelemetryConfig::disabled(), 0, 0)
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Take a stage-latency start timestamp — `None` when histograms are
    /// off, so the disabled path never reads the clock. Pair with
    /// [`Telemetry::record`].
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.config.histograms {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Whether trace sampling is enabled.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.config.trace_every > 0
    }

    /// The classifier's sampling period (0 = tracing off).
    pub fn trace_every(&self) -> u64 {
        self.config.trace_every
    }

    fn hist(&self, stage: Stage) -> Option<&LatencyHistogram> {
        match stage {
            Stage::Classifier => Some(&self.classifier),
            Stage::Nf(i) => self.nfs.get(i),
            Stage::Agent => Some(&self.agent),
            Stage::Merger(i) => self.mergers.get(i),
            Stage::Collector => Some(&self.collector),
        }
    }

    /// Record the elapsed time since `t0` into `stage`'s histogram. A
    /// `None` clock (histograms off) makes this a no-op.
    #[inline]
    pub fn record(&self, stage: Stage, t0: Option<Instant>) {
        if let (Some(t0), Some(h)) = (t0, self.hist(stage)) {
            h.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Burst-amortized form of [`Telemetry::record`]: one elapsed-time
    /// measurement split across the `n` packets of a burst. Histogram
    /// counts advance by exactly `n`, as if each packet were recorded.
    #[inline]
    pub fn record_split(&self, stage: Stage, t0: Option<Instant>, n: u64) {
        if let (Some(t0), Some(h)) = (t0, self.hist(stage)) {
            h.record_split(t0.elapsed().as_nanos() as u64, n);
        }
    }

    /// Record a backend arrival timestamp: the gap to the previously
    /// admitted packet's stamp lands in the `ingress` histogram, so a
    /// replayed trace's inter-arrival shape is visible next to the
    /// stage-latency histograms. A zero stamp (synthetic traffic) and
    /// the first stamped packet are no-ops; out-of-order stamps record
    /// a zero gap rather than wrapping.
    #[inline]
    pub fn note_ingress(&self, ingress_ns: u64) {
        if ingress_ns == 0 || !self.config.histograms {
            return;
        }
        let prev = self.ingress_prev.swap(ingress_ns, Ordering::Relaxed);
        if prev != 0 {
            self.ingress.record_ns(ingress_ns.saturating_sub(prev));
        }
    }

    /// Append a hop for a traced packet (no-op unless `meta.traced()`).
    /// The buffer is bounded by [`TelemetryConfig::trace_capacity`]; hops
    /// past it are counted, not stored.
    #[inline]
    pub fn hop_if_traced(&self, stage: Stage, meta: Metadata, nil: bool) {
        if !self.tracing() || !meta.traced() {
            return;
        }
        let hop = TraceHop {
            shard: 0,
            mid: meta.mid(),
            pid: meta.pid(),
            version: meta.version(),
            nil,
            stage,
            epoch: meta.epoch(),
            t_ns: 0,
        };
        let mut trace = self.trace.lock().expect("trace buffer poisoned");
        if trace.hops.len() < self.config.trace_capacity {
            let t_ns = trace.start.elapsed().as_nanos() as u64;
            trace.hops.push(TraceHop { t_ns, ..hop });
        } else {
            self.trace_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Append a hop for a pooled reference if its packet is traced —
    /// the per-stage instrumentation point for `Msg`-carrying stages.
    #[inline]
    pub fn trace_ref(&self, stage: Stage, pool: &PacketPool, r: PacketRef) {
        if !self.tracing() {
            return;
        }
        let (meta, nil) = pool.with(r, |p| (p.meta(), p.is_nil()));
        self.hop_if_traced(stage, meta, nil);
    }

    /// Remove the most recent classifier hop recorded for `pid` — the
    /// classifier's rollback when entry actions hit pool backpressure
    /// after the hop was recorded (the admission will be retried and
    /// re-recorded).
    pub fn retract_classifier_hop(&self, pid: u64) {
        if !self.tracing() {
            return;
        }
        let mut trace = self.trace.lock().expect("trace buffer poisoned");
        if let Some(pos) = trace
            .hops
            .iter()
            .rposition(|h| h.stage == Stage::Classifier && h.pid == pid)
        {
            trace.hops.remove(pos);
        }
    }

    /// Plain-value export of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut stages = Vec::with_capacity(4 + self.nfs.len() + self.mergers.len());
        stages.push(StageTelemetry {
            label: "ingress".to_string(),
            hist: self.ingress.snapshot(),
        });
        stages.push(StageTelemetry {
            label: stage_label(Stage::Classifier),
            hist: self.classifier.snapshot(),
        });
        for (i, h) in self.nfs.iter().enumerate() {
            stages.push(StageTelemetry {
                label: stage_label(Stage::Nf(i)),
                hist: h.snapshot(),
            });
        }
        stages.push(StageTelemetry {
            label: stage_label(Stage::Agent),
            hist: self.agent.snapshot(),
        });
        for (i, h) in self.mergers.iter().enumerate() {
            stages.push(StageTelemetry {
                label: stage_label(Stage::Merger(i)),
                hist: h.snapshot(),
            });
        }
        stages.push(StageTelemetry {
            label: stage_label(Stage::Collector),
            hist: self.collector.snapshot(),
        });
        TelemetrySnapshot {
            stages,
            hops: self
                .trace
                .lock()
                .expect("trace buffer poisoned")
                .hops
                .clone(),
            trace_drops: self.trace_drops.load(Ordering::Relaxed),
        }
    }
}

/// One stage's latency histogram, labelled like
/// [`EngineStats::stages`](crate::stats::EngineStats::stages).
#[derive(Debug, Clone, Default)]
pub struct StageTelemetry {
    /// Stage label (`classifier`, `nf0`…, `agent`, `merger0`…, `collector`).
    pub label: String,
    /// The stage's latency histogram.
    pub hist: HistogramSnapshot,
}

/// One traced packet's complete timeline, grouped from the hop buffer.
#[derive(Debug, Clone)]
pub struct PacketTrace {
    /// RSS shard the packet was classified on.
    pub shard: u32,
    /// Match ID of the packet's service graph.
    pub mid: u32,
    /// Packet ID.
    pub pid: u64,
    /// The hops, in recording order (a causal order per packet).
    pub hops: Vec<TraceHop>,
}

/// Plain-value telemetry export: per-stage histograms plus the trace-hop
/// buffer. Carried on [`EngineReport`](crate::engine::EngineReport);
/// mergeable across shards; serializable to JSON and Prometheus text.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Per-stage histograms, classifier → NFs → agent → mergers → collector.
    pub stages: Vec<StageTelemetry>,
    /// Recorded trace hops, in recording order.
    pub hops: Vec<TraceHop>,
    /// Hops lost to the bounded trace buffer.
    pub trace_drops: u64,
}

impl TelemetrySnapshot {
    /// An empty snapshot (engines configured without telemetry).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The histogram for a stage label, if present.
    pub fn stage(&self, label: &str) -> Option<&StageTelemetry> {
        self.stages.iter().find(|s| s.label == label)
    }

    /// Total histogram observations across all stages.
    pub fn total_count(&self) -> u64 {
        self.stages.iter().map(|s| s.hist.count).sum()
    }

    /// Tag every hop with an RSS shard index (the sharded engine calls
    /// this per replica before merging, so dense per-shard PIDs do not
    /// collide in the fleet-wide snapshot).
    pub fn tag_shard(&mut self, shard: u32) {
        for h in &mut self.hops {
            h.shard = shard;
        }
    }

    /// Fold another snapshot into this one: same-label histograms absorb,
    /// new labels append, hops concatenate, drop counts add.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.stages {
            match self.stages.iter_mut().find(|s| s.label == theirs.label) {
                Some(mine) => mine.hist.absorb(&theirs.hist),
                None => self.stages.push(theirs.clone()),
            }
        }
        self.hops.extend(other.hops.iter().copied());
        self.trace_drops += other.trace_drops;
    }

    /// Group the hop buffer into per-packet timelines, keyed by
    /// `(shard, mid, pid)`, preserving recording order within each packet.
    pub fn traces(&self) -> Vec<PacketTrace> {
        let mut order: Vec<PacketTrace> = Vec::new();
        let mut index = std::collections::HashMap::new();
        for h in &self.hops {
            let key = (h.shard, h.mid, h.pid);
            let at = *index.entry(key).or_insert_with(|| {
                order.push(PacketTrace {
                    shard: h.shard,
                    mid: h.mid,
                    pid: h.pid,
                    hops: Vec::new(),
                });
                order.len() - 1
            });
            order[at].hops.push(*h);
        }
        order
    }

    /// Serialize to JSON (hand-rolled; buckets are sparse `[index, count]`
    /// pairs so disabled stages stay tiny).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            let sparse: Vec<String> = s
                .hist
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            let _ = write!(
                out,
                "    {{\"stage\":\"{}\",\"count\":{},\"sum_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}{}",
                s.label,
                s.hist.count,
                s.hist.sum_ns,
                s.hist.max_ns,
                s.hist.p50_ns(),
                s.hist.p90_ns(),
                s.hist.p99_ns(),
                sparse.join(","),
                if i + 1 < self.stages.len() { ",\n" } else { "\n" }
            );
        }
        out.push_str("  ],\n  \"hops\": [\n");
        for (i, h) in self.hops.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"shard\":{},\"mid\":{},\"pid\":{},\"version\":{},\"nil\":{},\"stage\":\"{}\",\"epoch\":{},\"t_ns\":{}}}{}",
                h.shard,
                h.mid,
                h.pid,
                h.version,
                h.nil,
                stage_label(h.stage),
                h.epoch,
                h.t_ns,
                if i + 1 < self.hops.len() { ",\n" } else { "\n" }
            );
        }
        let _ = write!(out, "  ],\n  \"trace_drops\": {}\n}}\n", self.trace_drops);
        out
    }

    /// Serialize to Prometheus text exposition (cumulative `le` buckets
    /// per stage plus `_sum`/`_count`, a per-stage max gauge, and trace
    /// counters).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE nfp_stage_latency_ns histogram\n");
        for s in &self.stages {
            let mut cumulative = 0u64;
            for (i, b) in s.hist.buckets.iter().enumerate() {
                cumulative += b;
                if *b == 0 && i + 1 != s.hist.buckets.len() {
                    continue; // sparse: only emit buckets that changed the count
                }
                let le = if i + 1 == s.hist.buckets.len() {
                    "+Inf".to_string()
                } else {
                    bucket_upper(i).to_string()
                };
                let _ = writeln!(
                    out,
                    "nfp_stage_latency_ns_bucket{{stage=\"{}\",le=\"{}\"}} {}",
                    s.label, le, cumulative
                );
            }
            let _ = writeln!(
                out,
                "nfp_stage_latency_ns_sum{{stage=\"{}\"}} {}",
                s.label, s.hist.sum_ns
            );
            let _ = writeln!(
                out,
                "nfp_stage_latency_ns_count{{stage=\"{}\"}} {}",
                s.label, s.hist.count
            );
        }
        out.push_str("# TYPE nfp_stage_latency_max_ns gauge\n");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "nfp_stage_latency_max_ns{{stage=\"{}\"}} {}",
                s.label, s.hist.max_ns
            );
        }
        out.push_str("# TYPE nfp_trace_hops_total counter\n");
        let _ = writeln!(out, "nfp_trace_hops_total {}", self.hops.len());
        out.push_str("# TYPE nfp_trace_drops_total counter\n");
        let _ = writeln!(out, "nfp_trace_drops_total {}", self.trace_drops);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Bucket upper bounds bracket their members.
        for ns in [0u64, 1, 7, 100, 65_536, 1 << 38] {
            assert!(ns <= bucket_upper(bucket_of(ns)));
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 1000, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum_ns, 101_060);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.mean_ns(), 20_212);
        // p50 sits in 30's bucket [16,31]; p99 in the max's bucket, clamped.
        assert_eq!(s.p50_ns(), 31);
        assert_eq!(s.p99_ns(), 100_000);
        assert!(s.p50_ns() <= s.p90_ns() && s.p90_ns() <= s.p99_ns());
        // Empty histogram quantiles are 0.
        assert_eq!(HistogramSnapshot::default().p99_ns(), 0);
    }

    #[test]
    fn record_split_preserves_counts_and_totals() {
        let h = LatencyHistogram::new();
        h.record_split(3200, 32); // a 32-packet burst, mean 100 ns
        h.record_split(0, 0); // empty burst is a no-op
        let s = h.snapshot();
        assert_eq!(s.count, 32, "one count per packet of the burst");
        assert_eq!(s.sum_ns, 3200);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.buckets.iter().sum::<u64>(), 32);
        // All 32 land in the mean's bucket.
        assert_eq!(s.buckets[bucket_of(100)], 32);
    }

    #[test]
    fn histograms_absorb() {
        let a = LatencyHistogram::new();
        a.record_ns(5);
        a.record_ns(500);
        let b = LatencyHistogram::new();
        b.record_ns(50_000);
        let mut s = a.snapshot();
        s.absorb(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 50_505);
        assert_eq!(s.max_ns, 50_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn disabled_clock_skips_recording() {
        let t = Telemetry::off();
        assert!(t.clock().is_none());
        assert!(!t.tracing());
        let t0 = t.clock();
        t.record(Stage::Classifier, t0);
        let pool = PacketPool::new(1);
        let r = pool
            .insert(nfp_packet::Packet::from_bytes(&[0u8; 60]).unwrap())
            .unwrap();
        t.trace_ref(Stage::Classifier, &pool, r);
        assert_eq!(t.snapshot().total_count(), 0);
        assert!(t.snapshot().hops.is_empty());
    }

    #[test]
    fn hops_record_bounded_and_group() {
        let t = Telemetry::new(
            TelemetryConfig {
                histograms: false,
                trace_every: 1,
                trace_capacity: 3,
            },
            1,
            1,
        );
        let m = Metadata::new(7, 3, 1).with_epoch(2).with_traced(true);
        t.hop_if_traced(Stage::Classifier, m, false);
        t.hop_if_traced(Stage::Nf(0), m.with_version(2), false);
        t.hop_if_traced(Stage::Merger(0), m, true);
        t.hop_if_traced(Stage::Collector, m, false); // over capacity
        t.hop_if_traced(Stage::Collector, m.with_traced(false), false); // untraced
        let snap = t.snapshot();
        assert_eq!(snap.hops.len(), 3);
        assert_eq!(snap.trace_drops, 1);
        let traces = snap.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].pid, 3);
        assert_eq!(traces[0].hops[0].stage, Stage::Classifier);
        assert_eq!(traces[0].hops[1].version, 2);
        assert!(traces[0].hops[2].nil);
        assert_eq!(traces[0].hops[2].epoch, 2);
    }

    #[test]
    fn classifier_hop_retracts() {
        let t = Telemetry::new(TelemetryConfig::sampled(1), 0, 0);
        let m = Metadata::new(1, 9, 1).with_traced(true);
        t.hop_if_traced(Stage::Classifier, m, false);
        t.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 10, 1).with_traced(true),
            false,
        );
        t.retract_classifier_hop(9);
        let snap = t.snapshot();
        assert_eq!(snap.hops.len(), 1);
        assert_eq!(snap.hops[0].pid, 10);
        // Retracting an unrecorded pid is harmless.
        t.retract_classifier_hop(99);
    }

    #[test]
    fn snapshot_merges_and_tags_shards() {
        let a = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        a.record(Stage::Nf(0), a.clock());
        a.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 0, 1).with_traced(true),
            false,
        );
        let b = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        b.record(Stage::Nf(0), b.clock());
        b.hop_if_traced(
            Stage::Classifier,
            Metadata::new(1, 0, 1).with_traced(true),
            false,
        );
        let mut sa = a.snapshot();
        let mut sb = b.snapshot();
        sa.tag_shard(0);
        sb.tag_shard(1);
        sa.merge(&sb);
        assert_eq!(sa.stage("nf0").unwrap().hist.count, 2);
        // Same dense pid on two shards stays two distinct traces.
        assert_eq!(sa.traces().len(), 2);
    }

    #[test]
    fn serializers_emit_both_formats() {
        let t = Telemetry::new(TelemetryConfig::sampled(1), 1, 1);
        t.record(Stage::Classifier, t.clock());
        t.hop_if_traced(
            Stage::Classifier,
            Metadata::new(5, 1, 1).with_traced(true),
            false,
        );
        let snap = t.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"stage\":\"classifier\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"hops\""));
        let prom = snap.to_prometheus();
        assert!(prom.contains("nfp_stage_latency_ns_bucket{stage=\"classifier\",le=\"+Inf\"} 1"));
        assert!(prom.contains("nfp_stage_latency_ns_count{stage=\"nf0\"} 0"));
        assert!(prom.contains("nfp_trace_hops_total 1"));
    }
}
