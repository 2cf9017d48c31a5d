//! The traced run's instruments: an in-memory span recorder, timing
//! wrappers around NFs and I/O backends, self time, and process CPU time.
//!
//! Spans are `(name, start, end, parent)` records kept in memory and
//! written out once, when the benchmark ends. NF calls are sampled (one
//! in [`NF_SAMPLE_EVERY`]) because a clock read costs tens of ns against
//! a few hundred ns of NF work on 64-byte frames; I/O backends are timed
//! per burst.

use nfp_nf::{FlowSnapshot, NetworkFunction, PacketView, Verdict};
use nfp_orchestrator::ActionProfile;
use nfp_packet::io::{Egress, Ingress, IoError};
use nfp_packet::Packet;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One NF call in this many is timed.
pub const NF_SAMPLE_EVERY: u64 = 16;

/// Spans a recorder keeps (counts keep accumulating past it), which
/// bounds the memory and the file a long traced run leaves behind.
const MAX_SPANS: usize = 100_000;

/// One recorded span. Times are ns since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (unique per recorder).
    pub id: u32,
    /// Layer name, e.g. `engine.threaded`, `nf.IDS`, `io.read`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u32,
}

/// Exact per-layer counts gathered next to the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Calls made (every call, sampled or not).
    pub calls: u64,
    /// Calls that returned `Verdict::Drop`.
    pub drops: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Sum of the timed calls' durations.
    pub sampled_ns: u64,
    /// Packets moved by the layer (I/O backends).
    pub packets: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.calls += o.calls;
        self.drops += o.drops;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
        self.packets += o.packets;
    }

    /// Mean duration of a timed call, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.sampled_ns as f64 / self.sampled as f64
        }
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    /// Spans recorded past [`MAX_SPANS`] and not kept.
    dropped: u64,
    counts: BTreeMap<String, Counts>,
}

/// The span recorder shared by every wrapper of a traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    root: AtomicU32,
    store: Mutex<Store>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            store: Mutex::new(Store::default()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Time `f` as a root span named `name`; wrapper spans recorded while
    /// it runs name it as their parent.
    pub fn root<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        self.root.store(id, Ordering::Relaxed);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.root.store(0, Ordering::Relaxed);
        self.absorb(
            vec![Span {
                id,
                name: name.to_string(),
                start,
                end,
                parent: 0,
            }],
            None,
        );
        out
    }

    fn absorb(&self, spans: Vec<Span>, counts: Option<(&str, &Counts)>) {
        let mut st = self.store.lock().expect("span store poisoned");
        let room = MAX_SPANS.saturating_sub(st.spans.len());
        st.dropped += spans.len().saturating_sub(room) as u64;
        st.spans.extend(spans.into_iter().take(room));
        if let Some((name, c)) = counts {
            st.counts.entry(name.to_string()).or_default().absorb(c);
        }
    }

    /// Counts gathered so far for a layer name.
    pub fn counts(&self, name: &str) -> Counts {
        let st = self.store.lock().expect("span store poisoned");
        st.counts.get(name).copied().unwrap_or_default()
    }

    /// Spans recorded past the cap and not kept.
    pub fn dropped(&self) -> u64 {
        self.store.lock().expect("span store poisoned").dropped
    }

    /// Every kept span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.store
            .lock()
            .expect("span store poisoned")
            .spans
            .clone()
    }

    /// Write every span with its self time as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (s, self_ns) in spans.iter().zip(selfs) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.start, s.end, s.parent, self_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children, e.g. NF
/// spans on different stage threads, count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur - covered
        })
        .collect()
}

/// Local buffer of one wrapper, flushed into the tracer on drop so the
/// packet path never takes the store lock.
struct Local {
    tracer: Arc<Tracer>,
    name: String,
    spans: Vec<Span>,
    counts: Counts,
}

impl Local {
    fn new(tracer: Arc<Tracer>, name: String) -> Self {
        Local {
            tracer,
            name,
            spans: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Open a span: its start time.
    fn open(&self) -> u64 {
        self.tracer.now()
    }

    /// Close a span opened by [`Local::open`].
    fn close(&mut self, start: u64) {
        let end = self.tracer.now();
        self.counts.sampled += 1;
        self.counts.sampled_ns += end - start;
        self.spans.push(Span {
            id: self.tracer.id(),
            name: self.name.clone(),
            start,
            end,
            parent: self.tracer.root.load(Ordering::Relaxed),
        });
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.tracer.absorb(
            std::mem::take(&mut self.spans),
            Some((&self.name, &self.counts)),
        );
    }
}

/// A timing wrapper around an NF: every hook forwards to the inner NF
/// (as the `nf::chaos` wrappers do); one call in [`NF_SAMPLE_EVERY`] is
/// timed as an `nf.<name>` span.
pub struct TimedNf {
    inner: Box<dyn NetworkFunction>,
    local: Local,
}

impl TimedNf {
    /// Wrap `inner`, recording into `tracer`.
    pub fn wrap(inner: Box<dyn NetworkFunction>, tracer: &Arc<Tracer>) -> Box<dyn NetworkFunction> {
        let name = format!("nf.{}", inner.name());
        Box::new(TimedNf {
            inner,
            local: Local::new(Arc::clone(tracer), name),
        })
    }
}

impl NetworkFunction for TimedNf {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> ActionProfile {
        self.inner.profile()
    }

    fn process(&mut self, pkt: &mut PacketView<'_>) -> Verdict {
        self.local.counts.calls += 1;
        let verdict = if self.local.counts.calls % NF_SAMPLE_EVERY == 1 {
            let span = self.local.open();
            let v = self.inner.process(pkt);
            self.local.close(span);
            v
        } else {
            self.inner.process(pkt)
        };
        if verdict == Verdict::Drop {
            self.local.counts.drops += 1;
        }
        verdict
    }

    fn stateful(&self) -> bool {
        self.inner.stateful()
    }

    fn snapshot_state(&self) -> FlowSnapshot {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, snap: &FlowSnapshot) {
        self.inner.restore_state(snap)
    }

    fn bind_partition(&mut self, index: usize, total: usize) {
        self.inner.bind_partition(index, total)
    }
}

/// A timing wrapper around an ingress: every burst pull is an `io.read`
/// span.
pub struct TimedIngress<'a> {
    inner: &'a mut dyn Ingress,
    local: Local,
}

impl<'a> TimedIngress<'a> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn Ingress, tracer: &Arc<Tracer>) -> Self {
        TimedIngress {
            inner,
            local: Local::new(Arc::clone(tracer), "io.read".to_string()),
        }
    }
}

impl Ingress for TimedIngress<'_> {
    fn next_burst(&mut self, max: usize) -> Result<Option<Vec<Packet>>, IoError> {
        let span = self.local.open();
        let out = self.inner.next_burst(max);
        self.local.close(span);
        self.local.counts.calls += 1;
        if let Ok(Some(pkts)) = &out {
            self.local.counts.packets += pkts.len() as u64;
        }
        out
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// A timing wrapper around an egress: every burst emit and the final
/// flush are `io.write` spans.
pub struct TimedEgress<'a> {
    inner: &'a mut dyn Egress,
    local: Local,
}

impl<'a> TimedEgress<'a> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: &'a mut dyn Egress, tracer: &Arc<Tracer>) -> Self {
        TimedEgress {
            inner,
            local: Local::new(Arc::clone(tracer), "io.write".to_string()),
        }
    }
}

impl Egress for TimedEgress<'_> {
    fn emit_burst(&mut self, pkts: &[Packet]) -> Result<(), IoError> {
        let span = self.local.open();
        let out = self.inner.emit_burst(pkts);
        self.local.close(span);
        self.local.counts.calls += 1;
        self.local.counts.packets += pkts.len() as u64;
        out
    }

    fn flush(&mut self) -> Result<(), IoError> {
        let span = self.local.open();
        let out = self.inner.flush();
        self.local.close(span);
        out
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

/// CPU time (user + system) this process has used, every thread (live
/// or exited) included, from `/proc/self/stat`, in seconds. Linux reports
/// it in `USER_HZ` ticks, 1/100 s on every mainstream architecture.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    // utime is field 14 and stime field 15 → indices 11 and 12 here.
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start: u64, end: u64, parent: u32) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 100, 0),
            // Two overlapping children on different threads: 10..40.
            span(2, 10, 30, 1),
            span(3, 20, 40, 1),
            // A disjoint child: 60..70.
            span(4, 60, 70, 1),
            // A child overhanging the parent's end is clipped: 95..100.
            span(5, 95, 120, 1),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10 - 5, 20, 20, 10, 25]);
    }

    #[test]
    fn timed_nf_forwards_and_samples() {
        let tracer = Tracer::new();
        let mut nf = TimedNf::wrap(nfp_bench::setups::make_nf("Firewall"), &tracer);
        assert_eq!(nf.name(), "Firewall");
        let pkts = nfp_bench::setups::fixed_traffic(40, 64);
        tracer.root("engine.test", || {
            for mut p in pkts {
                let mut view = PacketView::Exclusive(&mut p);
                nf.process(&mut view);
            }
        });
        drop(nf);
        let c = tracer.counts("nf.Firewall");
        assert_eq!(c.calls, 40);
        assert_eq!(c.sampled, 3, "calls 1, 17 and 33 are timed");
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.parent == 0).unwrap();
        assert!(spans.iter().filter(|s| s.parent == root.id).count() == 3);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > t0, "{x}");
    }
}
