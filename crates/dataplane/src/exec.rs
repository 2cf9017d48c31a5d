//! Threading model for the dataplane: core budgets, stage coalescing,
//! adaptive idling and cache-line padding.
//!
//! The threaded engine used to spawn one thread per stage (classifier,
//! each NF, agent, each merger, collector) and busy-poll `yield_now`
//! whenever a ring was empty. With `shards × stages` threads that
//! oversubscribes any real host long before four shards — the observed
//! 4-shard throughput *inversion* — and the idle spinning burns exactly
//! the cores the busy shards need.
//!
//! This module owns the replacement:
//!
//! * [`plan_groups`] — partition the pipeline's stage tasks into at most
//!   `core_budget` contiguous groups, one OS thread per group;
//! * [`StageCore`] + [`drive`] — the run-to-completion scheduling loop
//!   that round-robins a group's stages, passing a full burst through
//!   each stage per pass;
//! * [`SessionGate`] + [`serve`] — the long-lived stage thread: blocked
//!   on the gate between sessions, driving its group through each one;
//! * [`IdlePolicy`] / [`Idler`] / [`WakeHub`] — the shared spin → yield
//!   → park backoff, with an eventcount so ring producers can wake
//!   parked consumers without a lost-wakeup window;
//! * [`CachePadded`] — 64-byte alignment wrapper used by the
//!   false-sharing audit (ring indices, stage stats, histograms);
//! * [`host_parallelism`] / [`pin_current_thread`] — placement helpers.

use std::cell::Cell;
use std::ops::{Deref, DerefMut, Range};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Pads and aligns a value to a 64-byte cache line so two adjacent
/// values never share a line (the false-sharing audit's workhorse).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// What an engine thread does when a scheduling pass makes no progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdlePolicy {
    /// Always `yield_now` — the pre-refactor behaviour, kept for A/B
    /// benchmarking. Burns a core while idle.
    Spin,
    /// Escalating backoff: `spin` passes of `spin_loop` hints, then
    /// `yields` passes of `yield_now`, then park on the engine's
    /// [`WakeHub`] for at most `park_timeout` per pass.
    Backoff {
        /// Number of no-progress passes spent spinning before yielding.
        spin: u32,
        /// Number of no-progress passes spent yielding before parking.
        yields: u32,
        /// Upper bound on a single park; bounds any wakeup race and
        /// keeps watchdog checks running. Must be non-zero.
        park_timeout: Duration,
    },
}

impl Default for IdlePolicy {
    fn default() -> Self {
        IdlePolicy::Backoff {
            spin: 64,
            yields: 16,
            park_timeout: Duration::from_micros(200),
        }
    }
}

/// Eventcount used to park idle engine threads and wake them when a
/// producer makes progress.
///
/// Wakeup protocol (all `SeqCst`, see DESIGN.md §11):
///
/// * a waiter loads `generation`, re-checks its work predicate,
///   registers in `sleepers`, and only sleeps if the generation is
///   still unchanged under the mutex;
/// * a notifier publishes its work (ring `Release` store), bumps
///   `generation`, and broadcasts only if `sleepers > 0`.
///
/// Either the waiter sees the bumped generation and skips the sleep,
/// or the notifier sees the registered sleeper and broadcasts under
/// the same mutex the waiter sleeps on. The bounded `park_timeout`
/// additionally covers paths that do not notify (e.g. pool releases).
///
/// A hub may have a *parent* that every notification is forwarded to:
/// each shard of a fleet parks its stage threads on its own hub, and the
/// one thread driving every shard parks on the shared parent — woken by
/// progress anywhere, without shards waking each other.
#[derive(Debug, Default)]
pub struct WakeHub {
    generation: AtomicU64,
    sleepers: AtomicU32,
    lock: Mutex<()>,
    cv: Condvar,
    parent: Option<Arc<WakeHub>>,
}

impl WakeHub {
    /// New hub with no sleepers.
    pub fn new() -> Self {
        Self::default()
    }

    /// New hub forwarding every notification to `parent` as well.
    pub fn with_parent(parent: Arc<WakeHub>) -> Self {
        Self {
            parent: Some(parent),
            ..Self::default()
        }
    }

    /// Record that new work may exist and wake any parked threads.
    pub fn notify(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Serialize with parkers between their generation check and
            // their wait, so the broadcast cannot land in the gap.
            drop(self.lock.lock().unwrap());
            self.cv.notify_all();
        }
        if let Some(parent) = &self.parent {
            parent.notify();
        }
    }

    /// Park the calling thread for at most `timeout`, unless `ready`
    /// reports work or a notification raced in. Returns immediately
    /// (after a `yield_now`) when `ready()` is already true.
    pub fn park(&self, timeout: Duration, ready: impl Fn() -> bool) {
        let gen = self.generation.load(Ordering::SeqCst);
        if ready() {
            std::thread::yield_now();
            return;
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        {
            let guard = self.lock.lock().unwrap();
            if self.generation.load(Ordering::SeqCst) == gen && !ready() {
                let _ = self.cv.wait_timeout(guard, timeout);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Number of threads currently registered as (possibly) parked.
    pub fn sleepers(&self) -> u32 {
        self.sleepers.load(Ordering::SeqCst)
    }
}

/// Per-thread idle state machine driving an [`IdlePolicy`] against a
/// shared [`WakeHub`].
#[derive(Debug)]
pub struct Idler<'a> {
    hub: &'a WakeHub,
    policy: IdlePolicy,
    streak: u32,
}

impl<'a> Idler<'a> {
    /// New idler in the "just made progress" state.
    pub fn new(hub: &'a WakeHub, policy: IdlePolicy) -> Self {
        Idler {
            hub,
            policy,
            streak: 0,
        }
    }

    /// Call after a pass that made progress: restart the backoff.
    pub fn reset(&mut self) {
        self.streak = 0;
    }

    /// Call after a pass that made no progress. Spins, yields or parks
    /// according to the policy and the current no-progress streak.
    /// `ready` is the caller's "work is visible" predicate, re-checked
    /// race-free before any park.
    pub fn idle(&mut self, ready: impl Fn() -> bool) {
        match self.policy {
            IdlePolicy::Spin => std::thread::yield_now(),
            IdlePolicy::Backoff {
                spin,
                yields,
                park_timeout,
            } => {
                self.streak = self.streak.saturating_add(1);
                if self.streak <= spin {
                    std::hint::spin_loop();
                } else if self.streak <= spin + yields {
                    std::thread::yield_now();
                } else {
                    self.hub.park(park_timeout, ready);
                }
            }
        }
    }
}

/// Number of hardware threads available to this process (cached).
pub fn host_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Partition `n_tasks` pipeline stages (in pipeline order) into at most
/// `budget` contiguous groups of near-equal size. Each group becomes one
/// OS thread; contiguity keeps producer→consumer stage pairs on the
/// same thread when coalescing, so a burst flows through them in one
/// pass without a context switch.
pub fn plan_groups(n_tasks: usize, budget: usize) -> Vec<Range<usize>> {
    let groups = budget.max(1).min(n_tasks);
    let mut out = Vec::with_capacity(groups);
    let base = n_tasks / groups.max(1);
    let extra = n_tasks % groups.max(1);
    let mut start = 0;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Partition a stage pipeline of `front` pre-merge tasks (classifier +
/// NFs) and `back` merge-side tasks (agent, mergers, collector) into at
/// most `budget` contiguous groups, spending at least one thread on each
/// *section* whenever `budget >= 2`.
///
/// The section boundary is a failure-containment boundary: NFs run
/// arbitrary user code that can block its whole group, and the merge
/// deadline (see DESIGN.md "Failure model") is only enforceable while
/// the agent/merger/collector side keeps getting CPU. With the sections
/// split, an NF that stalls mid-`handle` delays only admission and its
/// peers; expiry, tombstones and delivery keep running. `budget == 1`
/// coalesces everything onto one thread and trades that guarantee for
/// the engine watchdog as the only backstop.
pub fn plan_pipeline_groups(front: usize, back: usize, budget: usize) -> Vec<Range<usize>> {
    let total = front + back;
    let budget = budget.max(1).min(total);
    if budget == 1 || front == 0 || back == 0 {
        return plan_groups(total, budget);
    }
    // Split the budget proportionally to section size, ≥ 1 thread each.
    let front_budget = ((budget * front + total / 2) / total).clamp(1, budget - 1);
    let back_budget = budget - front_budget;
    let mut out = plan_groups(front, front_budget);
    out.extend(
        plan_groups(back, back_budget)
            .into_iter()
            .map(|r| r.start + front..r.end + front),
    );
    out
}

/// Best-effort pin of the calling thread to `cpu`. Returns `true` on
/// success. No-op (returns `false`) on non-Linux targets.
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        if cpu >= 16 * 64 {
            return false;
        }
        let set = affinity::CpuSet::single(cpu);
        // SAFETY: `set` is a live, initialised mask of `SIZE` bytes that
        // the call only reads.
        unsafe { affinity::sched_setaffinity(0, affinity::SIZE, &set) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; 16],
    }

    impl CpuSet {
        pub fn single(cpu: usize) -> Self {
            let mut set = CpuSet { bits: [0; 16] };
            set.bits[cpu / 64] |= 1u64 << (cpu % 64);
            set
        }

        pub fn cpus(&self) -> Vec<usize> {
            (0..16 * 64)
                .filter(|&c| self.bits[c / 64] & (1u64 << (c % 64)) != 0)
                .collect()
        }
    }

    // std already links libc; declare the calls we need instead of
    // adding a libc dependency. pid 0 = calling thread.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        pub fn sched_getcpu() -> i32;
    }

    pub const SIZE: usize = std::mem::size_of::<CpuSet>();

    /// The calling thread's affinity mask.
    pub fn current() -> Option<CpuSet> {
        let mut mask = CpuSet { bits: [0; 16] };
        // SAFETY: `mask` is a writable buffer of exactly `SIZE` bytes.
        (unsafe { sched_getaffinity(0, SIZE, &mut mask) } == 0).then_some(mask)
    }
}

/// The CPU `k` places after the calling thread's current one in its
/// affinity mask (wrapping), or `None` when there is no choice to make
/// (a single allowed CPU, or a non-Linux target). Engines use it to
/// spread their stage threads relative to the thread that builds them.
pub fn cpu_after_current(k: usize) -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let cpus = affinity::current()?.cpus();
        // SAFETY: takes no arguments and touches no memory.
        let here = unsafe { affinity::sched_getcpu() };
        if cpus.len() < 2 || here < 0 {
            return None;
        }
        let i = cpus.iter().position(|&c| c == here as usize).unwrap_or(0);
        Some(cpus[(i + k) % cpus.len()])
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = k;
        None
    }
}

/// Best-effort one-time move of the calling thread onto `cpu`, keeping
/// its affinity mask: a nudge, not a pin — the scheduler stays free to
/// migrate it later. Returns `true` if the thread was moved. No-op
/// (returns `false`) on non-Linux targets.
///
/// Long-lived stage threads block at their session gate right after
/// spawning, so to the kernel's fork balancer every new one looks idle
/// and they all stack on the same CPU; placing each once at spawn keeps
/// two busy stage groups from sharing a core while another sits idle.
pub fn nudge_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let Some(mask) = affinity::current() else {
            return false;
        };
        if cpu >= 16 * 64 {
            return false;
        }
        let one = affinity::CpuSet::single(cpu);
        // SAFETY: both masks are live, initialised and `SIZE` bytes long;
        // the calls only read them.
        let moved = unsafe { affinity::sched_setaffinity(0, affinity::SIZE, &one) } == 0;
        unsafe { affinity::sched_setaffinity(0, affinity::SIZE, &mask) };
        moved
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}

/// Where a stage thread runs: pinned to a CPU, nudged onto one once at
/// spawn ([`nudge_current_thread`]), or wherever the scheduler puts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Pinned for the thread's lifetime ([`pin_current_thread`]).
    Pin(usize),
    /// Moved onto the CPU once, then free.
    Nudge(usize),
    /// Left to the scheduler.
    Any,
}

/// One stage task (classifier, NF, agent, merger, collector) as seen by
/// the group scheduler. A `pass` drains a burst from the stage's input
/// rings and pushes the results downstream without blocking; blocking
/// would deadlock a group whose consumer stage lives on the same thread.
pub trait StageCore: Send {
    /// Called once at the start of every session, before the first
    /// pass: reset per-session state (counters, sequence numbers,
    /// clocks) and take back anything the engine parked between
    /// sessions.
    fn begin(&mut self, _session: u64) {}
    /// Run one burst pass. Returns `true` if any work was done.
    fn pass(&mut self) -> bool;
    /// Work is visibly available (used as the pre-park re-check).
    fn ready(&self) -> bool;
    /// The stage has been told to quiesce and has nothing buffered.
    fn done(&self) -> bool;
    /// Called exactly once after the group loop exits a session; hand
    /// results (runtimes, collected outputs) back to the engine.
    fn finish(&mut self) {}
}

/// How long a stage thread keeps polling the session gate (yielding)
/// before it blocks. Covers the gap between back-to-back sessions, so a
/// session opened right after the last one finds its threads awake
/// instead of paying a futex wake and a fresh CPU placement per thread.
pub const GATE_GRACE: Duration = Duration::from_micros(100);

const GATE_POISONED: &str = "session gate poisoned: a thread panicked holding it";

/// Where a long-lived stage thread waits between sessions.
///
/// A session is a generation number: [`SessionGate::open`] publishes the
/// next one and wakes every waiting thread; each thread runs the session
/// and calls [`SessionGate::leave`]. After a short [`GATE_GRACE`] of
/// polling, waiters block on the gate's condvar with **no timeout**, so a
/// built but idle engine costs no CPU. A thread can neither miss a
/// session nor run one twice: it only ever waits for a generation *past*
/// the one it last served, and the generation is published under the
/// same mutex the waiters block on.
#[derive(Debug, Default)]
pub struct SessionGate {
    state: Mutex<GateState>,
    cv: Condvar,
    /// Lock-free mirror of the newest session, for the grace poll.
    opened: AtomicU64,
    /// Thread-sessions completed over the gate's lifetime (monotone, so
    /// the opener waits for `session × threads` without any reset).
    left: AtomicU64,
    /// Threads that have taken up their placement and reached the gate.
    arrived: AtomicU64,
    shutdown: AtomicBool,
}

#[derive(Debug, Default)]
struct GateState {
    session: u64,
    shutdown: bool,
}

impl SessionGate {
    /// Gate with no session opened yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open session `session` (must exceed every earlier one) and wake
    /// every thread waiting at the gate. Everything written before `open`
    /// is visible to a thread once [`SessionGate::wait_past`] returns the
    /// session: the generation is stored with `Release` (and under the
    /// mutex) and read with `Acquire` (or under the mutex).
    pub fn open(&self, session: u64) {
        let mut st = self.state.lock().expect(GATE_POISONED);
        debug_assert!(session > st.session, "sessions are strictly increasing");
        st.session = session;
        self.opened.store(session, Ordering::Release);
        drop(st);
        self.cv.notify_all();
    }

    /// Wait until a session newer than `seen` opens: poll for
    /// [`GATE_GRACE`], then block. `None` once the gate is shut.
    pub fn wait_past(&self, seen: u64) -> Option<u64> {
        let grace = Instant::now();
        while grace.elapsed() < GATE_GRACE {
            if self.is_shut() {
                return None;
            }
            let session = self.opened.load(Ordering::Acquire);
            if session > seen {
                return Some(session);
            }
            std::thread::yield_now();
        }
        let mut st = self.state.lock().expect(GATE_POISONED);
        loop {
            if st.shutdown {
                return None;
            }
            if st.session > seen {
                return Some(st.session);
            }
            st = self.cv.wait(st).expect(GATE_POISONED);
        }
    }

    /// Record that one more thread is up and waiting at the gate.
    pub fn arrive(&self) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
    }

    /// Yield until `threads` threads have arrived. Placement cannot
    /// fail, so every spawned thread arrives.
    pub fn wait_arrived(&self, threads: u64) {
        while self.arrived.load(Ordering::Acquire) < threads {
            std::thread::yield_now();
        }
    }

    /// Record that one thread finished its current session.
    pub fn leave(&self) {
        self.left.fetch_add(1, Ordering::AcqRel);
    }

    /// Thread-sessions completed so far.
    pub fn left(&self) -> u64 {
        self.left.load(Ordering::Acquire)
    }

    /// Shut the gate for good: waiting threads return `None`, and
    /// threads still inside a session abandon it at their next pass.
    pub fn shut(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Called from `Drop`: must not panic, and a one-flag update
        // leaves the state valid whatever poisoned the lock.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.cv.notify_all();
    }

    /// Whether [`SessionGate::shut`] has been called.
    pub fn is_shut(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// Body of one long-lived stage thread: take up its [`Placement`], then
/// serve every session the gate opens — reset the group's stages, drive
/// them until they quiesce, hand results back, leave — until the gate
/// shuts.
pub fn serve(
    mut cores: Vec<Box<dyn StageCore>>,
    hub: &WakeHub,
    gate: &SessionGate,
    policy: IdlePolicy,
    placement: Placement,
) {
    match placement {
        Placement::Pin(cpu) => pin_current_thread(cpu),
        Placement::Nudge(cpu) => nudge_current_thread(cpu),
        Placement::Any => false,
    };
    gate.arrive();
    let mut seen = 0;
    while let Some(session) = gate.wait_past(seen) {
        seen = session;
        for core in cores.iter_mut() {
            core.begin(session);
        }
        drive(&mut cores, hub, policy, gate);
        gate.leave();
        // The opener (and peers) may be parked waiting on this session's
        // results.
        hub.notify();
    }
}

/// Group scheduling loop for one session: round-robin `cores` until all
/// report done (or the gate shuts), idling per `policy` on no-progress
/// passes, then hand results back through [`StageCore::finish`].
/// Producers elsewhere (and this loop itself, after a productive pass)
/// notify `hub`.
pub fn drive(
    cores: &mut [Box<dyn StageCore>],
    hub: &WakeHub,
    policy: IdlePolicy,
    gate: &SessionGate,
) {
    let mut idler = Idler::new(hub, policy);
    loop {
        let mut progress = false;
        for core in cores.iter_mut() {
            if core.pass() {
                progress = true;
            }
        }
        if cores.iter().all(|c| c.done()) || gate.is_shut() {
            break;
        }
        if progress {
            idler.reset();
            // Work we produced may feed a stage parked on another thread.
            hub.notify();
        } else {
            idler.idle(|| cores.iter().any(|c| c.ready()));
        }
    }
    for core in cores.iter_mut() {
        core.finish();
    }
}

/// Ring index cache: a consumer-or-producer-local copy of the *other*
/// side's position, refreshed only when the cached view would stall the
/// operation. Lives in [`Cell`] because each ring endpoint is owned by
/// exactly one thread.
pub type IndexCache = Cell<usize>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_groups_partitions_contiguously() {
        assert_eq!(plan_groups(5, 2), vec![0..3, 3..5]);
        assert_eq!(plan_groups(4, 8), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(plan_groups(6, 1), vec![0..6]);
        assert_eq!(plan_groups(7, 3), vec![0..3, 3..5, 5..7]);
        let total: usize = plan_groups(23, 5).iter().map(|r| r.len()).sum();
        assert_eq!(total, 23);
    }

    #[test]
    fn pipeline_groups_keep_sections_apart_when_budget_allows() {
        // 3 front (classifier + 2 NFs), 4 back (agent + 2 mergers +
        // collector), budget 2: exactly one thread per section.
        assert_eq!(plan_pipeline_groups(3, 4, 2), vec![0..3, 3..7]);
        // Budget 3 gives the larger back section the extra thread.
        assert_eq!(plan_pipeline_groups(3, 4, 3), vec![0..3, 3..5, 5..7]);
        // Budget 1 coalesces everything.
        assert_eq!(plan_pipeline_groups(3, 4, 1), vec![0..7]);
        // Oversized budget degenerates to one task per thread.
        assert_eq!(plan_pipeline_groups(2, 2, 99).len(), 4);
        // Every task is covered exactly once, in order.
        for (front, back, budget) in [(1, 3, 2), (5, 4, 3), (2, 3, 5), (6, 3, 4)] {
            let groups = plan_pipeline_groups(front, back, budget);
            let mut next = 0;
            for r in &groups {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, front + back);
            assert!(groups.len() <= budget);
            // No group straddles the section boundary when budget ≥ 2.
            assert!(groups.iter().all(|r| r.end <= front || r.start >= front));
        }
    }

    #[test]
    fn cache_padded_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 64);
        let p = CachePadded::new(41u64);
        assert_eq!(*p + 1, 42);
    }

    #[test]
    fn park_returns_quickly_when_ready() {
        let hub = WakeHub::new();
        let t0 = Instant::now();
        hub.park(Duration::from_secs(5), || true);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn park_honors_timeout_without_notification() {
        let hub = WakeHub::new();
        let t0 = Instant::now();
        hub.park(Duration::from_millis(20), || false);
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(10), "parked only {dt:?}");
        assert!(dt < Duration::from_secs(5));
    }

    /// The lost-wakeup test at hub level: a consumer parks with a long
    /// timeout, a late producer publishes work and notifies, and the
    /// consumer must observe it promptly.
    #[test]
    fn late_notification_wakes_parked_thread() {
        let hub = Arc::new(WakeHub::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (h2, f2) = (Arc::clone(&hub), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            while !f2.load(Ordering::Acquire) {
                h2.park(Duration::from_secs(2), || f2.load(Ordering::Acquire));
                assert!(t0.elapsed() < Duration::from_secs(30), "no wakeup");
            }
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Release);
        hub.notify();
        let waited = waiter.join().unwrap();
        // Far below the 2 s park timeout: the notification, not the
        // timeout, must be what woke the thread.
        assert!(
            waited < Duration::from_millis(1500),
            "woke after {waited:?}"
        );
    }

    #[test]
    fn parent_hub_hears_every_child_notification() {
        let parent = Arc::new(WakeHub::new());
        let child = WakeHub::with_parent(Arc::clone(&parent));
        let flag = Arc::new(AtomicBool::new(false));
        let (p2, f2) = (Arc::clone(&parent), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            while !f2.load(Ordering::Acquire) {
                p2.park(Duration::from_secs(2), || f2.load(Ordering::Acquire));
            }
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        flag.store(true, Ordering::Release);
        child.notify();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_millis(1500),
            "woke after {waited:?}"
        );
    }

    /// The gate's generation protocol: a waiter serves each opened
    /// session exactly once, never re-serves one, and wakes for shutdown.
    #[test]
    fn session_gate_serves_each_session_once_and_shuts() {
        let gate = Arc::new(SessionGate::new());
        let served = Arc::new(Mutex::new(Vec::new()));
        let (g2, s2) = (Arc::clone(&gate), Arc::clone(&served));
        let worker = std::thread::spawn(move || {
            let mut seen = 0;
            while let Some(session) = g2.wait_past(seen) {
                seen = session;
                s2.lock().unwrap().push(session);
                g2.leave();
            }
        });
        for session in 1..=3u64 {
            // Open some sessions while the worker is blocked (past the
            // grace), others while it still polls.
            if session == 2 {
                std::thread::sleep(Duration::from_millis(20));
            }
            gate.open(session);
            let t0 = Instant::now();
            while gate.left() < session {
                assert!(
                    t0.elapsed() < Duration::from_secs(10),
                    "session {session} never served"
                );
                std::thread::yield_now();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
        gate.shut();
        worker.join().unwrap();
        assert_eq!(*served.lock().unwrap(), [1, 2, 3]);
        assert!(gate.is_shut());
        assert_eq!(gate.wait_past(3), None, "a shut gate opens nothing");
    }

    #[test]
    fn nudging_keeps_the_affinity_mask() {
        // Best effort: where there is a choice, the thread lands on the
        // target and may still run anywhere it could before.
        let Some(cpu) = cpu_after_current(1) else {
            return;
        };
        let t = std::thread::spawn(move || {
            let moved = nudge_current_thread(cpu);
            let after = cpu_after_current(0);
            (moved, after)
        });
        let (moved, after) = t.join().unwrap();
        if moved {
            assert!(after.is_some(), "the mask still offers a choice");
        }
    }

    #[test]
    fn idler_escalates_spin_yield_park() {
        let hub = WakeHub::new();
        let mut idler = Idler::new(
            &hub,
            IdlePolicy::Backoff {
                spin: 2,
                yields: 2,
                park_timeout: Duration::from_millis(5),
            },
        );
        // First four no-progress passes must not park (fast).
        let t0 = Instant::now();
        for _ in 0..4 {
            idler.idle(|| false);
        }
        assert!(t0.elapsed() < Duration::from_millis(100));
        // Fifth pass parks; bounded by the timeout.
        let t1 = Instant::now();
        idler.idle(|| false);
        assert!(t1.elapsed() < Duration::from_secs(1));
        idler.reset();
        assert_eq!(idler.streak, 0);
    }

    #[test]
    fn host_parallelism_is_positive_and_stable() {
        let a = host_parallelism();
        assert!(a >= 1);
        assert_eq!(a, host_parallelism());
    }

    #[test]
    fn pinning_to_cpu_zero_is_best_effort() {
        // CPU 0 always exists; on Linux this should succeed, elsewhere
        // it must return false without crashing.
        let _ = pin_current_thread(0);
        assert!(!pin_current_thread(usize::MAX));
    }
}
