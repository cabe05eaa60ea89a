//! Request-scoped causal tracing and the lock-event flight recorder.
//!
//! This module answers "where did this request's time go" — the question
//! the counter/gauge/histogram registry cannot. It samples 1-in-N requests
//! deterministically (seeded, so two runs against the same workload trace
//! the same requests), threads a `trace id` through the request path, and
//! records spans into per-thread seqlock rings. A Chrome-trace-event
//! exporter renders the rings into JSON that `chrome://tracing` and
//! Perfetto open directly.
//!
//! # Cost contract
//!
//! The PR 8 obs contract applies: **one relaxed load when disabled.**
//! Every hot-path entry point (`current()`, `active()`, `sample_request()`)
//! gates on a single relaxed load of the `SAMPLE_EVERY` atomic before touching any
//! thread-local or ring state. When sampling is off (the default), tracing
//! costs one `AtomicU32` load per call site.
//!
//! # Span kinds
//!
//! Chrome "X" (complete) events must nest within a thread track. On a
//! work-stealing task pool a task's await-spanning interval is *not*
//! nested with the other tasks the same worker polls during the
//! suspension, so:
//!
//! * [`SpanKind::Sync`] — duration events ("X"). Only for intervals during
//!   which the emitting thread runs nothing else: decode, encode, a
//!   combiner serving a posted record, a single task poll.
//! * [`SpanKind::Async`] — async begin/end pairs ("b"/"e"), matched by
//!   trace id + name, allowed to overlap and cross threads: whole-request,
//!   lock wait, lock hold, task suspension, flush.
//! * [`SpanKind::Instant`] — zero-duration markers ("i").
//!
//! Every span is **one ring record** written at end time (t0, dur, trace
//! id, interned site, kind); the exporter synthesizes the "b"/"e" pair for
//! async spans. This keeps the hot-path store-count constant and makes
//! cancellation safe: dropping an [`AsyncSpan`] emits the record.
//!
//! # Lock events
//!
//! [`lock_event`] records a lock's `{site, event, arg}` as an instant in
//! the same ring, on the same clock, whether or not sampling is on; it
//! exports as `<site>:<event>` with the current trace id or 0, so lock
//! activity lines up with request spans in Perfetto. The flight recorder
//! is the view [`lock_events`] takes of the rings, and a text dump of it
//! is stored on every `try_lock_for` timeout ([`take_timeout_dump`]).
//!
//! # Ring ownership
//!
//! Each thread lazily registers one [`TraceRing`] on first write; rings
//! are never deregistered (thread names survive for the exporter). Only
//! the owning thread writes a ring; the exporter is a racing reader that
//! checks each slot's sequence word before and after copying it, so it
//! returns exactly the records asked for and skips ones being overwritten.
//! [`reset_rings`] raises a per-ring floor instead of writing the rings.

use core::cell::Cell;
use core::fmt::Write as _;
use core::marker::PhantomData;
use core::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use hemlock_core::events::LockEvent;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (first call wins).
///
/// Monotonic, cheap (one `Instant::elapsed`), and shared by every span so
/// cross-thread timestamps are comparable. The epoch is pinned lazily; all
/// callers after the first see a consistent origin.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

/// 0 = sampling disabled (the default). N>0 = trace 1 in N requests.
static SAMPLE_EVERY: AtomicU32 = AtomicU32::new(0);
/// Seed mixed into the request counter so the sampled subset is
/// deterministic per seed, not per boot.
static SAMPLE_SEED: AtomicU64 = AtomicU64::new(0);
/// Global request sequence; drives deterministic 1-in-N selection.
static REQ_SEQ: AtomicU64 = AtomicU64::new(0);

/// Enable 1-in-`every` request sampling with a deterministic `seed`, or
/// disable tracing entirely with `every == 0`.
///
/// The seed offsets which residue class of the request sequence is
/// sampled, so repeated runs with the same seed trace the same requests.
pub fn set_sampling(every: u32, seed: u64) {
    SAMPLE_SEED.store(seed, Ordering::Relaxed);
    SAMPLE_EVERY.store(every, Ordering::Relaxed);
}

/// Is sampling configured at all? One relaxed load — the disabled-cost
/// contract every hot path relies on.
#[inline]
pub fn active() -> bool {
    SAMPLE_EVERY.load(Ordering::Relaxed) != 0
}

/// Draw the next request's trace decision.
///
/// Returns `0` (not sampled) or a nonzero trace id. The id is the request
/// sequence number + 1, so ids are unique, dense, and stable for a given
/// seed. Costs one relaxed load when sampling is disabled.
#[inline]
pub fn sample_request() -> u64 {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return 0;
    }
    let seq = REQ_SEQ.fetch_add(1, Ordering::Relaxed);
    let seed = SAMPLE_SEED.load(Ordering::Relaxed);
    if (seq.wrapping_add(seed)) % u64::from(every) == 0 {
        seq + 1
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Site interning
// ---------------------------------------------------------------------------

/// Maximum distinct trace sites; excess interns collapse to `<overflow>`.
const MAX_SITES: usize = 64;

struct SiteTable {
    ptrs: [AtomicUsize; MAX_SITES],
    lens: [AtomicUsize; MAX_SITES],
}

static SITES: SiteTable = SiteTable {
    ptrs: [const { AtomicUsize::new(0) }; MAX_SITES],
    lens: [const { AtomicUsize::new(0) }; MAX_SITES],
};

/// Intern a `&'static str` site name, returning a small id.
///
/// Pointer-identity scan-CAS: for string literals the same site resolves
/// without rescanning past its slot. Lock-free; ties are broken by CAS and
/// losers retry the same slot (the winner may be us by value).
pub fn intern(site: &'static str) -> usize {
    let p = site.as_ptr() as usize;
    for i in 0..MAX_SITES {
        let cur = SITES.ptrs[i].load(Ordering::Acquire);
        if cur == p {
            return i;
        }
        if cur == 0 {
            match SITES.ptrs[i].compare_exchange(0, p, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    SITES.lens[i].store(site.len(), Ordering::Release);
                    return i;
                }
                Err(found) => {
                    if found == p {
                        return i;
                    }
                    // Someone else claimed the slot with a different site;
                    // keep scanning.
                }
            }
        } else {
            // Distinct literal with equal contents still gets its own slot
            // only if pointers differ — compare by value as a fallback so
            // cross-crate duplicate names don't burn slots.
            let len = SITES.lens[i].load(Ordering::Acquire);
            if len == site.len() && len != 0 {
                let s = unsafe {
                    core::str::from_utf8_unchecked(core::slice::from_raw_parts(
                        cur as *const u8,
                        len,
                    ))
                };
                if s == site {
                    return i;
                }
            }
        }
    }
    MAX_SITES - 1
}

/// Resolve an interned site id back to its name.
pub fn site_name(id: usize) -> &'static str {
    if id >= MAX_SITES {
        return "<unknown>";
    }
    let p = SITES.ptrs[id].load(Ordering::Acquire);
    let len = SITES.lens[id].load(Ordering::Acquire);
    if p == 0 || len == 0 {
        return "<pending>";
    }
    unsafe { core::str::from_utf8_unchecked(core::slice::from_raw_parts(p as *const u8, len)) }
}

// ---------------------------------------------------------------------------
// Span kinds
// ---------------------------------------------------------------------------

/// How a recorded span renders in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration ("X") event: strictly nested on its thread track.
    Sync,
    /// An async ("b"/"e") pair: may overlap and cross threads.
    Async,
    /// A zero-duration instant ("i") marker.
    Instant,
}

impl SpanKind {
    fn code(self) -> u64 {
        match self {
            SpanKind::Sync => 0,
            SpanKind::Async => 1,
            SpanKind::Instant => 2,
        }
    }
    fn from_code(c: u64) -> SpanKind {
        match c {
            1 => SpanKind::Async,
            2 => SpanKind::Instant,
            _ => SpanKind::Sync,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread seqlock ring
// ---------------------------------------------------------------------------

/// Records per thread ring: the flight recorder keeps each thread's
/// newest `RING_CAP` records. Power of two; at 1-in-N sampling with ~6
/// spans per request this holds thousands of sampled requests.
pub const RING_CAP: usize = 8192;

struct Slot {
    /// `2i + 1` while record `i` is being written, `2i + 2` once it is
    /// complete; 0 for a slot never written.
    seq: AtomicU64,
    t0: AtomicU64,
    /// Duration in ns, or a lock event's arg.
    dur: AtomicU64,
    id: AtomicU64,
    /// `site << 16 | lock << 8 | kind`, where `lock` is a lock event's
    /// code + 1 (0 for spans).
    meta: AtomicU64,
}

/// A single thread's wait-free record ring.
///
/// Only the owning thread writes `head` and the slots; any thread may
/// read. Each slot is a seqlock: record `i` is written as `seq = 2i+1`, a
/// release fence, relaxed field stores, then `seq = 2i+2` with release.
/// A reader accepts position `i` only if `seq` reads `2i+2` before it
/// loads the fields and still reads `2i+2` after an acquire fence, so it
/// accepts exactly the record written at `i`: never a splice of two
/// writes, never a record from another lap of the ring.
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Records ever pushed; written by the owning thread only.
    head: AtomicU64,
    /// Records below this index were discarded by [`reset_rings`]. Any
    /// thread may raise it; nobody lowers it.
    floor: AtomicU64,
}

impl TraceRing {
    pub(crate) fn with_capacity(cap: usize) -> TraceRing {
        assert!(cap.is_power_of_two());
        let slot = |_| Slot {
            seq: AtomicU64::new(0),
            t0: AtomicU64::new(0),
            dur: AtomicU64::new(0),
            id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        };
        TraceRing {
            slots: (0..cap).map(slot).collect(),
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
        }
    }

    fn slot(&self, i: u64) -> &Slot {
        &self.slots[i as usize & (self.slots.len() - 1)]
    }

    /// Append one record, overwriting the oldest on wraparound. Wait-free;
    /// owning thread only. A lock event (`lock` set) keeps its arg in `dur`.
    pub(crate) fn push(
        &self,
        t0: u64,
        dur: u64,
        id: u64,
        site: &'static str,
        kind: SpanKind,
        lock: Option<LockEvent>,
    ) {
        let lock = lock.map_or(0, |e| e as u64 + 1);
        let meta = ((intern(site) as u64) << 16) | (lock << 8) | kind.code();
        let i = self.head.load(Ordering::Relaxed);
        let slot = self.slot(i);
        slot.seq.store(2 * i + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.t0.store(t0, Ordering::Relaxed);
        slot.dur.store(dur, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.seq.store(2 * i + 2, Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
    }

    /// Snapshot every record above the reset floor, oldest first. Records
    /// being overwritten are skipped.
    pub fn dump(&self) -> Vec<RawSpan> {
        let head = self.head.load(Ordering::Acquire);
        let start = head
            .saturating_sub(self.slots.len() as u64)
            .max(self.floor.load(Ordering::Acquire));
        let mut out = Vec::with_capacity(head.saturating_sub(start) as usize);
        for i in start..head {
            let slot = self.slot(i);
            if slot.seq.load(Ordering::Acquire) != 2 * i + 2 {
                continue;
            }
            let t0 = slot.t0.load(Ordering::Relaxed);
            let dur = slot.dur.load(Ordering::Relaxed);
            let id = slot.id.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != 2 * i + 2 {
                continue; // overwritten while we read it
            }
            let lock = ((meta >> 8) as u8)
                .checked_sub(1)
                .and_then(LockEvent::from_u8);
            out.push(RawSpan {
                t0,
                dur: if lock.is_some() { 0 } else { dur },
                id,
                site: (meta >> 16) as usize,
                kind: SpanKind::from_code(meta & 0xFF),
                lock: lock.map(|e| (e, dur)),
            });
        }
        out
    }

    /// Discard every record pushed so far. Raises the floor instead of
    /// touching `head` or the slots, which belong to the owning thread.
    fn reset(&self) {
        let head = self.head.load(Ordering::Acquire);
        self.floor.fetch_max(head, Ordering::Release);
    }
}

/// One validated record read back out of a [`TraceRing`].
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Start timestamp, ns since the trace epoch.
    pub t0: u64,
    /// Duration in ns (0 for instants).
    pub dur: u64,
    /// Request trace id (0 for a lock event outside a sampled request).
    pub id: u64,
    /// Interned site id; resolve with [`site_name`].
    pub site: usize,
    /// How the span renders.
    pub kind: SpanKind,
    /// For a lock event: the event and its arg.
    pub lock: Option<(LockEvent, u64)>,
}

struct NamedRing {
    name: String,
    ring: Arc<TraceRing>,
}

fn rings() -> &'static Mutex<Vec<NamedRing>> {
    static RINGS: OnceLock<Mutex<Vec<NamedRing>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: Arc<TraceRing> = {
        let ring = Arc::new(TraceRing::with_capacity(RING_CAP));
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| "thread".to_owned());
        let mut v = rings().lock().unwrap();
        let name = format!("{name}#{}", v.len());
        v.push(NamedRing { name, ring: Arc::clone(&ring) });
        ring
    };
    /// The trace id of the request the current thread is working on
    /// (0 = none). Set per poll by [`Traced`], per burst by the server
    /// loop, and scoped by [`scoped`].
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Trace id of the last future polled on this thread, consumed by the
    /// executor to retro-emit `pool.poll` spans.
    static LAST_POLL: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn push_local(t0: u64, dur: u64, id: u64, site: &'static str, kind: SpanKind) {
    LOCAL_RING.with(|r| r.push(t0, dur, id, site, kind, None));
}

/// Discard every record in every registered ring (between-run hygiene in
/// benches). Safe to race the rings' owners: it only raises their floors.
pub fn reset_rings() {
    for nr in rings().lock().unwrap().iter() {
        nr.ring.reset();
    }
    REQ_SEQ.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Request context
// ---------------------------------------------------------------------------

/// The trace id of the request the calling thread is currently executing,
/// or 0. One relaxed load when sampling is disabled.
#[inline]
pub fn current() -> u64 {
    if SAMPLE_EVERY.load(Ordering::Relaxed) == 0 {
        return 0;
    }
    CURRENT.with(|c| c.get())
}

/// Set the calling thread's current trace id, returning the previous one.
#[inline]
pub fn set_current(id: u64) -> u64 {
    CURRENT.with(|c| c.replace(id))
}

/// Run `f` with `id` as the thread's current trace id (sync contexts:
/// bench worker threads, tests).
pub fn scoped<T>(id: u64, f: impl FnOnce() -> T) -> T {
    let prev = set_current(id);
    let out = f();
    set_current(prev);
    out
}

/// Consume the trace id of the last future polled on this thread.
///
/// The executor calls this after each poll to decide whether to
/// retro-emit a `pool.poll` span for the interval it just measured.
#[inline]
pub fn take_polled_trace() -> u64 {
    LAST_POLL.with(|c| c.replace(0))
}

fn note_polled(id: u64) {
    LAST_POLL.with(|c| c.set(id));
}

// ---------------------------------------------------------------------------
// Span emission
// ---------------------------------------------------------------------------

/// Retroactively emit a span with explicit endpoints. No-op for id 0.
#[inline]
pub fn span_at(id: u64, site: &'static str, t0: u64, end: u64, kind: SpanKind) {
    if id == 0 {
        return;
    }
    push_local(t0, end.saturating_sub(t0), id, site, kind);
}

/// Emit a zero-duration instant marker. No-op for id 0.
#[inline]
pub fn instant(id: u64, site: &'static str) {
    if id == 0 {
        return;
    }
    push_local(now_ns(), 0, id, site, SpanKind::Instant);
}

/// Record a lock event as an instant on the calling thread's ring,
/// stamped with the current trace id or 0. Written whether or not
/// sampling is on; the census sink and `Observed` gate it on
/// [`crate::enabled`]. Exports as `<site>:<event>`.
#[inline]
pub fn lock_event(site: &'static str, event: LockEvent, arg: u64) {
    // `try_with`: a lock released by a thread-local destructor may run
    // after this thread's ring is gone; its event is dropped.
    let _ = LOCAL_RING.try_with(|r| {
        r.push(
            now_ns(),
            arg,
            current(),
            site,
            SpanKind::Instant,
            Some(event),
        );
    });
}

/// RAII sync span: records a nested "X" event from construction to drop.
///
/// `!Send` by construction — a sync span must begin and end on one thread
/// (Chrome duration events are per-track and must nest).
pub struct SyncSpan {
    id: u64,
    site: &'static str,
    t0: u64,
    _not_send: PhantomData<*const ()>,
}

impl SyncSpan {
    /// Start a sync span for `id` (no-op span when `id == 0`).
    #[inline]
    pub fn start(id: u64, site: &'static str) -> SyncSpan {
        let t0 = if id == 0 { 0 } else { now_ns() };
        SyncSpan {
            id,
            site,
            t0,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SyncSpan {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            let end = now_ns();
            push_local(
                self.t0,
                end.saturating_sub(self.t0),
                self.id,
                self.site,
                SpanKind::Sync,
            );
        }
    }
}

/// RAII async span: records a "b"/"e" pair from construction to drop.
///
/// `Send` — the end may land on a different thread than the begin, and
/// dropping a cancelled future still emits the span (the record is written
/// once, at drop).
pub struct AsyncSpan {
    id: u64,
    site: &'static str,
    t0: u64,
}

impl AsyncSpan {
    /// Start an async span for `id` (no-op span when `id == 0`).
    #[inline]
    pub fn start(id: u64, site: &'static str) -> AsyncSpan {
        let t0 = if id == 0 { 0 } else { now_ns() };
        AsyncSpan { id, site, t0 }
    }
}

impl Drop for AsyncSpan {
    #[inline]
    fn drop(&mut self) {
        if self.id != 0 {
            let end = now_ns();
            push_local(
                self.t0,
                end.saturating_sub(self.t0),
                self.id,
                self.site,
                SpanKind::Async,
            );
        }
    }
}

/// Helper for lock-wait spans inside `poll_fn` loops.
///
/// Armed on the first `Pending`, finished on `Ready`; emits one async
/// span covering the whole wait. If the future is dropped mid-wait the
/// caller's surrounding spans still record; the wait itself is abandoned
/// (by design — a cancelled wait has no meaningful end).
#[derive(Default)]
pub struct Waiter {
    armed: Option<(u64, u64)>,
}

impl Waiter {
    /// Create an unarmed waiter.
    pub const fn new() -> Waiter {
        Waiter { armed: None }
    }

    /// Note that the wait has begun (idempotent). No-op for id 0.
    #[inline]
    pub fn arm(&mut self, id: u64) {
        if id != 0 && self.armed.is_none() {
            self.armed = Some((id, now_ns()));
        }
    }

    /// The wait is over: emit the span if armed.
    #[inline]
    pub fn finish(&mut self, site: &'static str) {
        if let Some((id, t0)) = self.armed.take() {
            let end = now_ns();
            push_local(t0, end.saturating_sub(t0), id, site, SpanKind::Async);
        }
    }
}

// ---------------------------------------------------------------------------
// Traced future wrapper
// ---------------------------------------------------------------------------

use core::future::Future;
use core::pin::Pin;
use core::task::{Context, Poll};

/// Wrap a request future so every poll runs with `id` as the thread's
/// current trace id, gaps between polls emit `task.suspend` async spans,
/// and the executor can retro-emit `pool.poll` spans.
pub fn traced<F: Future>(id: u64, fut: F) -> Traced<F> {
    Traced {
        id,
        fut,
        last_pause: 0,
    }
}

/// Future wrapper produced by [`traced`]; see that function.
pub struct Traced<F> {
    id: u64,
    fut: F,
    last_pause: u64,
}

impl<F: Future> Future for Traced<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // Manual pin projection: `fut` is structurally pinned, the scalar
        // fields are not.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if this.id == 0 {
            return fut.poll(cx);
        }
        let t = now_ns();
        if this.last_pause != 0 {
            span_at(this.id, "task.suspend", this.last_pause, t, SpanKind::Async);
            this.last_pause = 0;
        }
        let prev = set_current(this.id);
        let out = fut.poll(cx);
        set_current(prev);
        note_polled(this.id);
        if out.is_pending() {
            this.last_pause = now_ns();
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// One event ready for Chrome-trace rendering or integrity checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportEvent {
    /// Span site name (Chrome `name`); `<site>:<event>` for a lock event.
    pub name: String,
    /// Track (thread) name.
    pub track: String,
    /// Track index (Chrome `tid`).
    pub tid: usize,
    /// Start timestamp, ns since the trace epoch.
    pub t0_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Request trace id (Chrome async `id`).
    pub trace_id: u64,
    /// Span kind (selects the Chrome phase).
    pub kind: SpanKind,
    /// For a lock-event instant: the event and its arg.
    pub lock: Option<(LockEvent, u64)>,
}

/// Drain every registered ring into export events (oldest-first per ring).
pub fn export_events() -> Vec<ExportEvent> {
    let mut out = Vec::new();
    for (tid, nr) in rings().lock().unwrap().iter().enumerate() {
        for s in nr.ring.dump() {
            let site = site_name(s.site);
            out.push(ExportEvent {
                name: match s.lock {
                    Some((event, _)) => format!("{site}:{}", event.name()),
                    None => site.to_owned(),
                },
                track: nr.name.clone(),
                tid,
                t0_ns: s.t0,
                dur_ns: s.dur,
                trace_id: s.id,
                kind: s.kind,
                lock: s.lock,
            });
        }
    }
    out
}

/// The flight recorder: every ring's lock events merged into one
/// timeline, oldest first.
pub fn lock_events() -> Vec<ExportEvent> {
    let mut events: Vec<ExportEvent> = export_events()
        .into_iter()
        .filter(|e| e.lock.is_some())
        .collect();
    events.sort_by_key(|e| e.t0_ns);
    events
}

/// [`lock_events`], one `<tick> <site> <event> <arg>` line each, ticks
/// in ns on the trace clock.
pub fn lock_events_text() -> String {
    let events = lock_events();
    let mut s = format!("# flight recorder: {} lock event(s)\n", events.len());
    for e in &events {
        let Some((event, arg)) = e.lock else { continue };
        let site = e.name.rsplit_once(':').map_or(&*e.name, |(site, _)| site);
        let _ = writeln!(s, "{:>12} {site} {} {arg}", e.t0_ns, event.name());
    }
    s
}

static LAST_TIMEOUT_DUMP: Mutex<Option<String>> = Mutex::new(None);

/// Stores [`lock_events_text`] in the timeout mailbox (called on every
/// `TimeoutAbort`; the newest dump wins).
pub fn store_timeout_dump() {
    let text = lock_events_text();
    *LAST_TIMEOUT_DUMP.lock().unwrap() = Some(text);
}

/// Takes the dump captured at the most recent `try_lock_for` timeout, if
/// any has happened since the last take.
pub fn take_timeout_dump() -> Option<String> {
    LAST_TIMEOUT_DUMP.lock().unwrap().take()
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn us(ns: u64) -> String {
    // Chrome trace timestamps are µs; three decimals keep exact ns.
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Render events as a Chrome-trace-event JSON document (one event per
/// line) that `chrome://tracing` and Perfetto open directly.
///
/// Sync spans become "X" duration events, async spans become "b"/"e"
/// pairs matched by `(cat, id, name)`, instants become "i". Each distinct
/// track gets an "M" thread-name metadata record.
pub fn chrome_trace_json(events: &[ExportEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    // Thread-name metadata: one per distinct tid.
    let mut seen_tids: Vec<(usize, &str)> = Vec::new();
    for e in events {
        if !seen_tids.iter().any(|(t, _)| *t == e.tid) {
            seen_tids.push((e.tid, &e.track));
        }
    }
    seen_tids.sort_by_key(|(t, _)| *t);
    for (tid, track) in seen_tids {
        sep(&mut out);
        out.push_str("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
        let _ = write!(out, "{tid}");
        out.push_str(",\"args\":{\"name\":\"");
        push_json_escaped(&mut out, track);
        out.push_str("\"}}");
    }
    for e in events {
        let mut emit = |ph: &str, ts: u64, dur: Option<u64>| {
            sep(&mut out);
            out.push_str("{\"ph\":\"");
            out.push_str(ph);
            out.push_str("\",\"name\":\"");
            push_json_escaped(&mut out, &e.name);
            out.push_str("\",\"cat\":\"req\",\"pid\":1,\"tid\":");
            let _ = write!(out, "{}", e.tid);
            out.push_str(",\"ts\":");
            out.push_str(&us(ts));
            if let Some(d) = dur {
                out.push_str(",\"dur\":");
                out.push_str(&us(d));
            }
            if ph == "b" || ph == "e" {
                let _ = write!(out, ",\"id\":\"{:x}\"", e.trace_id);
            } else {
                out.push_str(",\"args\":{\"trace\":");
                let _ = write!(out, "{}", e.trace_id);
                out.push('}');
            }
            if ph == "i" {
                out.push_str(",\"s\":\"t\"");
            }
            out.push('}');
        };
        match e.kind {
            SpanKind::Sync => emit("X", e.t0_ns, Some(e.dur_ns)),
            SpanKind::Async => {
                emit("b", e.t0_ns, None);
                emit("e", e.t0_ns + e.dur_ns, None);
            }
            SpanKind::Instant => emit("i", e.t0_ns, None),
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Drain every ring and render the result as Chrome-trace JSON.
pub fn export_chrome_json() -> String {
    let mut events = export_events();
    events.sort_by_key(|e| (e.tid, e.t0_ns, core::cmp::Reverse(e.dur_ns)));
    chrome_trace_json(&events)
}

// ---------------------------------------------------------------------------
// Parse + integrity checking
// ---------------------------------------------------------------------------

/// Extract a JSON string field (`"key":"value"`) from one event line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extract a numeric JSON field (`"key":123.456`) from one event line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a document produced by [`chrome_trace_json`] back into events.
///
/// Line-oriented: understands exactly the subset our emitter writes ("X",
/// "b"/"e" matched per `(trace_id, name)` in order, "i", "M" thread
/// names). Used by the integrity tests and the loadgen decomposition
/// report; not a general Chrome-trace parser.
pub fn parse_chrome_json(doc: &str) -> Vec<ExportEvent> {
    // (trace_id, name) -> stack of pending begins as (tid, ts) pairs.
    type PendingBegins = Vec<((u64, String), Vec<(usize, u64)>)>;
    let mut names: Vec<(usize, String)> = Vec::new();
    let mut out = Vec::new();
    let mut pending: PendingBegins = Vec::new();
    let ns_of = |v: f64| -> u64 { (v * 1000.0).round() as u64 };
    for line in doc.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') {
            continue;
        }
        let Some(ph) = json_str(line, "ph") else {
            continue;
        };
        match ph {
            "M" => {
                if let (Some(tid), Some(name)) = (json_num(line, "tid"), json_str(line, "name")) {
                    if name == "thread_name" {
                        // the args name is the second "name" occurrence
                        if let Some(tail) = line.rfind("\"name\":\"").map(|i| &line[i + 8..]) {
                            if let Some(end) = tail.find('"') {
                                names.push((tid as usize, tail[..end].to_owned()));
                            }
                        }
                    }
                }
            }
            "X" => {
                let (Some(name), Some(tid), Some(ts), Some(dur)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                    json_num(line, "dur"),
                ) else {
                    continue;
                };
                let trace = json_num(line, "trace").unwrap_or(0.0) as u64;
                out.push(ExportEvent {
                    name: name.to_owned(),
                    track: String::new(),
                    tid: tid as usize,
                    t0_ns: ns_of(ts),
                    dur_ns: ns_of(dur),
                    trace_id: trace,
                    kind: SpanKind::Sync,
                    lock: None,
                });
            }
            "i" => {
                let (Some(name), Some(tid), Some(ts)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                ) else {
                    continue;
                };
                let trace = json_num(line, "trace").unwrap_or(0.0) as u64;
                out.push(ExportEvent {
                    name: name.to_owned(),
                    track: String::new(),
                    tid: tid as usize,
                    t0_ns: ns_of(ts),
                    dur_ns: 0,
                    trace_id: trace,
                    kind: SpanKind::Instant,
                    lock: None,
                });
            }
            "b" | "e" => {
                let (Some(name), Some(tid), Some(ts), Some(id)) = (
                    json_str(line, "name"),
                    json_num(line, "tid"),
                    json_num(line, "ts"),
                    json_str(line, "id"),
                ) else {
                    continue;
                };
                let trace = u64::from_str_radix(id, 16).unwrap_or(0);
                let key = (trace, name.to_owned());
                let entry = match pending.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v,
                    None => {
                        pending.push((key, Vec::new()));
                        &mut pending.last_mut().unwrap().1
                    }
                };
                if ph == "b" {
                    entry.push((tid as usize, ns_of(ts)));
                } else if let Some((btid, bts)) = entry.pop() {
                    out.push(ExportEvent {
                        name: name.to_owned(),
                        track: String::new(),
                        tid: btid,
                        t0_ns: bts,
                        dur_ns: ns_of(ts).saturating_sub(bts),
                        trace_id: trace,
                        kind: SpanKind::Async,
                        lock: None,
                    });
                }
            }
            _ => {}
        }
    }
    for e in &mut out {
        if let Some((_, n)) = names.iter().find(|(t, _)| *t == e.tid) {
            e.track.clone_from(n);
        }
    }
    out
}

/// Check trace well-formedness; returns the list of violations (empty =
/// well-formed).
///
/// Invariants checked:
/// * sync ("X") events on one tid strictly nest — no partial overlap;
/// * every span's duration is non-negative by construction (`u64`), and
///   `t0 + dur` does not overflow;
/// * async spans with the same `(trace_id, name)` have begin <= end
///   (guaranteed by the single-record emitter, re-checked after a JSON
///   round trip).
pub fn check_well_formed(events: &[ExportEvent]) -> Vec<String> {
    let mut errs = Vec::new();
    // Per-tid sync nesting sweep.
    let mut tids: Vec<usize> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let mut sync: Vec<&ExportEvent> = events
            .iter()
            .filter(|e| e.tid == tid && e.kind == SpanKind::Sync)
            .collect();
        sync.sort_by_key(|e| (e.t0_ns, core::cmp::Reverse(e.dur_ns)));
        let mut stack: Vec<(u64, &str)> = Vec::new(); // (end, name)
        for e in sync {
            let end = match e.t0_ns.checked_add(e.dur_ns) {
                Some(v) => v,
                None => {
                    errs.push(format!("{}: t0+dur overflows", e.name));
                    continue;
                }
            };
            while let Some(&(top_end, _)) = stack.last() {
                if top_end <= e.t0_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_end, top_name)) = stack.last() {
                if end > top_end {
                    errs.push(format!(
                        "tid {tid}: sync span {} [{}, {}) partially overlaps {} (ends {})",
                        e.name, e.t0_ns, end, top_name, top_end
                    ));
                    continue;
                }
            }
            stack.push((end, &e.name));
        }
    }
    // Async pairing sanity: after a parse round-trip unmatched begins stay
    // in the parser's pending set and never become events, so here we only
    // re-check computed durations; direct exports can't violate this.
    for e in events {
        if e.t0_ns.checked_add(e.dur_ns).is_none() {
            errs.push(format!("{}: t0+dur overflows", e.name));
        }
    }
    errs
}

// ---------------------------------------------------------------------------
// RTT decomposition
// ---------------------------------------------------------------------------

/// One sampled request's round-trip time split into the pipeline stages a
/// request passes through, computed from exported span events by
/// [`decompose_requests`]. All figures are nanoseconds.
///
/// The components are designed to (approximately) sum to `total_ns`:
/// `queue_ns` is the scheduler/suspension share left over after the
/// lock-wait and flush suspensions — which have their own spans — are
/// subtracted from the task's total suspended time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttDecomp {
    /// The request's trace id.
    pub trace_id: u64,
    /// Decode plus the full dispatch-to-flushed interval
    /// (`net.decode` + `net.request`).
    pub total_ns: u64,
    /// Wire decode share (`net.decode`).
    pub decode_ns: u64,
    /// Executor queueing share: total task suspension (`task.suspend`)
    /// minus the suspensions already attributed to lock waits and flush.
    pub queue_ns: u64,
    /// Shard/central lock acquisition waits (`shard.lock_wait`).
    pub lock_wait_ns: u64,
    /// Time under a lock: guard hold time (`shard.lock_hold`), or — for a
    /// request whose ops were flat-combined by another task's combiner,
    /// so it never held the lock itself — the combiner's serve time for
    /// this request (`shard.combine_serve`).
    pub hold_ns: u64,
    /// Response encode + socket flush share (`net.encode` + `net.flush`).
    pub flush_ns: u64,
}

impl RttDecomp {
    /// Nanoseconds of `total_ns` not claimed by any component — parse
    /// overhead, executor poll bookkeeping, non-lock CPU work.
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(
            self.decode_ns + self.queue_ns + self.lock_wait_ns + self.hold_ns + self.flush_ns,
        )
    }
}

/// Groups exported span events by trace id and computes one [`RttDecomp`]
/// per request that has a `net.request` span (partial requests still in
/// flight, and spans from ids whose `net.request` record was overwritten
/// by ring wraparound, are dropped). Output is sorted by trace id.
pub fn decompose_requests(events: &[ExportEvent]) -> Vec<RttDecomp> {
    #[derive(Default)]
    struct Acc {
        request: u64,
        decode: u64,
        suspend: u64,
        lock_wait: u64,
        hold: u64,
        serve: u64,
        flush: u64,
    }
    let mut by_id: std::collections::BTreeMap<u64, Acc> = std::collections::BTreeMap::new();
    for e in events {
        if e.trace_id == 0 {
            continue;
        }
        let a = by_id.entry(e.trace_id).or_default();
        match e.name.as_str() {
            "net.request" => a.request += e.dur_ns,
            "net.decode" => a.decode += e.dur_ns,
            "net.encode" | "net.flush" => a.flush += e.dur_ns,
            "task.suspend" => a.suspend += e.dur_ns,
            "shard.lock_wait" => a.lock_wait += e.dur_ns,
            "shard.lock_hold" => a.hold += e.dur_ns,
            "shard.combine_serve" => a.serve += e.dur_ns,
            _ => {}
        }
    }
    by_id
        .into_iter()
        .filter(|(_, a)| a.request > 0)
        .map(|(id, a)| {
            // A combiner's serve time for its own ops nests inside its
            // lock hold; only a pure poster (no hold of its own) counts
            // the combiner's serve span as its lock-time share.
            let hold = if a.hold > 0 { a.hold } else { a.serve };
            RttDecomp {
                trace_id: id,
                total_ns: a.decode + a.request,
                decode_ns: a.decode,
                queue_ns: a.suspend.saturating_sub(a.lock_wait + a.flush),
                lock_wait_ns: a.lock_wait,
                hold_ns: hold,
                flush_ns: a.flush,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;

    // Sampling state, the ring registry and the timeout mailbox are
    // process-global, and the harness runs tests concurrently in one
    // process: every test in this crate that turns sampling on, resets
    // the rings or takes the mailbox holds this guard, which serializes
    // those tests and turns sampling back off on drop.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub(crate) struct SamplingGuard {
        _serial: std::sync::MutexGuard<'static, ()>,
    }

    pub(crate) fn sampling_guard() -> SamplingGuard {
        SamplingGuard {
            _serial: SERIAL.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    impl Drop for SamplingGuard {
        fn drop(&mut self) {
            set_sampling(0, 0);
        }
    }

    #[test]
    fn disabled_by_default_and_cheap() {
        let _guard = sampling_guard();
        assert!(!active());
        assert_eq!(sample_request(), 0);
        assert_eq!(current(), 0);
    }

    #[test]
    fn interning_is_stable_and_resolves() {
        let a = intern("test.site.a");
        let b = intern("test.site.b");
        assert_ne!(a, b);
        assert_eq!(intern("test.site.a"), a);
        assert_eq!(site_name(a), "test.site.a");
        assert_eq!(site_name(b), "test.site.b");
        assert_eq!(site_name(MAX_SITES + 7), "<unknown>");
    }

    #[test]
    fn ring_roundtrip_and_wraparound() {
        let ring = TraceRing::with_capacity(RING_CAP);
        for i in 0..(RING_CAP as u64 + 10) {
            ring.push(i, 1, i + 1, "test.ring", SpanKind::Sync, None);
        }
        let spans = ring.dump();
        assert_eq!(spans.len(), RING_CAP);
        // Oldest surviving record is the 11th push.
        assert_eq!(spans[0].t0, 10);
        assert_eq!(spans.last().unwrap().t0, RING_CAP as u64 + 9);
        for w in spans.windows(2) {
            assert!(w[0].t0 < w[1].t0);
        }
        assert!(spans.iter().all(|s| s.lock.is_none() && s.dur == 1));
    }

    #[test]
    fn lock_events_roundtrip_site_event_and_arg() {
        let ring = TraceRing::with_capacity(8);
        let events = [
            ("ring.lock.a", LockEvent::GrantWaiters, (1 << 48) - 1),
            ("ring.lock.b", LockEvent::TimeoutAbort, 0),
            ("ring.lock.a", LockEvent::Release, 3),
        ];
        for (t, &(site, event, arg)) in events.iter().enumerate() {
            ring.push(t as u64, arg, 9, site, SpanKind::Instant, Some(event));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), events.len());
        for (r, &(site, event, arg)) in dump.iter().zip(&events) {
            assert_eq!(site_name(r.site), site);
            assert_eq!(r.lock, Some((event, arg)));
            assert_eq!((r.kind, r.dur, r.id), (SpanKind::Instant, 0, 9));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 64 }))]

        /// For any capacity and a write count at, just below or just
        /// above a lap boundary, the dump holds exactly the newest
        /// `min(written, capacity)` records, oldest first.
        #[test]
        fn wraparound_keeps_exactly_the_newest(
            cap_log in 0u32..7,
            laps in 0u64..4,
            offset in -2i64..3,
        ) {
            let cap = 1u64 << cap_log;
            let writes = (laps * cap).saturating_add_signed(offset);
            let ring = TraceRing::with_capacity(cap as usize);
            for i in 0..writes {
                ring.push(i, i, 0, "prop-site", SpanKind::Instant, Some(LockEvent::Acquire));
            }
            let dump = ring.dump();
            let kept = writes.min(cap);
            let args: Vec<u64> = dump.iter().map(|r| r.lock.unwrap().1).collect();
            prop_assert_eq!(args, (writes - kept..writes).collect::<Vec<_>>());
            for r in &dump {
                prop_assert_eq!(site_name(r.site), "prop-site");
                prop_assert_eq!(r.lock.unwrap().0, LockEvent::Acquire);
                prop_assert_eq!(r.t0, r.lock.unwrap().1);
            }
        }
    }

    #[test]
    fn dump_racing_wraparound_never_splices_records() {
        // A dumper hammers a tiny ring while its owner wraps it
        // continuously, so most reads race an overwrite. Every field of a
        // record is a function of its sequence number, so a record
        // spliced from two writes cannot pass the checks below; the
        // seqlock must have skipped it instead.
        const CAP: usize = 4;
        const WRITES: u64 = if cfg!(miri) { 300 } else { 200_000 };
        let ring = TraceRing::with_capacity(CAP);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for n in 0..WRITES {
                    let event = if n % 2 == 0 {
                        LockEvent::Acquire
                    } else {
                        LockEvent::Release
                    };
                    ring.push(n, n * 3 + 1, !n, "wrap", SpanKind::Instant, Some(event));
                }
                stop.store(true, Ordering::Release);
            });
            let mut dumps = 0u64;
            while !stop.load(Ordering::Acquire) {
                for r in ring.dump() {
                    let n = r.t0;
                    assert!(n < WRITES, "record {n} was never written");
                    assert_eq!(site_name(r.site), "wrap", "spliced site");
                    let event = r.lock.map(|(e, _)| e);
                    let want = if n % 2 == 0 {
                        LockEvent::Acquire
                    } else {
                        LockEvent::Release
                    };
                    assert_eq!(event, Some(want), "spliced event at {n}");
                    assert_eq!(r.lock.unwrap().1, n * 3 + 1, "spliced arg at {n}");
                    assert_eq!(r.id, !n, "spliced id at {n}");
                }
                dumps += 1;
            }
            assert!(dumps > 0);
        });
        // Quiescent after the race: the ring holds the newest CAP records.
        let ts: Vec<u64> = ring.dump().iter().map(|r| r.t0).collect();
        assert_eq!(ts, (WRITES - CAP as u64..WRITES).collect::<Vec<_>>());
    }

    #[test]
    fn reset_rings_racing_pushes_keeps_only_post_reset_records() {
        // `reset_rings` runs on this thread while an owner thread pushes
        // lock events numbered by their ring index. A dump after a reset
        // may hold only records pushed after it, and the owner's head is
        // never lost to the reset.
        let _guard = sampling_guard();
        const PUSHES: u64 = if cfg!(miri) { 200 } else { 100_000 };
        let pushed = &AtomicU64::new(0);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            let owner = s.spawn(move || {
                tx.send(LOCAL_RING.with(Arc::clone)).unwrap();
                for n in 0..PUSHES {
                    lock_event("test.reset_race", LockEvent::Release, n);
                    pushed.store(n + 1, Ordering::Release);
                }
            });
            let ring = rx.recv().unwrap();
            let mut resets = 0u64;
            while !owner.is_finished() {
                let done = pushed.load(Ordering::Acquire);
                reset_rings();
                resets += 1;
                for r in ring.dump() {
                    let n = r.lock.unwrap().1;
                    assert!(n >= done, "record {n} survived a reset after {done} pushes");
                }
            }
            owner.join().unwrap();
            assert!(resets > 0);
            assert_eq!(ring.head.load(Ordering::Relaxed), PUSHES, "head lost");
            // Quiescent: exactly the records above the last floor remain.
            let floor = ring.floor.load(Ordering::Relaxed);
            let start = floor.max(PUSHES.saturating_sub(RING_CAP as u64));
            let args: Vec<u64> = ring.dump().iter().map(|r| r.lock.unwrap().1).collect();
            assert_eq!(args, (start..PUSHES).collect::<Vec<_>>());
        });
    }

    #[test]
    fn lock_events_export_as_site_event_instants() {
        let _guard = sampling_guard();
        reset_rings();
        lock_event("test.lock", LockEvent::Acquire, 7);
        set_sampling(1, 0);
        scoped(5, || lock_event("test.lock", LockEvent::Release, 0));
        let mine: Vec<ExportEvent> = lock_events()
            .into_iter()
            .filter(|e| e.name.starts_with("test.lock:"))
            .collect();
        let got: Vec<_> = mine
            .iter()
            .map(|e| (e.name.as_str(), e.trace_id, e.lock))
            .collect();
        assert_eq!(
            got,
            [
                ("test.lock:acquire", 0, Some((LockEvent::Acquire, 7))),
                ("test.lock:release", 5, Some((LockEvent::Release, 0))),
            ]
        );
        assert!(mine.iter().all(|e| e.kind == SpanKind::Instant));
        let text = lock_events_text();
        assert!(text.contains(" test.lock acquire 7\n"), "{text}");
        let doc = chrome_trace_json(&mine);
        assert!(doc.contains("\"name\":\"test.lock:acquire\""), "{doc}");
        assert!(check_well_formed(&parse_chrome_json(&doc)).is_empty());
        reset_rings();
    }

    #[test]
    fn kind_codes_roundtrip() {
        for k in [SpanKind::Sync, SpanKind::Async, SpanKind::Instant] {
            assert_eq!(SpanKind::from_code(k.code()), k);
        }
    }

    #[test]
    fn chrome_json_roundtrips_through_parser() {
        let events = vec![
            ExportEvent {
                name: "net.request".into(),
                track: "conn#0".into(),
                tid: 0,
                t0_ns: 1_000,
                dur_ns: 9_500,
                trace_id: 42,
                kind: SpanKind::Async,
                lock: None,
            },
            ExportEvent {
                name: "net.decode".into(),
                track: "conn#0".into(),
                tid: 0,
                t0_ns: 1_100,
                dur_ns: 300,
                trace_id: 42,
                kind: SpanKind::Sync,
                lock: None,
            },
            ExportEvent {
                name: "shard.lock_wait".into(),
                track: "pool#1".into(),
                tid: 1,
                t0_ns: 2_000,
                dur_ns: 4_001,
                trace_id: 42,
                kind: SpanKind::Async,
                lock: None,
            },
            ExportEvent {
                name: "mark".into(),
                track: "pool#1".into(),
                tid: 1,
                t0_ns: 3_000,
                dur_ns: 0,
                trace_id: 42,
                kind: SpanKind::Instant,
                lock: None,
            },
        ];
        let doc = chrome_trace_json(&events);
        let parsed = parse_chrome_json(&doc);
        assert_eq!(parsed.len(), events.len());
        for e in &events {
            let p = parsed
                .iter()
                .find(|p| p.name == e.name && p.kind == e.kind)
                .unwrap_or_else(|| panic!("missing {}", e.name));
            assert_eq!(p.t0_ns, e.t0_ns, "{}", e.name);
            assert_eq!(p.dur_ns, e.dur_ns, "{}", e.name);
            assert_eq!(p.trace_id, e.trace_id, "{}", e.name);
            assert_eq!(p.tid, e.tid, "{}", e.name);
        }
        assert!(check_well_formed(&parsed).is_empty());
        // Track names recovered from the M records.
        assert!(parsed.iter().any(|p| p.track == "conn#0"));
    }

    #[test]
    fn well_formedness_flags_partial_overlap() {
        let bad = vec![
            ExportEvent {
                name: "a".into(),
                track: String::new(),
                tid: 0,
                t0_ns: 0,
                dur_ns: 100,
                trace_id: 1,
                kind: SpanKind::Sync,
                lock: None,
            },
            ExportEvent {
                name: "b".into(),
                track: String::new(),
                tid: 0,
                t0_ns: 50,
                dur_ns: 100,
                trace_id: 1,
                kind: SpanKind::Sync,
                lock: None,
            },
        ];
        let errs = check_well_formed(&bad);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("partially overlaps"));
    }

    #[test]
    fn sampling_selects_one_in_n_deterministically() {
        let _guard = sampling_guard();
        set_sampling(4, 7);
        REQ_SEQ.store(0, Ordering::Relaxed);
        let picks: Vec<u64> = (0..16).map(|_| sample_request()).collect();
        let sampled: Vec<u64> = picks.iter().copied().filter(|&p| p != 0).collect();
        assert_eq!(sampled.len(), 4, "{picks:?}");
        // (seq + 7) % 4 == 0 → seq ∈ {1, 5, 9, 13} → ids seq+1.
        assert_eq!(sampled, vec![2, 6, 10, 14]);
        // Same seed, same subset.
        REQ_SEQ.store(0, Ordering::Relaxed);
        let again: Vec<u64> = (0..16).map(|_| sample_request()).collect();
        assert_eq!(picks, again);
    }

    #[test]
    fn spans_record_into_the_thread_ring() {
        let _guard = sampling_guard();
        set_sampling(1, 0);
        reset_rings();
        {
            let _outer = SyncSpan::start(99, "test.outer");
            let _inner = SyncSpan::start(99, "test.inner");
        }
        {
            let _a = AsyncSpan::start(99, "test.async");
        }
        instant(99, "test.instant");
        let mut w = Waiter::new();
        w.arm(99);
        w.arm(99); // idempotent
        w.finish("test.wait");
        let events = export_events();
        let mine: Vec<&ExportEvent> = events.iter().filter(|e| e.trace_id == 99).collect();
        let names: Vec<&str> = mine.iter().map(|e| e.name.as_str()).collect();
        for want in [
            "test.outer",
            "test.inner",
            "test.async",
            "test.instant",
            "test.wait",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        assert_eq!(names.iter().filter(|n| **n == "test.wait").count(), 1);
        assert!(check_well_formed(&events).is_empty());
        // The whole export renders and reparses.
        let doc = chrome_trace_json(&events);
        let parsed = parse_chrome_json(&doc);
        assert_eq!(parsed.len(), events.len());
        reset_rings();
    }

    #[test]
    fn scoped_restores_previous_id() {
        let _guard = sampling_guard();
        set_sampling(1, 0);
        assert_eq!(current(), 0);
        scoped(5, || {
            assert_eq!(current(), 5);
            scoped(6, || assert_eq!(current(), 6));
            assert_eq!(current(), 5);
        });
        assert_eq!(current(), 0);
    }

    #[test]
    fn traced_future_sets_context_and_emits_suspend() {
        use core::future::poll_fn;
        let _guard = sampling_guard();
        set_sampling(1, 0);
        reset_rings();
        let mut polls = 0;
        let fut = traced(
            77,
            poll_fn(move |cx| {
                assert_eq!(current(), 77);
                polls += 1;
                if polls < 3 {
                    cx.waker().wake_by_ref();
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            }),
        );
        hemlock_core::block_on(fut);
        assert_eq!(take_polled_trace(), 77);
        assert_eq!(take_polled_trace(), 0);
        let suspends = export_events()
            .into_iter()
            .filter(|e| e.name == "task.suspend" && e.trace_id == 77)
            .count();
        assert_eq!(suspends, 2);
        reset_rings();
    }

    #[test]
    fn dropped_async_span_still_records() {
        let _guard = sampling_guard();
        set_sampling(1, 0);
        reset_rings();
        let fut = traced(88, async {
            let _hold = AsyncSpan::start(current(), "test.cancelled_hold");
            core::future::pending::<()>().await;
        });
        // Poll once, then drop: the span must still be emitted.
        let mut fut = Box::pin(fut);
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        drop(fut);
        let found = export_events()
            .into_iter()
            .any(|e| e.name == "test.cancelled_hold" && e.trace_id == 88);
        assert!(found);
        reset_rings();
    }

    fn noop_waker() -> core::task::Waker {
        use core::task::{RawWaker, RawWakerVTable, Waker};
        fn clone(_: *const ()) -> RawWaker {
            RawWaker::new(core::ptr::null(), &VTABLE)
        }
        fn nop(_: *const ()) {}
        static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, nop, nop, nop);
        unsafe { Waker::from_raw(RawWaker::new(core::ptr::null(), &VTABLE)) }
    }

    #[test]
    fn decomposition_attributes_components_and_balances() {
        let ev = |name: &str, id: u64, t0: u64, dur: u64, kind: SpanKind| ExportEvent {
            name: name.to_owned(),
            track: "t".to_owned(),
            tid: 0,
            t0_ns: t0,
            dur_ns: dur,
            trace_id: id,
            kind,
            lock: None,
        };
        let events = vec![
            // Request 5: a combiner — holds the lock, serves its own ops.
            ev("net.decode", 5, 0, 100, SpanKind::Sync),
            ev("net.request", 5, 100, 1000, SpanKind::Async),
            ev("task.suspend", 5, 150, 400, SpanKind::Async),
            ev("shard.lock_wait", 5, 150, 250, SpanKind::Async),
            ev("shard.lock_hold", 5, 400, 200, SpanKind::Async),
            ev("shard.combine_serve", 5, 410, 150, SpanKind::Sync),
            ev("net.encode", 5, 700, 50, SpanKind::Sync),
            ev("net.flush", 5, 750, 100, SpanKind::Async),
            // Request 9: a pure poster — another task's combiner served it.
            ev("net.request", 9, 2000, 500, SpanKind::Async),
            ev("task.suspend", 9, 2050, 300, SpanKind::Async),
            ev("shard.combine_serve", 9, 2100, 120, SpanKind::Sync),
            // Orphan spans: no net.request, must be dropped.
            ev("shard.lock_hold", 11, 3000, 40, SpanKind::Async),
            // Untraced spans are ignored entirely.
            ev("net.decode", 0, 0, 9999, SpanKind::Sync),
        ];
        let ds = decompose_requests(&events);
        assert_eq!(ds.len(), 2);

        let d5 = ds[0];
        assert_eq!(d5.trace_id, 5);
        assert_eq!(d5.total_ns, 1100);
        assert_eq!(d5.decode_ns, 100);
        assert_eq!(d5.lock_wait_ns, 250);
        // Combiner: hold wins; its own serve span nests inside the hold.
        assert_eq!(d5.hold_ns, 200);
        assert_eq!(d5.flush_ns, 150);
        // queue = suspend - (lock_wait + flush) = 400 - 400 = 0.
        assert_eq!(d5.queue_ns, 0);
        assert_eq!(d5.unattributed_ns(), 1100 - (100 + 250 + 200 + 150));

        let d9 = ds[1];
        assert_eq!(d9.trace_id, 9);
        // Poster: the combiner's serve time stands in for hold.
        assert_eq!(d9.hold_ns, 120);
        assert_eq!(d9.queue_ns, 300);
        assert_eq!(d9.total_ns, 500);
    }

    #[test]
    fn timeout_mailbox_stores_and_takes() {
        let _guard = sampling_guard();
        let _stale = take_timeout_dump();
        lock_event("t", LockEvent::TimeoutAbort, 0);
        store_timeout_dump();
        let dump = take_timeout_dump().expect("dump stored");
        assert!(dump.contains(" t timeout_abort 0\n"), "{dump}");
        assert!(take_timeout_dump().is_none(), "a take empties the mailbox");
    }

    #[test]
    fn decomposition_ignores_lock_instants() {
        let ev = |name: &str, id: u64, t0: u64, dur: u64, kind: SpanKind| ExportEvent {
            name: name.to_owned(),
            track: "t".to_owned(),
            tid: 0,
            t0_ns: t0,
            dur_ns: dur,
            trace_id: id,
            kind,
            lock: None,
        };
        let lock = |id: u64, t0: u64| ExportEvent {
            lock: Some((LockEvent::Acquire, 1)),
            ..ev("Hemlock(obs):acquire", id, t0, 0, SpanKind::Instant)
        };
        let spans = vec![
            ev("net.decode", 3, 0, 100, SpanKind::Sync),
            ev("net.request", 3, 100, 900, SpanKind::Async),
            ev("shard.lock_hold", 3, 200, 300, SpanKind::Async),
        ];
        let mut with_locks = spans.clone();
        with_locks.extend([lock(0, 150), lock(0, 250), lock(0, 2_000)]);
        assert_eq!(decompose_requests(&with_locks), decompose_requests(&spans));
        assert!(decompose_requests(&[lock(0, 10)]).is_empty());
    }
}
