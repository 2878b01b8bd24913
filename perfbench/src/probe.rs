//! Per-layer timing from outside the program.
//!
//! Every number here comes from a timing call at a public boundary of a
//! layer: operator calls (`Operator`), source reads (`EventStream`) and
//! checkpoint-store calls (`StorageBackend`). The wrappers delegate
//! every call unchanged, so a wrapped run computes exactly what an
//! unwrapped one does (traced runs check this).
//!
//! Counts accumulate in a per-thread [`Tally`] (no shared cache line on
//! the hot path) that merges into one process-wide total when its thread
//! exits (live-runtime threads) or when the owning thread calls
//! [`flush`] (harness jobs and the main thread).

use bytes::Bytes;
use checkmate_dataflow::graph::OpFactory;
use checkmate_dataflow::ops::Digest;
use checkmate_dataflow::{
    DecodeError, GraphBuilder, LogicalGraph, OpCtx, OpRole, Operator, PortId, Record, Time,
};
use checkmate_engine::workload::{StreamSpec, Workload};
use checkmate_storage::{ObjectKey, StorageBackend, StorageError, StorageProfile};
use checkmate_wal::EventStream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer counters of one thread (or, merged, of the process).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub records_in: u64,
    pub op_ns: u64,
    pub snapshot_calls: u64,
    pub snapshot_ns: u64,
    pub snapshot_bytes: u64,
    pub restore_calls: u64,
    pub restore_ns: u64,
    pub reads: u64,
    pub read_ns: u64,
    /// Distinct source offsets read: the sum over (stream, partition) of
    /// the highest offset read plus one. Each partition is read by one
    /// thread (engine runs are single-threaded; live workers own their
    /// partition), so per-thread high-water marks add up exactly.
    pub inputs: u64,
    /// Read instant minus due time, ns, one sample per live source read.
    pub lag_ns: Vec<u64>,
    pub puts: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub gets: u64,
    pub get_ns: u64,
    /// Sink latency from due time, ns (untraced live runs).
    pub latency_ns: Vec<u64>,
}

impl Tally {
    /// Add `o` into `self`.
    pub fn merge_from(&mut self, mut o: Tally) {
        self.records_in += o.records_in;
        self.op_ns += o.op_ns;
        self.snapshot_calls += o.snapshot_calls;
        self.snapshot_ns += o.snapshot_ns;
        self.snapshot_bytes += o.snapshot_bytes;
        self.restore_calls += o.restore_calls;
        self.restore_ns += o.restore_ns;
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.inputs += o.inputs;
        self.lag_ns.append(&mut o.lag_ns);
        self.puts += o.puts;
        self.put_bytes += o.put_bytes;
        self.put_ns += o.put_ns;
        self.gets += o.gets;
        self.get_ns += o.get_ns;
        self.latency_ns.append(&mut o.latency_ns);
    }
}

/// A thread's tally plus the source high-water marks of the current
/// run, indexed by `stream slot × MAX_PARTS + partition`.
#[derive(Default)]
struct Local {
    tally: Tally,
    hwm: Vec<u64>,
}

impl Local {
    fn close_inputs(&mut self) {
        self.tally.inputs += self.hwm.iter().sum::<u64>();
        self.hwm.clear();
    }
}

impl Local {
    /// Move this thread's tally into the process total.
    fn publish(&mut self, total: &mut Option<Tally>) {
        self.close_inputs();
        total
            .get_or_insert_with(Tally::default)
            .merge_from(std::mem::take(&mut self.tally));
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Drop must not panic: a total poisoned by another thread's
        // panic is left alone.
        if let Ok(mut total) = GLOBAL.lock() {
            self.publish(&mut total);
        }
    }
}

const MAX_PARTS: usize = 64;

/// The process total; `None` until the first merge.
static GLOBAL: Mutex<Option<Tally>> = Mutex::new(None);

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn with<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Merge this thread's tally into the process total. Long-lived threads
/// call it at the end of each run; short-lived ones merge on exit.
pub fn flush() {
    let mut total = GLOBAL
        .lock()
        .expect("tally lock poisoned by a panicking thread");
    with(|l| l.publish(&mut total));
}

/// Close the current engine run's source high-water marks (engine runs
/// of one thread follow each other, so their marks must not mix).
pub fn end_run() {
    with(Local::close_inputs);
}

/// Take (and zero) the process total.
pub fn take() -> Tally {
    GLOBAL
        .lock()
        .expect("tally lock poisoned by a panicking thread")
        .take()
        .unwrap_or_default()
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Which wrappers a rebuilt workload carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wrap {
    /// Only the latency-recording sink (live end-to-end metric).
    LatencyOnly,
    /// Every operator call and source read is timed.
    Traced,
}

/// Rebuild `wl` from its public graph description, wrapping operator
/// factories and streams as `wrap` says. `work_ns` overrides each
/// operator's modeled per-record cost when set (the zero-cost reference
/// engine).
pub fn rebuild(wl: &Workload, wrap: Option<Wrap>, work_ns: Option<u64>) -> Workload {
    Workload {
        name: wl.name.clone(),
        graph: rebuild_graph(&wl.graph, wrap, work_ns),
        streams: wl
            .streams
            .iter()
            .enumerate()
            .map(|(slot, s)| StreamSpec {
                stream: match wrap {
                    Some(Wrap::Traced) => Arc::new(TimedStream {
                        inner: Arc::clone(&s.stream),
                        slot,
                        due: None,
                    }),
                    _ => Arc::clone(&s.stream),
                },
                rate_share: s.rate_share,
            })
            .collect(),
    }
}

fn rebuild_graph(g: &LogicalGraph, wrap: Option<Wrap>, work_ns: Option<u64>) -> LogicalGraph {
    let mut b = GraphBuilder::new();
    for op in g.ops() {
        let inner = Arc::clone(&op.factory);
        let factory: OpFactory = match wrap {
            None => inner,
            Some(Wrap::LatencyOnly) if op.role != OpRole::Sink => inner,
            Some(w) => Arc::new(move |i| {
                Box::new(TimedOp {
                    inner: inner(i),
                    traced: w == Wrap::Traced,
                }) as Box<dyn Operator>
            }),
        };
        let work = work_ns.unwrap_or(op.work_ns);
        let id = match op.role {
            OpRole::Source { stream } => b.source(&op.name, stream, work, factory),
            OpRole::Transform => b.op(&op.name, work, factory),
            OpRole::Sink => b.sink(&op.name, work, factory),
        };
        assert_eq!(id, op.id, "rebuilt graph keeps operator ids");
    }
    for e in g.edges() {
        b.connect_port(e.from, e.to, e.kind, e.to_port);
    }
    b.build().expect("a valid graph rebuilds")
}

/// Per-partition due-time schedule of a live stream: offset `o` is due
/// `o / rate_per_partition` seconds after `start`.
#[derive(Debug, Clone, Copy)]
struct Due {
    start: Instant,
    rate_per_partition: f64,
}

/// Wrap the unwrapped streams of `wl` for one live run starting at
/// `start`, so each read also samples generator lag. Stream `i` runs at
/// `per_partition × rate_share` records/s per partition, the runtime's
/// own split.
pub fn timed_streams(wl: &Workload, start: Instant, per_partition: f64) -> Vec<StreamSpec> {
    wl.streams
        .iter()
        .enumerate()
        .map(|(slot, s)| StreamSpec {
            stream: Arc::new(TimedStream {
                inner: Arc::clone(&s.stream),
                slot,
                due: Some(Due {
                    start,
                    rate_per_partition: per_partition * s.rate_share,
                }),
            }),
            rate_share: s.rate_share,
        })
        .collect()
}

/// Times every source read.
struct TimedStream {
    inner: Arc<dyn EventStream>,
    slot: usize,
    due: Option<Due>,
}

impl EventStream for TimedStream {
    fn partitions(&self) -> u32 {
        self.inner.partitions()
    }

    fn record(&self, partition: u32, offset: u64) -> Record {
        let t = Instant::now();
        let rec = self.inner.record(partition, offset);
        let ns = elapsed_ns(t);
        with(|l| {
            l.tally.reads += 1;
            l.tally.read_ns += ns;
            let i = self.slot * MAX_PARTS + partition as usize;
            if l.hwm.len() <= i {
                l.hwm.resize(i + 1, 0);
            }
            l.hwm[i] = l.hwm[i].max(offset + 1);
            if let Some(d) = self.due {
                let due_ns = (offset as f64 / d.rate_per_partition * 1e9) as u64;
                let at = t.duration_since(d.start).as_nanos() as u64;
                l.tally.lag_ns.push(at.saturating_sub(due_ns));
            }
        });
        rec
    }
}

/// Times every operator call (`traced`), or — wrapped around a sink on
/// untraced live runs — records each record's latency from its due time
/// (`ingest_time`) to delivery (`ctx.now`), the live runtime's own
/// latency definition.
struct TimedOp {
    inner: Box<dyn Operator>,
    traced: bool,
}

impl Operator for TimedOp {
    fn on_record(&mut self, port: PortId, rec: Record, ctx: &mut OpCtx) {
        if !self.traced {
            let lat = ctx.now.saturating_sub(rec.ingest_time);
            self.inner.on_record(port, rec, ctx);
            with(|l| l.tally.latency_ns.push(lat));
            return;
        }
        let t = Instant::now();
        self.inner.on_record(port, rec, ctx);
        let ns = elapsed_ns(t);
        with(|l| {
            l.tally.records_in += 1;
            l.tally.op_ns += ns;
        });
    }

    fn on_timer(&mut self, at: Time, ctx: &mut OpCtx) {
        if !self.traced {
            return self.inner.on_timer(at, ctx);
        }
        let t = Instant::now();
        self.inner.on_timer(at, ctx);
        let ns = elapsed_ns(t);
        with(|l| l.tally.op_ns += ns);
    }

    fn snapshot(&self) -> Vec<u8> {
        let t = Instant::now();
        let bytes = self.inner.snapshot();
        let ns = elapsed_ns(t);
        if self.traced {
            with(|l| {
                l.tally.snapshot_calls += 1;
                l.tally.snapshot_ns += ns;
                l.tally.snapshot_bytes += bytes.len() as u64;
            });
        }
        bytes
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let t = Instant::now();
        let r = self.inner.restore(bytes);
        let ns = elapsed_ns(t);
        if self.traced {
            with(|l| {
                l.tally.restore_calls += 1;
                l.tally.restore_ns += ns;
            });
        }
        r
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn snapshot_len(&self) -> usize {
        self.inner.snapshot_len()
    }

    fn state_size(&self) -> usize {
        self.inner.state_size()
    }

    fn is_stateless(&self) -> bool {
        self.inner.is_stateless()
    }

    fn sink_digest(&self) -> Option<Digest> {
        self.inner.sink_digest()
    }
}

/// Times every checkpoint-store PUT and GET of a live run.
#[derive(Debug)]
pub struct TimedBackend<B>(pub B);

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn put(&self, key: &str, bytes: Bytes) -> Result<(), StorageError> {
        let len = bytes.len() as u64;
        let t = Instant::now();
        let r = self.0.put(key, bytes);
        let ns = elapsed_ns(t);
        with(|l| {
            l.tally.puts += 1;
            l.tally.put_bytes += len;
            l.tally.put_ns += ns;
        });
        r
    }

    fn get(&self, key: &str) -> Result<Option<Bytes>, StorageError> {
        let t = Instant::now();
        let r = self.0.get(key);
        let ns = elapsed_ns(t);
        with(|l| {
            l.tally.gets += 1;
            l.tally.get_ns += ns;
        });
        r
    }

    fn delete(&self, key: &str) -> Option<usize> {
        self.0.delete(key)
    }

    fn delete_prefix(&self, prefix: &str) -> (usize, u64) {
        self.0.delete_prefix(prefix)
    }

    fn list(&self, prefix: &str) -> Vec<ObjectKey> {
        self.0.list(prefix)
    }

    fn size_of(&self, key: &str) -> Option<usize> {
        self.0.size_of(key)
    }

    fn object_count(&self) -> usize {
        self.0.object_count()
    }

    fn total_bytes(&self) -> u64 {
        self.0.total_bytes()
    }

    fn profile(&self) -> StorageProfile {
        self.0.profile()
    }

    fn reset(&self, profile: StorageProfile) -> bool {
        self.0.reset(profile)
    }
}

/// Counting global allocator: counts only while [`count_allocs`] is on,
/// so untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every operation delegates to `System` unchanged; the counter
// is a side effect with no bearing on the memory returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start or stop counting allocations; returns the count so far.
pub fn count_allocs(on: bool) -> u64 {
    COUNTING.store(on, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long` counters starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C layout on 64-bit Linux and
    // RUSAGE_SELF (0) fills exactly that struct through a valid pointer.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    u
}

/// Process CPU time (user + system, every thread alive or exited), s.
pub fn cpu_s() -> f64 {
    let u = rusage();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 / 1e6;
    tv(u.utime) + tv(u.stime)
}

/// Process peak resident set size, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}
