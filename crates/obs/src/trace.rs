//! Request-scoped tracing: per-stage timings in lock-free per-thread rings.
//!
//! Every `CrowdService` operation carries a [`RequestCtx`] (trace id, client
//! id, op kind) from the repository facade down through shard acquisition,
//! the shard scan and the group-commit WAL. Each stage records one
//! [`TraceRecord`] with monotonic start/duration nanoseconds into an
//! always-on, lock-free ring buffer: one fixed-capacity ring per thread,
//! drop-oldest on overflow, with dropped records counted rather than
//! silently lost. Records may carry a *causal link* — a follower's
//! durability-wait stage references the leader trace whose fsync made its
//! record durable.
//!
//! The disabled path is a single relaxed atomic load: [`RequestCtx::new`]
//! returns an inactive context (trace id 0) and every later hook is a
//! no-op, preserving the <2% disabled-overhead budget. Tracing records only
//! timestamps — it never consumes RNG state or changes arithmetic order —
//! so tuner results are bitwise identical with tracing on or off.
//!
//! Ring slots use a seqlock: the owning thread bumps the slot sequence to
//! an odd value, writes the fields, then bumps it even; [`drain_traces`]
//! (a single collector) validates the sequence before and after reading and
//! skips torn slots, counting them as dropped.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::journal::Event;

/// Which service operation a trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// An evaluation upload (`CrowdService::insert`).
    Upload,
    /// A problem-scoped shard query.
    Query,
    /// An owner-scoped delete.
    Delete,
    /// A blob append.
    Blob,
    /// A WAL compaction.
    Compact,
}

impl OpKind {
    /// Stable lowercase name used in journals and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Upload => "upload",
            OpKind::Query => "query",
            OpKind::Delete => "delete",
            OpKind::Blob => "blob",
            OpKind::Compact => "compact",
        }
    }

    /// Parse the stable name back into an [`OpKind`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "upload" => OpKind::Upload,
            "query" => OpKind::Query,
            "delete" => OpKind::Delete,
            "blob" => OpKind::Blob,
            "compact" => OpKind::Compact,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            OpKind::Upload => 0,
            OpKind::Query => 1,
            OpKind::Delete => 2,
            OpKind::Blob => 3,
            OpKind::Compact => 4,
        }
    }

    fn from_u8(b: u8) -> Self {
        match b {
            0 => OpKind::Upload,
            1 => OpKind::Query,
            2 => OpKind::Delete,
            3 => OpKind::Blob,
            _ => OpKind::Compact,
        }
    }
}

impl Serialize for OpKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for OpKind {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => {
                OpKind::parse(s).ok_or_else(|| DeError::new(format!("unknown op kind `{s}`")))
            }
            _ => Err(DeError::new("expected string op kind")),
        }
    }
}

/// One timed stage within a traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceStage {
    /// The whole operation, end to end. Every trace has exactly one.
    Op,
    /// Waiting for the per-shard write mutex.
    ShardLockWait,
    /// Applying the mutation to the in-memory shard store.
    MemApply,
    /// Framing + buffering the record into the WAL group buffer.
    WalEnqueue,
    /// A group-commit leader's write + fsync of the drained buffer.
    WalFsync,
    /// A follower waiting for a leader's fsync to cover its ticket.
    /// `link` names the leader trace that performed the covering fsync.
    WalFollowerWait,
    /// A query-cache probe. Nothing records it any more (the service
    /// caches no query results); the name stays so traces written by
    /// earlier builds still read.
    CacheCheck,
    /// A query's scan of one shard's index.
    Scan,
    /// Snapshot + WAL truncation during compaction.
    Compact,
}

impl TraceStage {
    /// Stable lowercase name used in journals and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceStage::Op => "op",
            TraceStage::ShardLockWait => "shard_lock_wait",
            TraceStage::MemApply => "mem_apply",
            TraceStage::WalEnqueue => "wal_enqueue",
            TraceStage::WalFsync => "wal_fsync",
            TraceStage::WalFollowerWait => "wal_follower_wait",
            TraceStage::CacheCheck => "cache_check",
            TraceStage::Scan => "scan",
            TraceStage::Compact => "compact",
        }
    }

    /// Parse the stable name back into a [`TraceStage`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "op" => TraceStage::Op,
            "shard_lock_wait" => TraceStage::ShardLockWait,
            "mem_apply" => TraceStage::MemApply,
            "wal_enqueue" => TraceStage::WalEnqueue,
            "wal_fsync" => TraceStage::WalFsync,
            "wal_follower_wait" => TraceStage::WalFollowerWait,
            "cache_check" => TraceStage::CacheCheck,
            "scan" => TraceStage::Scan,
            "compact" => TraceStage::Compact,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            TraceStage::Op => 0,
            TraceStage::ShardLockWait => 1,
            TraceStage::MemApply => 2,
            TraceStage::WalEnqueue => 3,
            TraceStage::WalFsync => 4,
            TraceStage::WalFollowerWait => 5,
            TraceStage::CacheCheck => 6,
            TraceStage::Scan => 7,
            TraceStage::Compact => 8,
        }
    }

    fn from_u8(b: u8) -> Self {
        match b {
            0 => TraceStage::Op,
            1 => TraceStage::ShardLockWait,
            2 => TraceStage::MemApply,
            3 => TraceStage::WalEnqueue,
            4 => TraceStage::WalFsync,
            5 => TraceStage::WalFollowerWait,
            6 => TraceStage::CacheCheck,
            7 => TraceStage::Scan,
            _ => TraceStage::Compact,
        }
    }
}

impl Serialize for TraceStage {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for TraceStage {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => {
                TraceStage::parse(s).ok_or_else(|| DeError::new(format!("unknown stage `{s}`")))
            }
            _ => Err(DeError::new("expected string trace stage")),
        }
    }
}

/// One timed stage of one traced request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Process-unique trace id (never 0; 0 means "no trace").
    pub trace: u64,
    /// FNV hash of the requesting client identity (0 when unknown).
    pub client: u32,
    /// Operation kind this stage belongs to.
    pub op: OpKind,
    /// Which stage of the operation this record times.
    pub stage: TraceStage,
    /// Shard index the stage ran against (`u16::MAX` = not shard-scoped).
    pub shard: u16,
    /// Monotonic start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Causal link: the trace id whose work completed this stage
    /// (a follower's covering leader fsync). 0 = no link.
    #[serde(default)]
    pub link: u64,
}

/// Shard value meaning "this stage is not scoped to a shard".
pub const NO_SHARD: u16 = u16::MAX;

static TRACING: AtomicBool = AtomicBool::new(false);
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(4096);
static BASE: OnceLock<Instant> = OnceLock::new();

/// Turn request tracing on or off process-wide.
pub fn set_tracing_enabled(enabled: bool) {
    if enabled {
        // Pin the trace epoch before the first record so start_ns is
        // meaningful across threads.
        let _ = BASE.get_or_init(Instant::now);
    }
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Set the per-thread ring capacity (slots). Applies to rings created
/// after the call; existing rings keep their size. Clamped to
/// `[64, 1 << 20]`.
fn set_ring_capacity(slots: usize) {
    RING_CAPACITY.store(slots.clamp(64, 1 << 20), Ordering::Relaxed);
}

/// Declarative tracing configuration, so drivers can size the capture
/// ring for their workload instead of hard-coding a capacity and
/// asserting drops never happen.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Per-thread ring capacity in slots (clamped to `[64, 1 << 20]`
    /// when applied). Rings created before [`configure_tracing`] keep
    /// their old size.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
        }
    }
}

/// Apply a [`TraceConfig`] and enable tracing. Overflowing the ring is
/// not fatal: drops are counted per drain into the
/// `obs.trace_dropped` counter and reported in the journal's
/// `tracedropped` event, so
/// an undersized ring degrades to partial (but unbiased-at-the-tail)
/// capture rather than aborting the run.
pub fn configure_tracing(config: &TraceConfig) {
    set_ring_capacity(config.ring_capacity);
    set_tracing_enabled(true);
}

/// Monotonic nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Lock-free per-thread ring
// ---------------------------------------------------------------------------

/// One seqlock-protected ring slot. `seq` is even when the slot is stable
/// and odd while the owning thread is writing it. `meta` packs
/// `(op << 56) | (stage << 48) | (shard << 32) | client`.
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    meta: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    link: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            link: AtomicU64::new(0),
        }
    }
}

fn pack_meta(op: OpKind, stage: TraceStage, shard: u16, client: u32) -> u64 {
    ((op.as_u8() as u64) << 56)
        | ((stage.as_u8() as u64) << 48)
        | ((shard as u64) << 32)
        | client as u64
}

fn unpack_meta(meta: u64) -> (OpKind, TraceStage, u16, u32) {
    (
        OpKind::from_u8((meta >> 56) as u8),
        TraceStage::from_u8((meta >> 48) as u8),
        (meta >> 32) as u16,
        meta as u32,
    )
}

/// Fixed-capacity drop-oldest ring owned by one writer thread.
struct TraceRing {
    slots: Box<[Slot]>,
    /// Total records ever pushed; the live window is
    /// `[max(taken, head - capacity), head)`.
    head: AtomicU64,
    /// Records already consumed (or skipped) by the collector.
    taken: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            taken: AtomicU64::new(0),
        }
    }

    /// Owner-thread push. Seqlock write: odd seq, fields, even seq, then
    /// publish the new head.
    fn push(&self, rec: &TraceRecord) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Release);
        slot.trace.store(rec.trace, Ordering::Relaxed);
        slot.meta.store(
            pack_meta(rec.op, rec.stage, rec.shard, rec.client),
            Ordering::Relaxed,
        );
        slot.start_ns.store(rec.start_ns, Ordering::Relaxed);
        slot.dur_ns.store(rec.dur_ns, Ordering::Relaxed);
        slot.link.store(rec.link, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        self.head.store(head + 1, Ordering::Release);
    }

    /// Collector-side read of one logical index. Returns `None` if the
    /// slot was being rewritten concurrently (torn).
    fn read(&self, index: u64) -> Option<TraceRecord> {
        let slot = &self.slots[(index % self.slots.len() as u64) as usize];
        let seq_before = slot.seq.load(Ordering::Acquire);
        if seq_before & 1 == 1 {
            return None;
        }
        let trace = slot.trace.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let start_ns = slot.start_ns.load(Ordering::Relaxed);
        let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
        let link = slot.link.load(Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq_before {
            return None;
        }
        let (op, stage, shard, client) = unpack_meta(meta);
        Some(TraceRecord {
            trace,
            client,
            op,
            stage,
            shard,
            start_ns,
            dur_ns,
            link,
        })
    }
}

fn registry() -> &'static RwLock<Vec<Arc<TraceRing>>> {
    static REGISTRY: OnceLock<RwLock<Vec<Arc<TraceRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: Arc<TraceRing> = {
        let ring = Arc::new(TraceRing::new(RING_CAPACITY.load(Ordering::Relaxed)));
        registry().write().push(Arc::clone(&ring));
        ring
    };
}

#[inline]
fn push_record(rec: &TraceRecord) {
    THREAD_RING.with(|ring| ring.push(rec));
}

/// A drained set of trace records plus the number of records lost to
/// ring overflow (or torn seqlock reads).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJournal {
    /// Records in `(start_ns, trace)` order.
    pub records: Vec<TraceRecord>,
    /// Records overwritten before the collector could read them.
    pub dropped: u64,
}

/// Drain every thread ring into one journal, sorted by start time.
///
/// Intended for a single collector (the load driver / test harness) after
/// the traced workload quiesces; concurrent drains would double-count.
/// Records pushed while the drain runs may be picked up by the next call.
pub fn drain_traces() -> TraceJournal {
    let rings: Vec<Arc<TraceRing>> = registry().read().iter().cloned().collect();
    let mut records = Vec::new();
    let mut dropped = 0u64;
    for ring in rings {
        let head = ring.head.load(Ordering::Acquire);
        let taken = ring.taken.load(Ordering::Relaxed);
        let cap = ring.slots.len() as u64;
        let first = taken.max(head.saturating_sub(cap));
        dropped += first - taken;
        for index in first..head {
            match ring.read(index) {
                Some(rec) => records.push(rec),
                None => dropped += 1,
            }
        }
        ring.taken.store(head, Ordering::Relaxed);
    }
    records.sort_by_key(|r| (r.start_ns, r.trace, r.stage.as_u8()));
    if dropped > 0 {
        crate::metrics::count(crate::names::CTR_TRACE_DROPPED, dropped);
    }
    TraceJournal { records, dropped }
}

impl TraceJournal {
    /// Collects the `trace` records and `tracedropped` counts of a parsed
    /// journal (`crowd_load --trace` writes one `tracedropped` event and
    /// one `trace` event per drained record). Other kinds are skipped.
    pub fn from_events(events: &[Event]) -> TraceJournal {
        let mut journal = TraceJournal {
            records: Vec::new(),
            dropped: 0,
        };
        for ev in events {
            match ev {
                Event::Trace { record } => journal.records.push(record.clone()),
                Event::TraceDropped { records } => journal.dropped += records,
                _ => {}
            }
        }
        journal
    }
}

/// Discard all pending records in every ring (marks them consumed).
pub fn reset_traces() {
    for ring in registry().read().iter() {
        let head = ring.head.load(Ordering::Acquire);
        ring.taken.store(head, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Request context
// ---------------------------------------------------------------------------

/// Identity of one in-flight service request: trace id, client hash, op.
///
/// Created at the service boundary (`repo.rs` / `CrowdService` public
/// methods) and threaded by value through the shard and WAL layers. When tracing is disabled the context is inactive (trace id 0)
/// and every recording method returns immediately.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// Process-unique trace id, or 0 when tracing is disabled.
    pub trace_id: u64,
    /// FNV hash of the client identity (0 when unknown).
    pub client: u32,
    /// Operation kind.
    pub op: OpKind,
}

impl RequestCtx {
    /// Open a context for one request. Allocates a trace id only when
    /// tracing is enabled; otherwise the context is inert.
    #[inline]
    pub fn new(op: OpKind, client: u32) -> Self {
        let trace_id = if TRACING.load(Ordering::Relaxed) {
            NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        RequestCtx {
            trace_id,
            client,
            op,
        }
    }

    /// Whether this request is being traced.
    #[inline]
    pub fn active(&self) -> bool {
        self.trace_id != 0
    }

    /// Stage-start timestamp: `now_ns()` when active, 0 otherwise.
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.trace_id != 0 {
            now_ns()
        } else {
            0
        }
    }

    /// Record a stage that started at `start_ns` (from [`Self::begin`])
    /// and ends now.
    #[inline]
    pub fn record(&self, stage: TraceStage, shard: u16, start_ns: u64) {
        self.record_linked(stage, shard, start_ns, 0);
    }

    /// Like [`Self::record`] but with a causal link to another trace.
    #[inline]
    pub fn record_linked(&self, stage: TraceStage, shard: u16, start_ns: u64, link: u64) {
        if self.trace_id == 0 {
            return;
        }
        let dur = now_ns().saturating_sub(start_ns);
        self.record_span(stage, shard, start_ns, dur, link);
    }

    /// Record a stage with explicit start and duration (for spans timed
    /// by another component, e.g. a leader fsync measured inside the WAL).
    pub fn record_span(
        &self,
        stage: TraceStage,
        shard: u16,
        start_ns: u64,
        dur_ns: u64,
        link: u64,
    ) {
        if self.trace_id == 0 {
            return;
        }
        push_record(&TraceRecord {
            trace: self.trace_id,
            client: self.client,
            op: self.op,
            stage,
            shard,
            start_ns,
            dur_ns,
            link,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share process-global tracing state; serialize them.
    fn lock() -> parking_lot::MutexGuard<'static, ()> {
        static GATE: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| parking_lot::Mutex::new(())).lock()
    }

    #[test]
    fn disabled_context_records_nothing() {
        let _g = lock();
        set_tracing_enabled(false);
        reset_traces();
        let ctx = RequestCtx::new(OpKind::Query, 7);
        assert!(!ctx.active());
        let t = ctx.begin();
        ctx.record(TraceStage::Scan, 0, t);
        let journal = drain_traces();
        assert!(journal.records.is_empty());
        assert_eq!(journal.dropped, 0);
    }

    #[test]
    fn records_roundtrip_through_ring_and_file() {
        let _g = lock();
        set_tracing_enabled(true);
        reset_traces();
        let ctx = emit_roundtrip_records();
        set_tracing_enabled(false);
        let journal = drain_traces();
        let ours: Vec<&TraceRecord> = journal
            .records
            .iter()
            .filter(|r| r.trace == ctx.trace_id)
            .collect();
        assert_eq!(ours.len(), 3);
        // Op and ShardLockWait share start_ns = t0; the (start, trace,
        // stage) sort puts Op (stage 0) first.
        assert_eq!(ours[0].stage, TraceStage::Op);
        assert_eq!(ours[1].stage, TraceStage::ShardLockWait);
        assert_eq!(ours[2].stage, TraceStage::MemApply);
        assert_eq!(ours[2].link, 42);
        assert_eq!(ours[0].client, 9);
        assert_eq!(ours[0].op, OpKind::Upload);
        assert_eq!(ours[0].shard, 3);

        let dir = std::env::temp_dir().join(format!("trace_rt_{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        let file = crate::Journal::create(&path).unwrap();
        file.record(&Event::TraceDropped {
            records: journal.dropped,
        })
        .unwrap();
        for record in &journal.records {
            file.record(&Event::Trace {
                record: record.clone(),
            })
            .unwrap();
        }
        file.flush().unwrap();
        let back = TraceJournal::from_events(&crate::read_journal(&path).unwrap());
        assert_eq!(back, journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn emit_roundtrip_records() -> RequestCtx {
        let ctx = RequestCtx::new(OpKind::Upload, 9);
        assert!(ctx.active());
        let t0 = ctx.begin();
        ctx.record(TraceStage::ShardLockWait, 3, t0);
        let t1 = ctx.begin();
        ctx.record_linked(TraceStage::MemApply, 3, t1, 42);
        ctx.record(TraceStage::Op, 3, t0);
        ctx
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _g = lock();
        set_tracing_enabled(true);
        reset_traces();
        // New thread gets a fresh (small) ring.
        set_ring_capacity(64);
        let handle = std::thread::spawn(|| {
            let ctx = RequestCtx::new(OpKind::Query, 1);
            for _ in 0..100 {
                let t = ctx.begin();
                ctx.record(TraceStage::Scan, 0, t);
            }
            ctx.trace_id
        });
        let trace = handle.join().unwrap();
        set_tracing_enabled(false);
        set_ring_capacity(4096);
        let journal = drain_traces();
        let ours = journal.records.iter().filter(|r| r.trace == trace).count();
        assert_eq!(ours, 64, "ring keeps exactly its capacity");
        assert!(
            journal.dropped >= 36,
            "overflow counted: {}",
            journal.dropped
        );
    }

    #[test]
    fn concurrent_writers_produce_valid_records() {
        let _g = lock();
        set_tracing_enabled(true);
        reset_traces();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let ctx = RequestCtx::new(OpKind::Upload, i as u32);
                    for s in 0..200u64 {
                        ctx.record_span(TraceStage::WalEnqueue, i, s * 10, 5, 0);
                    }
                    ctx.trace_id
                })
            })
            .collect();
        let ids: Vec<u64> = threads.into_iter().map(|h| h.join().unwrap()).collect();
        set_tracing_enabled(false);
        let journal = drain_traces();
        for id in ids {
            let n = journal.records.iter().filter(|r| r.trace == id).count();
            assert_eq!(n, 200);
        }
        for rec in &journal.records {
            assert_eq!(rec.dur_ns, 5);
            assert_eq!(rec.stage, TraceStage::WalEnqueue);
        }
    }

    #[test]
    fn op_kind_and_stage_names_roundtrip() {
        for op in [
            OpKind::Upload,
            OpKind::Query,
            OpKind::Delete,
            OpKind::Blob,
            OpKind::Compact,
        ] {
            assert_eq!(OpKind::parse(op.as_str()), Some(op));
            assert_eq!(OpKind::from_u8(op.as_u8()), op);
        }
        for stage in [
            TraceStage::Op,
            TraceStage::ShardLockWait,
            TraceStage::MemApply,
            TraceStage::WalEnqueue,
            TraceStage::WalFsync,
            TraceStage::WalFollowerWait,
            TraceStage::CacheCheck,
            TraceStage::Scan,
            TraceStage::Compact,
        ] {
            assert_eq!(TraceStage::parse(stage.as_str()), Some(stage));
            assert_eq!(TraceStage::from_u8(stage.as_u8()), stage);
        }
    }
}
