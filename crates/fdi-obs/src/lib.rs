//! Zero-dependency observability for the fd-incomplete workspace:
//! atomic counters and gauges, fixed-bucket log₂ latency histograms
//! with p50/p90/p99 readout and scoped span timers — all hanging off a
//! cheap, cloneable [`Recorder`] handle.
//!
//! # The noop contract
//!
//! Instrumented hot paths take a `&Recorder` everywhere. A disabled
//! recorder ([`Recorder::noop`], also [`Recorder::default`]) holds no
//! allocation at all — it is `Option<Arc<…>>::None` — so every record
//! call on the disabled path is a single branch-predictable load and
//! jump: no atomics, no clock reads ([`Recorder::span`] never calls
//! `Instant::now` when disabled). Cloning either flavor is one
//! `Option<Arc>` clone. This keeps instrumentation within noise of
//! un-instrumented code (a noop recorder measured ×0.95–×1.08 against
//! none at all).
//!
//! # Deterministic vs nondeterministic metrics
//!
//! The workspace promises bit-identical engine results for the same op
//! stream, under any number of concurrent readers.
//! Observability extends that contract instead of eroding it: every
//! metric is registered as **deterministic** or not, and
//! [`MetricsSnapshot::deterministic_pairs`] exposes exactly the
//! deterministic slice for invariance tests.
//!
//! * **Deterministic** metrics are driven only by the writer-serial
//!   path or by the sequential engines (the extended chase and
//!   TEST-FDs) —
//!   extended-chase rounds/unions, TEST-FDs tallies, ops
//!   applied/rejected, journal record/sync *counts*, epoch sequence.
//!   Same op stream ⇒ same values, with any number of readers.
//! * **Nondeterministic** metrics are timings (histograms are always
//!   nondeterministic) and anything reader-driven (`snapshot_reads`,
//!   plan-cache and memo traffic — readers are free-running threads,
//!   and which reader asks what is up to them).
//!
//! The registry lives in the [`Counter`], [`Gauge`], and [`Hist`]
//! enums; each variant documents its source and its determinism class.
//!
//! # Exposition
//!
//! [`MetricsSnapshot::render_text`] emits stable Prometheus-style
//! `fdi_<name>{det="…"} <value>` lines (histograms add `_count`/`_sum`
//! and `q="p50|p90|p99"` quantile lines); [`MetricsSnapshot::render_json`]
//! emits the same data as one JSON object. Ordering is the fixed enum
//! registry order, so diffs between scrapes are line-stable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonic event counters. Each variant names its recording site and
/// whether it is part of the deterministic slice (see crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Extended cell-chase discovery phases to fixpoint (deterministic:
    /// the sequential engine draws a sorted agenda each phase).
    CellRounds,
    /// Extended cell-chase cell unions (deterministic: the union count
    /// is initial classes − final classes, and the closure is unique
    /// by Theorem 4(a)).
    CellUnions,
    /// TEST-FDs invocations recorded by `testfd::check`
    /// (deterministic: recorded only where a caller passes a live
    /// recorder, never from free-running readers).
    TestfdChecks,
    /// TEST-FDs strong-mode pairwise fallbacks taken (LHS touches a
    /// null column; deterministic — a property of the FD set and
    /// instance, not of scheduling).
    TestfdFallbackHits,
    /// Rows scanned by TEST-FDs: `n` per non-trivial FD visited,
    /// stopping at the first violated FD (deterministic: a function of
    /// the instance, the FD set and the verdict).
    TestfdRowsScanned,
    /// Database mutations accepted and applied (deterministic).
    OpsApplied,
    /// Database mutations rejected by FD enforcement or bad arguments
    /// (deterministic).
    OpsRejected,
    /// Group-commit batch records appended (deterministic: the journal
    /// is writer-serial).
    JournalBatchRecords,
    /// Ops made durable through batch records (deterministic).
    JournalOpsCommitted,
    /// Journal `sync` barriers issued (deterministic — the *count*;
    /// the latency histogram is not).
    JournalSyncs,
    /// Torn journal tails truncated during recovery (deterministic:
    /// a property of the bytes on disk).
    JournalTornTruncations,
    /// Ops replayed by `Journal::recover` (deterministic).
    RecoveryReplayedOps,
    /// Epochs published by the serving writer (deterministic).
    EpochsPublished,
    /// `CompiledQuery` compilations (nondeterministic: compile-on-miss
    /// is reader-driven through the per-epoch plan cache).
    QueryCompiles,
    /// Per-epoch plan-cache hits (nondeterministic: reader-driven).
    PlanCacheHits,
    /// Per-epoch plan-cache misses (nondeterministic: reader-driven).
    PlanCacheMisses,
    /// `SignatureMemo` verdict replays (nondeterministic: reader-driven,
    /// one tally per recorded select).
    MemoHits,
    /// `SignatureMemo` fresh evaluations (nondeterministic: reader-driven,
    /// like `MemoHits`).
    MemoMisses,
    /// Rows answered via the null-free classical fast path
    /// (nondeterministic: derived per recorded select, which is
    /// reader-driven).
    ClassicalRows,
    /// Reader snapshot acquisitions (nondeterministic: reader-driven).
    SnapshotReads,
    /// TEST-FDs invocations under the strong convention — the
    /// per-semantics slice of `TestfdChecks`, exposed with a
    /// `semantics="strong"` label so differential runs are
    /// distinguishable (deterministic, like the total).
    TestfdChecksStrong,
    /// TEST-FDs invocations under the null-marker convention
    /// (`semantics="null-marker"`; deterministic).
    TestfdChecksNullMarker,
    /// TEST-FDs invocations under the weak convention
    /// (`semantics="weak"`; deterministic).
    TestfdChecksWeak,
    /// TEST-FDs invocations under the NFD convention
    /// (`semantics="nfd"`; deterministic).
    TestfdChecksNfd,
}

impl Counter {
    /// Every counter, in stable registry (exposition) order.
    pub const ALL: [Counter; 24] = [
        Counter::CellRounds,
        Counter::CellUnions,
        Counter::TestfdChecks,
        Counter::TestfdFallbackHits,
        Counter::TestfdRowsScanned,
        Counter::OpsApplied,
        Counter::OpsRejected,
        Counter::JournalBatchRecords,
        Counter::JournalOpsCommitted,
        Counter::JournalSyncs,
        Counter::JournalTornTruncations,
        Counter::RecoveryReplayedOps,
        Counter::EpochsPublished,
        Counter::QueryCompiles,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::MemoHits,
        Counter::MemoMisses,
        Counter::ClassicalRows,
        Counter::SnapshotReads,
        Counter::TestfdChecksStrong,
        Counter::TestfdChecksNullMarker,
        Counter::TestfdChecksWeak,
        Counter::TestfdChecksNfd,
    ];

    /// Exposition name (without the `fdi_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::CellRounds => "cell_chase_rounds",
            Counter::CellUnions => "cell_chase_unions",
            Counter::TestfdChecks => "testfd_checks",
            Counter::TestfdFallbackHits => "testfd_fallback_hits",
            Counter::TestfdRowsScanned => "testfd_rows_scanned",
            Counter::OpsApplied => "ops_applied",
            Counter::OpsRejected => "ops_rejected",
            Counter::JournalBatchRecords => "journal_batch_records",
            Counter::JournalOpsCommitted => "journal_ops_committed",
            Counter::JournalSyncs => "journal_syncs",
            Counter::JournalTornTruncations => "journal_torn_truncations",
            Counter::RecoveryReplayedOps => "recovery_replayed_ops",
            Counter::EpochsPublished => "epochs_published",
            Counter::QueryCompiles => "query_compiles",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::MemoHits => "memo_hits",
            Counter::MemoMisses => "memo_misses",
            Counter::ClassicalRows => "classical_rows",
            Counter::SnapshotReads => "snapshot_reads",
            Counter::TestfdChecksStrong => "testfd_checks_strong",
            Counter::TestfdChecksNullMarker => "testfd_checks_null_marker",
            Counter::TestfdChecksWeak => "testfd_checks_weak",
            Counter::TestfdChecksNfd => "testfd_checks_nfd",
        }
    }

    /// For the per-semantics TEST-FDs counters: the `(base, label)`
    /// pair rendered as `fdi_<base>{det="…",semantics="<label>"}` in
    /// the text exposition, so the per-convention tallies share one
    /// metric family with the unlabelled total. `None` for every other
    /// counter. The JSON exposition and [`deterministic_pairs`] keep
    /// the flat [`name`](Self::name) as the key.
    ///
    /// [`deterministic_pairs`]: MetricsSnapshot::deterministic_pairs
    pub fn semantics_label(self) -> Option<(&'static str, &'static str)> {
        match self {
            Counter::TestfdChecksStrong => Some(("testfd_checks", "strong")),
            Counter::TestfdChecksNullMarker => Some(("testfd_checks", "null-marker")),
            Counter::TestfdChecksWeak => Some(("testfd_checks", "weak")),
            Counter::TestfdChecksNfd => Some(("testfd_checks", "nfd")),
            _ => None,
        }
    }

    /// Whether this counter belongs to the deterministic slice: same
    /// op stream ⇒ same value at every reader count. See the crate docs
    /// for the classification rationale.
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            Counter::QueryCompiles
                | Counter::PlanCacheHits
                | Counter::PlanCacheMisses
                | Counter::MemoHits
                | Counter::MemoMisses
                | Counter::ClassicalRows
                | Counter::SnapshotReads
        )
    }
}

/// Last-value gauges. All current gauges are
/// writer-serial and therefore deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Sequence number of the most recently published epoch
    /// (deterministic).
    EpochSeq,
    /// Ops applied as of the most recently published epoch
    /// (deterministic).
    EpochOpsApplied,
    /// Ops staged in the group-commit pending buffer, as of the last
    /// journal interaction (deterministic: writer-serial).
    JournalPendingOps,
}

impl Gauge {
    /// Every gauge, in stable registry (exposition) order.
    pub const ALL: [Gauge; 3] = [
        Gauge::EpochSeq,
        Gauge::EpochOpsApplied,
        Gauge::JournalPendingOps,
    ];

    /// Exposition name (without the `fdi_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::EpochSeq => "epoch_seq",
            Gauge::EpochOpsApplied => "epoch_ops_applied",
            Gauge::JournalPendingOps => "journal_pending_ops",
        }
    }

    /// Whether this gauge belongs to the deterministic slice.
    pub fn deterministic(self) -> bool {
        true
    }
}

/// Log₂-bucket histograms. Histograms are **always** nondeterministic:
/// they either measure wall-clock time or sample batch shapes at
/// timing-dependent moments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Hist {
    /// Journal `sync` barrier latency, nanoseconds.
    JournalSyncNanos,
    /// Ops per group-commit batch record.
    JournalBatchOps,
    /// Epoch publish latency up to the epoch build (the group commit
    /// and its sync), nanoseconds.
    PublishNanos,
    /// Ops newly published per epoch (staged-batch size).
    PublishBatchOps,
    /// Reader snapshot-acquisition latency, nanoseconds.
    SnapshotAcquireNanos,
}

impl Hist {
    /// Every histogram, in stable registry (exposition) order.
    pub const ALL: [Hist; 5] = [
        Hist::JournalSyncNanos,
        Hist::JournalBatchOps,
        Hist::PublishNanos,
        Hist::PublishBatchOps,
        Hist::SnapshotAcquireNanos,
    ];

    /// Exposition name (without the `fdi_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Hist::JournalSyncNanos => "journal_sync_nanos",
            Hist::JournalBatchOps => "journal_batch_ops",
            Hist::PublishNanos => "publish_nanos",
            Hist::PublishBatchOps => "publish_batch_ops",
            Hist::SnapshotAcquireNanos => "snapshot_acquire_nanos",
        }
    }
}

/// Number of log₂ histogram buckets: bucket 0 holds exactly the value
/// 0; bucket `b ≥ 1` holds values with `b` significant bits, i.e. the
/// range `[2^(b-1), 2^b - 1]`.
const HIST_BUCKETS: usize = 65;

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

#[derive(Debug)]
struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct MetricsCore {
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    hists: [HistCore; Hist::ALL.len()],
}

impl MetricsCore {
    fn new() -> Self {
        MetricsCore {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistCore::new()),
        }
    }
}

/// A cheap, cloneable handle to a shared metrics core — or to nothing.
///
/// Clones share the same core, so one recorder can be threaded through
/// the database, journal, writer, and readers and read back from a
/// single place. The disabled flavor records nothing and costs one
/// branch per call (see the crate docs for the full noop contract).
///
/// ```
/// use fdi_obs::{Counter, Recorder};
///
/// let rec = Recorder::enabled();
/// rec.incr(Counter::OpsApplied);
/// rec.add(Counter::OpsApplied, 2);
/// assert_eq!(rec.snapshot().counter(Counter::OpsApplied), 3);
///
/// // The default handle is disabled: nothing is recorded, and the
/// // snapshot is all zeros.
/// let off = Recorder::noop();
/// off.incr(Counter::OpsApplied);
/// assert!(!off.is_enabled());
/// assert_eq!(off.snapshot().counter(Counter::OpsApplied), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    core: Option<Arc<MetricsCore>>,
}

impl Recorder {
    /// A recorder backed by a fresh shared metrics core.
    pub fn enabled() -> Self {
        Recorder {
            core: Some(Arc::new(MetricsCore::new())),
        }
    }

    /// The disabled recorder: records nothing, allocates nothing.
    pub fn noop() -> Self {
        Recorder { core: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(core) = &self.core {
            core.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Set a gauge to `value`.
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if let Some(core) = &self.core {
            core.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(core) = &self.core {
            core.hists[hist as usize].observe(value);
        }
    }

    /// Start a scoped timer that observes its elapsed nanoseconds into
    /// `hist` when dropped. On a disabled recorder the clock is never
    /// read.
    ///
    /// ```
    /// use fdi_obs::{Hist, Recorder};
    /// let rec = Recorder::enabled();
    /// {
    ///     let _span = rec.span(Hist::JournalSyncNanos);
    ///     // … timed work …
    /// }
    /// assert_eq!(rec.snapshot().hist(Hist::JournalSyncNanos).count, 1);
    /// ```
    #[inline]
    pub fn span(&self, hist: Hist) -> Span<'_> {
        Span {
            rec: self,
            hist,
            start: self.core.is_some().then(Instant::now),
        }
    }

    /// A point-in-time copy of every metric. Disabled recorders return
    /// [`MetricsSnapshot::default`] (all zeros).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(core) = &self.core else {
            return MetricsSnapshot::default();
        };
        MetricsSnapshot {
            counters: core
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            gauges: core
                .gauges
                .iter()
                .map(|g| g.load(Ordering::Relaxed))
                .collect(),
            hists: core
                .hists
                .iter()
                .map(|h| HistSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Scoped timer returned by [`Recorder::span`]; observes elapsed
/// nanoseconds on drop.
#[derive(Debug)]
pub struct Span<'a> {
    rec: &'a Recorder,
    hist: Hist,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.rec.observe(self.hist, nanos);
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    buckets: Vec<u64>,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// The upper bound of the log₂ bucket containing the `p`-th
    /// percentile observation (`p` in `1..=100`); 0 when empty. Exact
    /// per-value quantiles are not kept — the readout is the bucket
    /// ceiling, i.e. within 2× of the true value.
    pub fn quantile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (u128::from(self.count) * u128::from(p)).div_ceil(100);
        let mut seen: u128 = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += u128::from(n);
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HIST_BUCKETS - 1)
    }
}

/// An immutable point-in-time copy of every metric a [`Recorder`]
/// holds, produced by [`Recorder::snapshot`].
/// [`MetricsSnapshot::default`] is the all-zero snapshot (what a
/// disabled recorder reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<HistSnapshot>,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        MetricsSnapshot {
            counters: vec![0; Counter::ALL.len()],
            gauges: vec![0; Gauge::ALL.len()],
            hists: vec![HistSnapshot::default(); Hist::ALL.len()],
        }
    }
}

impl MetricsSnapshot {
    /// The value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize]
    }

    /// One histogram's snapshot.
    pub fn hist(&self, hist: Hist) -> &HistSnapshot {
        &self.hists[hist as usize]
    }

    /// Every deterministic-registered metric as `(name, value)` pairs
    /// in stable registry order — the exact slice the determinism
    /// proptests assert bit-identical across runs and reader counts.
    pub fn deterministic_pairs(&self) -> Vec<(&'static str, u64)> {
        let counters = Counter::ALL
            .iter()
            .filter(|c| c.deterministic())
            .map(|&c| (c.name(), self.counter(c)));
        let gauges = Gauge::ALL
            .iter()
            .filter(|g| g.deterministic())
            .map(|&g| (g.name(), self.gauge(g)));
        counters.chain(gauges).collect()
    }

    /// Stable Prometheus-style text exposition: one
    /// `fdi_<name>{det="true|false"} <value>` line per counter and
    /// gauge, then `_count`/`_sum`/quantile lines per histogram, all
    /// in fixed registry order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for &c in &Counter::ALL {
            let _ = match c.semantics_label() {
                Some((base, sem)) => writeln!(
                    out,
                    "fdi_{}{{det=\"{}\",semantics=\"{}\"}} {}",
                    base,
                    c.deterministic(),
                    sem,
                    self.counter(c)
                ),
                None => writeln!(
                    out,
                    "fdi_{}{{det=\"{}\"}} {}",
                    c.name(),
                    c.deterministic(),
                    self.counter(c)
                ),
            };
        }
        for &g in &Gauge::ALL {
            let _ = writeln!(
                out,
                "fdi_{}{{det=\"{}\"}} {}",
                g.name(),
                g.deterministic(),
                self.gauge(g)
            );
        }
        for &h in &Hist::ALL {
            let snap = self.hist(h);
            let _ = writeln!(
                out,
                "fdi_{}_count{{det=\"false\"}} {}",
                h.name(),
                snap.count
            );
            let _ = writeln!(out, "fdi_{}_sum{{det=\"false\"}} {}", h.name(), snap.sum);
            for p in [50u8, 90, 99] {
                let _ = writeln!(
                    out,
                    "fdi_{}{{det=\"false\",q=\"p{}\"}} {}",
                    h.name(),
                    p,
                    snap.quantile(p)
                );
            }
        }
        out
    }

    /// The same data as [`render_text`](Self::render_text), as one
    /// stable-key-order JSON object:
    /// `{"counters":{…},"gauges":{…},"hists":{…}}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, &c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), self.counter(c));
        }
        out.push_str("},\"gauges\":{");
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", g.name(), self.gauge(g));
        }
        out.push_str("},\"hists\":{");
        for (i, &h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let snap = self.hist(h);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.name(),
                snap.count,
                snap.sum,
                snap.quantile(50),
                snap.quantile(90),
                snap.quantile(99)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_clones_share_the_core() {
        let rec = Recorder::enabled();
        let twin = rec.clone();
        rec.incr(Counter::CellRounds);
        twin.add(Counter::CellRounds, 4);
        assert_eq!(rec.snapshot().counter(Counter::CellRounds), 5);
        assert_eq!(twin.snapshot().counter(Counter::CellRounds), 5);
    }

    #[test]
    fn gauges_keep_the_last_value() {
        let rec = Recorder::enabled();
        rec.gauge_set(Gauge::EpochSeq, 7);
        rec.gauge_set(Gauge::EpochSeq, 3);
        assert_eq!(rec.snapshot().gauge(Gauge::EpochSeq), 3);
    }

    #[test]
    fn noop_snapshot_is_the_default_all_zero_snapshot() {
        let off = Recorder::noop();
        off.incr(Counter::OpsApplied);
        off.gauge_set(Gauge::EpochSeq, 9);
        off.observe(Hist::PublishNanos, 123);
        drop(off.span(Hist::PublishNanos));
        assert_eq!(off.snapshot(), MetricsSnapshot::default());
        assert!(!off.is_enabled());
        assert!(Recorder::default().snapshot() == MetricsSnapshot::default());
    }

    #[test]
    fn histogram_buckets_are_log2_with_exact_zero_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_report_bucket_ceilings() {
        let rec = Recorder::enabled();
        // 98 fast observations in [2,3], two slow ones in [64,127]
        for _ in 0..98 {
            rec.observe(Hist::JournalSyncNanos, 2);
        }
        rec.observe(Hist::JournalSyncNanos, 100);
        rec.observe(Hist::JournalSyncNanos, 101);
        let snap = rec.snapshot();
        let h = snap.hist(Hist::JournalSyncNanos);
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 98 * 2 + 201);
        assert_eq!(h.quantile(50), 3);
        assert_eq!(h.quantile(90), 3);
        assert_eq!(h.quantile(99), 127);
        assert_eq!(h.quantile(100), 127);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let snap = Recorder::enabled().snapshot();
        assert_eq!(snap.hist(Hist::PublishNanos).quantile(99), 0);
    }

    #[test]
    fn span_observes_elapsed_nanos_once() {
        let rec = Recorder::enabled();
        {
            let _span = rec.span(Hist::SnapshotAcquireNanos);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.hist(Hist::SnapshotAcquireNanos).count, 1);
    }

    #[test]
    fn deterministic_pairs_exclude_every_nondeterministic_metric() {
        let rec = Recorder::enabled();
        rec.incr(Counter::CellRounds);
        rec.incr(Counter::MemoHits);
        let pairs = rec.snapshot().deterministic_pairs();
        assert!(pairs
            .iter()
            .any(|&(n, v)| n == "cell_chase_rounds" && v == 1));
        assert!(pairs.iter().all(|&(n, _)| n != "memo_hits"));
        assert!(pairs.iter().any(|&(n, _)| n == "epoch_seq"));
        let det_count = Counter::ALL.iter().filter(|c| c.deterministic()).count()
            + Gauge::ALL.iter().filter(|g| g.deterministic()).count();
        assert_eq!(pairs.len(), det_count);
    }

    #[test]
    fn text_exposition_is_stable_and_complete() {
        let rec = Recorder::enabled();
        rec.add(Counter::MemoHits, 17);
        rec.gauge_set(Gauge::EpochSeq, 4);
        rec.observe(Hist::PublishNanos, 1000);
        let text = rec.snapshot().render_text();
        assert!(text.contains("fdi_memo_hits{det=\"false\"} 17\n"));
        assert!(text.contains("fdi_epoch_seq{det=\"true\"} 4\n"));
        assert!(text.contains("fdi_publish_nanos_count{det=\"false\"} 1\n"));
        assert!(text.contains("fdi_publish_nanos_sum{det=\"false\"} 1000\n"));
        assert!(text.contains("fdi_publish_nanos{det=\"false\",q=\"p50\"} 1023\n"));
        // every registered metric appears; per-semantics counters render
        // under the shared family name with a `semantics` label
        for c in Counter::ALL {
            let prefix = match c.semantics_label() {
                Some((base, sem)) => format!("fdi_{base}{{det=\"true\",semantics=\"{sem}\"}}"),
                None => format!("fdi_{}{{", c.name()),
            };
            assert!(text.contains(&prefix), "{}", c.name());
        }
        for h in Hist::ALL {
            assert!(text.contains(&format!("fdi_{}_count{{", h.name())));
        }
        // rendering twice is byte-identical (stable order)
        assert_eq!(text, rec.snapshot().render_text());
    }

    #[test]
    fn json_exposition_has_stable_keys() {
        let rec = Recorder::enabled();
        rec.incr(Counter::EpochsPublished);
        let json = rec.snapshot().render_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"epochs_published\":1"));
        assert!(json.contains("\"hists\":{"));
        assert!(json.contains("\"journal_sync_nanos\":{\"count\":0"));
        assert!(json.ends_with("}}}"));
    }

    #[test]
    fn registry_indices_match_enum_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{}", c.name());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{}", g.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{}", h.name());
        }
    }
}
