//! # systec-telemetry
//!
//! A lock-free, preallocated metrics and tracing core for the systec
//! workspace. Every layer of the compiler and server reports into this
//! crate — compile-phase spans, plan-cache events, VM dispatch counts,
//! worker-pool utilization, per-kernel latency histograms — and the
//! serve crate renders the result as an expanded `stats` verb, a
//! Prometheus `metrics` verb, and the `systec top` CLI table.
//!
//! Design constraints, in priority order:
//!
//! 1. **Nothing on a hot path may allocate or lock.** Histograms are
//!    fixed `[AtomicU64; N]` arrays ([`Histogram`]), counters are
//!    single atomics, and both are `const`-constructible so the global
//!    registry is a `static` with no lazy-init branch.
//! 2. **Recording is globally gateable.** [`TelemetryMode::Off`]
//!    reduces every record call to one relaxed load, and is used by the
//!    serve alloc-regression tier to prove on/off output parity.
//! 3. **Exposition is deterministic.** All exported values are
//!    integers (nanoseconds, counts); the [`prom`] writer emits
//!    families in the order the caller composes them, so a scrape of
//!    an idle process is byte-stable.
//!
//! Counters here are process-lifetime monotonic (Prometheus
//! semantics): they are never reset, even when e.g. the plan cache
//! they describe is cleared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod prom;

pub use histogram::{bucket_index, bucket_upper, export_ladder, Histogram, Snapshot, BUCKETS};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global mode
// ---------------------------------------------------------------------------

/// Process-wide recording switch: `Off` turns every record call into a
/// single relaxed load so telemetry can be excluded as a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Record everything (the default).
    On,
    /// Drop every observation; counters and histograms freeze.
    Off,
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Sets the process-wide telemetry mode.
pub fn set_mode(mode: TelemetryMode) {
    ENABLED.store(matches!(mode, TelemetryMode::On), Ordering::Relaxed);
}

/// The current process-wide telemetry mode.
pub fn mode() -> TelemetryMode {
    if enabled() {
        TelemetryMode::On
    } else {
        TelemetryMode::Off
    }
}

/// `true` when recording is enabled. One relaxed load; hot paths may
/// use this to skip `Instant::now()` calls entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonic counter: one atomic, `const`-constructible, gated on
/// the global mode.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one regardless of the global mode. For counters that are
    /// request *accounting* rather than observability — admission
    /// rejections, batch dispatches — where freezing under
    /// [`TelemetryMode::Off`] would break exactness invariants the
    /// serving tests rely on (mirrors [`Gauge`]'s ungated rationale).
    #[inline]
    pub fn inc_always(&self) {
        self.add_always(1);
    }

    /// Adds `n` regardless of the global mode (see
    /// [`Counter::inc_always`]).
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge. Unlike [`Counter`], `set` is not gated on
/// the global mode: gauges describe current state (pool sizes, cache
/// entries), not accumulated events, so freezing them would lie.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Compile-phase spans
// ---------------------------------------------------------------------------

/// The compile pipeline phases instrumented with [`span`] timers, in
/// pipeline order. Every plan-cache `build` decomposes into these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Einsum + symmetry declaration parsing.
    Parse,
    /// Symmetry-aware rewrite (the SySTeC compiler proper).
    Symmetrize,
    /// Hoisting, variant preparation, and lowering to VM programs.
    Lower,
    /// Fused-body selection over lowered vector loops.
    Fuse,
    /// Bytecode assembly of the lowered programs.
    Bytecode,
}

/// All phases, in pipeline order (also the exposition order).
pub const PHASES: [Phase; 5] =
    [Phase::Parse, Phase::Symmetrize, Phase::Lower, Phase::Fuse, Phase::Bytecode];

impl Phase {
    /// Stable lowercase label used in metric label values.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Symmetrize => "symmetrize",
            Phase::Lower => "lower",
            Phase::Fuse => "fuse",
            Phase::Bytecode => "bytecode",
        }
    }

    /// Position in [`PHASES`] (stable; usable as an array index).
    pub fn index(self) -> usize {
        match self {
            Phase::Parse => 0,
            Phase::Symmetrize => 1,
            Phase::Lower => 2,
            Phase::Fuse => 3,
            Phase::Bytecode => 4,
        }
    }
}

/// Accumulated span statistics for one phase: count, total and max
/// duration in nanoseconds.
#[derive(Debug, Default)]
pub struct PhaseStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl PhaseStat {
    const fn new() -> Self {
        Self { count: AtomicU64::new(0), total_ns: AtomicU64::new(0), max_ns: AtomicU64::new(0) }
    }

    /// Records one span of `ns` nanoseconds (gated on the global mode).
    #[inline]
    pub fn record(&self, ns: u64) {
        if !enabled() {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded spans.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total nanoseconds across all recorded spans.
    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    /// Longest recorded span in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }
}

/// A scope timer: records the elapsed wall time into the global
/// [`PhaseStat`] for `phase` when dropped. When telemetry is off the
/// clock is never read.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
}

/// Starts a [`Span`] for `phase`.
pub fn span(phase: Phase) -> Span {
    Span { phase, start: enabled().then(Instant::now) }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            global().phase(self.phase).record(ns);
        }
    }
}

// ---------------------------------------------------------------------------
// VM fused-body dispatch kinds
// ---------------------------------------------------------------------------

/// The monomorphized loop-body kinds the VM dispatches to, plus
/// `Steps` for vector loops that fall back to generic step-list
/// interpretation. Mirrors `systec-codegen`'s `FusedBody`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyKind {
    /// `acc += a[i] * b[i]` reduction.
    Dot,
    /// `y[i] += s * x[i]`.
    Axpy,
    /// `y[i] = s * x[i]`.
    ScaleStore,
    /// Fused dot + axpy over one probed run.
    DotAxpy,
    /// Dot through a gather index.
    GatherDot,
    /// Axpy through a gather index.
    GatherAxpy,
    /// Two-operand jammed update.
    Jam,
    /// Generic step-list interpretation (no fused body applied).
    Steps,
}

/// All body kinds, in exposition order.
pub const BODY_KINDS: [BodyKind; 8] = [
    BodyKind::Dot,
    BodyKind::Axpy,
    BodyKind::ScaleStore,
    BodyKind::DotAxpy,
    BodyKind::GatherDot,
    BodyKind::GatherAxpy,
    BodyKind::Jam,
    BodyKind::Steps,
];

impl BodyKind {
    /// Stable lowercase label used in metric label values.
    pub fn name(self) -> &'static str {
        match self {
            BodyKind::Dot => "dot",
            BodyKind::Axpy => "axpy",
            BodyKind::ScaleStore => "scale_store",
            BodyKind::DotAxpy => "dot_axpy",
            BodyKind::GatherDot => "gather_dot",
            BodyKind::GatherAxpy => "gather_axpy",
            BodyKind::Jam => "jam",
            BodyKind::Steps => "steps",
        }
    }

    /// Position in [`BODY_KINDS`] (stable; usable as an array index).
    pub fn index(self) -> usize {
        match self {
            BodyKind::Dot => 0,
            BodyKind::Axpy => 1,
            BodyKind::ScaleStore => 2,
            BodyKind::DotAxpy => 3,
            BodyKind::GatherDot => 4,
            BodyKind::GatherAxpy => 5,
            BodyKind::Jam => 6,
            BodyKind::Steps => 7,
        }
    }
}

// ---------------------------------------------------------------------------
// Serving metrics
// ---------------------------------------------------------------------------

/// Metrics for one serving engine: request batching, queue depth,
/// admission control, and tensor-registry lifecycle. Owned per-engine
/// (not in the global registry) so engines in the same process — e.g.
/// parallel tests — never bleed into each other's scrapes.
///
/// The counters here are **accounting**, not sampling: admission
/// rejections and batch dispatches must stay exact even under
/// [`TelemetryMode::Off`] (the serving tests assert arithmetic
/// identities over them), so recording uses the ungated
/// [`Counter::add_always`] paths. The one exception is
/// [`ServeMetrics::batch_size`]: a latency-class histogram, gated like
/// every other histogram.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Worker-pool dispatches issued by the run scheduler (each may
    /// carry several coalesced run requests).
    pub batch_dispatches: Counter,
    /// Run requests served through batched dispatches.
    pub batched_runs: Counter,
    /// Distribution of runs per dispatch (gated on the global mode).
    pub batch_size: Histogram,
    /// Requests currently queued in the scheduler.
    pub queue_depth: Gauge,
    /// Connections refused because `--max-conns` was reached.
    pub admission_rejected_conns: Counter,
    /// Registrations refused because `--max-bytes` was reached.
    pub admission_rejected_bytes: Counter,
    /// Requests answered with `deadline_exceeded` before dispatch.
    pub deadline_exceeded: Counter,
    /// Batch responses large enough to be encoded and fanned out on
    /// the dedicated replicator thread instead of the executor.
    pub offloaded_replications: Counter,
    /// Runs refused because a pinned tensor was re-registered since
    /// the kernel was prepared (`stale_tensor` errors).
    pub stale_runs: Counter,
    /// Unpinned tensors evicted from the registry by the LRU policy.
    pub registry_evictions: Counter,
    /// Estimated bytes currently held by the tensor registry.
    pub registry_bytes: Gauge,
    /// Tensors currently registered.
    pub registry_tensors: Gauge,
    /// Executor panics caught and converted into structured
    /// `internal_error` replies. Accounting — counted unconditionally,
    /// like the admission counters, because a caught panic must never
    /// disappear from view when recording is off.
    pub panics_caught: Counter,
    /// Kernel handles currently quarantined after a caught panic.
    pub quarantined_kernels: Gauge,
    /// Records appended to the durability write-ahead journal.
    pub journal_records: Counter,
    /// Bytes appended to the durability write-ahead journal.
    pub journal_bytes: Counter,
    /// fsyncs issued by the journal/snapshot writer.
    pub journal_fsyncs: Counter,
    /// Durable records replayed during startup recovery.
    pub recovery_replayed: Counter,
    /// Torn-tail bytes truncated from the journal during recovery.
    pub recovery_truncated: Counter,
}

impl ServeMetrics {
    /// A zeroed set.
    pub const fn new() -> Self {
        Self {
            batch_dispatches: Counter::new(),
            batched_runs: Counter::new(),
            batch_size: Histogram::new(),
            queue_depth: Gauge::new(),
            admission_rejected_conns: Counter::new(),
            admission_rejected_bytes: Counter::new(),
            deadline_exceeded: Counter::new(),
            offloaded_replications: Counter::new(),
            stale_runs: Counter::new(),
            registry_evictions: Counter::new(),
            registry_bytes: Gauge::new(),
            registry_tensors: Gauge::new(),
            panics_caught: Counter::new(),
            quarantined_kernels: Gauge::new(),
            journal_records: Counter::new(),
            journal_bytes: Counter::new(),
            journal_fsyncs: Counter::new(),
            recovery_replayed: Counter::new(),
            recovery_truncated: Counter::new(),
        }
    }
}

/// Cluster-router metrics, owned by one `systec-router` instance (the
/// same ownership model as [`ServeMetrics`]): the router holds one set
/// and renders it through the `metrics` verb. Traffic counters use the
/// ungated paths so the accounting survives `--telemetry off`; the
/// merge-latency histogram stays gated like every other histogram.
#[derive(Debug)]
pub struct RouterMetrics {
    /// Requests forwarded to a single owning shard.
    pub forwarded: Counter,
    /// Sharded runs fanned out to every shard.
    pub fanouts: Counter,
    /// Requests broadcast to all shards (replicated registers,
    /// sharded prepares, shutdown).
    pub broadcasts: Counter,
    /// Sharded-run merges performed (one per fan-out that came back
    /// healthy on every shard).
    pub merges: Counter,
    /// Merge latency in microseconds (split extraction + reduction
    /// fold + re-encode), gated on the global mode.
    pub merge_us: Histogram,
    /// Transport failures talking to shards (dropped connections,
    /// refused connects).
    pub shard_errors: Counter,
    /// Requests answered `shard_unavailable` because the owning shard
    /// was down.
    pub shard_unavailable: Counter,
    /// Successful shard reconnects (each bumps the shard's handle
    /// epoch, invalidating handles minted before the restart).
    pub reconnects: Counter,
    /// Shards currently connected.
    pub shards_healthy: Gauge,
}

impl RouterMetrics {
    /// A zeroed set.
    pub const fn new() -> Self {
        Self {
            forwarded: Counter::new(),
            fanouts: Counter::new(),
            broadcasts: Counter::new(),
            merges: Counter::new(),
            merge_us: Histogram::new(),
            shard_errors: Counter::new(),
            shard_unavailable: Counter::new(),
            reconnects: Counter::new(),
            shards_healthy: Gauge::new(),
        }
    }
}

impl Default for RouterMetrics {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

/// The process-wide metric registry: a fixed `static` struct of
/// counters and phase stats. Fields are counted at their event sites
/// across the workspace; the serve crate reads them at scrape time.
#[derive(Debug)]
pub struct Metrics {
    /// Plan-cache lookups that found a live entry.
    pub plan_cache_hits: Counter,
    /// Plan-cache lookups that missed.
    pub plan_cache_misses: Counter,
    /// Plans actually built (misses that became the builder).
    pub plan_cache_builds: Counter,
    /// Entries evicted by the LRU policy.
    pub plan_cache_evictions: Counter,
    /// Single-flight lookups that waited on another thread's build.
    pub plan_cache_waits: Counter,
    /// Prepares whose parallelism request silently degraded to serial
    /// because the plan was not splittable.
    pub fallback_serial: Counter,
    /// VM `execute` entries.
    pub vm_runs: Counter,
    /// Total wall nanoseconds spent inside VM `execute`.
    pub vm_run_ns: Counter,
    phases: [PhaseStat; PHASES.len()],
    fused: [Counter; BODY_KINDS.len()],
}

impl Metrics {
    const fn new() -> Self {
        Self {
            plan_cache_hits: Counter::new(),
            plan_cache_misses: Counter::new(),
            plan_cache_builds: Counter::new(),
            plan_cache_evictions: Counter::new(),
            plan_cache_waits: Counter::new(),
            fallback_serial: Counter::new(),
            vm_runs: Counter::new(),
            vm_run_ns: Counter::new(),
            phases: [const { PhaseStat::new() }; PHASES.len()],
            fused: [const { Counter::new() }; BODY_KINDS.len()],
        }
    }

    /// The span statistics for one compile phase.
    pub fn phase(&self, phase: Phase) -> &PhaseStat {
        &self.phases[phase.index()]
    }

    /// The dispatch counter for one fused-body kind.
    pub fn fused(&self, kind: BodyKind) -> &Counter {
        &self.fused[kind.index()]
    }
}

static GLOBAL: Metrics = Metrics::new();

/// The process-wide registry.
pub fn global() -> &'static Metrics {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mode is process-global; tests that flip it (or depend on
    /// it being `On`) serialize here and restore `On` on the way out.
    fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counter_gated_by_mode() {
        let _serialized = mode_lock();
        let c = Counter::new();
        c.inc();
        set_mode(TelemetryMode::Off);
        c.inc();
        set_mode(TelemetryMode::On);
        c.add(2);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn span_records_into_global_phase() {
        let _serialized = mode_lock();
        let before = global().phase(Phase::Parse).count();
        {
            let _s = span(Phase::Parse);
        }
        assert!(global().phase(Phase::Parse).count() > before);
    }

    #[test]
    fn ungated_counter_ops_ignore_mode() {
        let _serialized = mode_lock();
        let serve = ServeMetrics::new();
        set_mode(TelemetryMode::Off);
        serve.admission_rejected_conns.inc_always();
        serve.batched_runs.add_always(4);
        serve.batch_size.record(4); // gated: frozen while Off
        set_mode(TelemetryMode::On);
        assert_eq!(serve.admission_rejected_conns.get(), 1);
        assert_eq!(serve.batched_runs.get(), 4);
        assert_eq!(serve.batch_size.count(), 0, "histograms stay gated");
    }

    #[test]
    fn gauge_ignores_mode() {
        let _serialized = mode_lock();
        let g = Gauge::new();
        set_mode(TelemetryMode::Off);
        g.set(7);
        set_mode(TelemetryMode::On);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn body_kind_names_are_unique() {
        let mut names: Vec<_> = BODY_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BODY_KINDS.len());
    }
}
