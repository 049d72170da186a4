//! Extends the PR 2 counting-allocator regression harness to a warmed
//! server worker: once an engine's pooled state is warm (run slots +
//! execution contexts sized by the first few requests), the
//! steady-state **execution path** of a `run` request —
//! [`systec_serve::Engine::execute`]: kernel lookup, slot + context
//! checkout, `run_timed_into`, latency recording, lease return —
//! performs **zero** heap allocations. Response serialization is
//! deliberately outside the measured region (it builds a fresh line per
//! request by design).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use systec_serve::protocol::{Placement, Request, Response, StorageFormat, TensorPayload, Variant};
use systec_serve::Engine;

/// Counts allocations per thread: the test harness allocates on its
/// own threads (spawning the next test, collecting results) at any
/// moment, and the measured runs are serial (`threads: 1`), so every
/// allocation on their execution path happens on the test's thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and free of destructors, so touching it from
    // inside the allocator never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown; nothing is being
    // measured then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The tests below switch the process-global telemetry mode; serialize
/// them so one test never runs under another's mode.
fn measurement_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Registers a small symmetric SSYMV workload and returns its handle.
fn warmed_engine() -> (Engine, u64) {
    let engine = Engine::new();
    let n = 12;
    // Tridiagonal-ish symmetric matrix, deterministic without an RNG.
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((vec![i, i], 1.0 + i as f64));
        if i + 1 < n {
            entries.push((vec![i, i + 1], 0.5 + i as f64 / 10.0));
            entries.push((vec![i + 1, i], 0.5 + i as f64 / 10.0));
        }
    }
    let resp = engine.handle(&Request::RegisterTensor {
        name: "A".into(),
        dims: vec![n, n],
        payload: TensorPayload::Coo(entries),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let resp = engine.handle(&Request::RegisterTensor {
        name: "x".into(),
        dims: vec![n],
        payload: TensorPayload::Dense((0..n).map(|k| 1.0 + k as f64 / 7.0).collect()),
        format: StorageFormat::Auto,
        placement: Placement::Hash,
    });
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    let resp = engine.handle(&Request::Prepare {
        einsum: "for i, j: y[i] += A[i, j] * x[j]".into(),
        sym: vec!["A".into()],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(1),
        sharded: false,
    });
    let Response::Prepared { kernel, .. } = resp else { panic!("prepare failed: {resp:?}") };
    (engine, kernel)
}

#[test]
fn warmed_server_worker_executes_allocation_free() {
    let _serialized = measurement_lock();
    // Telemetry explicitly ON: latency-histogram recording (atomic
    // bucket increments) and the slow-threshold check live inside the
    // measured region and must not cost an allocation.
    systec_telemetry::set_mode(systec_telemetry::TelemetryMode::On);
    let (engine, kernel) = warmed_engine();
    // Warm the pooled state: the first runs size the run slot, the
    // execution context, and the counters map.
    for _ in 0..3 {
        let lease = engine.execute(kernel).expect("run succeeds");
        assert!(!lease.outputs().is_empty());
    }
    assert_eq!(engine.context_pool().created(), 1, "one serial worker, one context");

    let before = allocations();
    for _ in 0..10 {
        let lease = engine.execute(kernel).expect("run succeeds");
        // Touch the results the way serialization would read them.
        std::hint::black_box(lease.outputs().len());
        std::hint::black_box(lease.counters().flops);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state serving must not allocate on the execution path \
         (saw {} allocations over 10 runs)",
        after - before
    );
    // Still the same single pooled context — the leases recycled it.
    assert_eq!(engine.context_pool().created(), 1);
}

#[test]
fn interleaving_kernels_stays_allocation_free_once_both_are_warm() {
    let _serialized = measurement_lock();
    let (engine, ssymv) = warmed_engine();
    let resp = engine.handle(&Request::Prepare {
        einsum: "for i, j: y[] += x[i] * A[i, j] * x[j]".into(),
        sym: vec!["A".into()],
        inputs: vec![],
        variant: Variant::Systec,
        threads: Some(1),
        sharded: false,
    });
    let Response::Prepared { kernel: syprd, .. } = resp else { panic!("{resp:?}") };
    for _ in 0..3 {
        drop(engine.execute(ssymv).unwrap());
        drop(engine.execute(syprd).unwrap());
    }
    let before = allocations();
    for _ in 0..10 {
        drop(engine.execute(ssymv).unwrap());
        drop(engine.execute(syprd).unwrap());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "per-kernel slots keep interleaved serving allocation-free (saw {})",
        after - before
    );
}

#[test]
fn telemetry_off_freezes_recording_without_changing_results() {
    use systec_telemetry::{set_mode, TelemetryMode};

    // The global switch must change *observability only* — served bytes
    // stay identical — while histograms and counters freeze. Runs
    // under the measurement lock because the mode is process-global.
    let _serialized = measurement_lock();
    let (engine, kernel) = warmed_engine();

    set_mode(TelemetryMode::On);
    let on_line = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();
    let counted_while_on = {
        // One recorded sample per pooled run while On.
        let Response::Stats { kernels, .. } = engine.handle(&Request::Stats) else {
            panic!("stats failed")
        };
        assert!(kernels[0].median_us.is_some(), "On mode records latencies");
        kernels[0].runs
    };

    set_mode(TelemetryMode::Off);
    let off_line = engine.handle(&Request::Run { kernel, full: false, shard: None }).encode();
    let Response::Stats { kernels, .. } = engine.handle(&Request::Stats) else {
        panic!("stats failed")
    };
    set_mode(TelemetryMode::On);

    assert_eq!(on_line, off_line, "telemetry mode must not change served bytes");
    assert_eq!(kernels[0].runs, counted_while_on + 1, "run accounting is mode-independent");
    // The histogram froze: the Off run left no new sample, so the
    // engine-side latency count (exposed via the Prometheus text)
    // still matches the On-mode run count.
    let Response::Metrics { text } = engine.handle(&Request::Metrics) else {
        panic!("metrics failed")
    };
    assert!(
        text.contains(&format!(
            "systec_kernel_latency_ns_count{{kernel=\"0\"}} {counted_while_on}"
        )),
        "Off-mode runs must not enter the latency histogram:\n{text}"
    );
}
