//! Regression guard for the ROADMAP "reusable VM execution context"
//! item: once an [`ExecContext`] (and a reused `Counters`) is warm, the
//! serial steady-state execution path performs **zero** heap
//! allocations — register files, scratch, binding tables and counter
//! assembly all reuse caller-owned or stack storage. A counting global
//! allocator makes any regression an immediate test failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

use systec_codegen::{CompiledKernel, ExecContext, Parallelism};
use systec_exec::{alloc_outputs, hoist_conditions, lower, Counters};
use systec_ir::build::*;
use systec_ir::{AssignOp, Einsum, Stmt};
use systec_tensor::{CooTensor, DenseTensor, LevelFormat, SparseTensor, Tensor};

/// Counts every allocation (alloc, alloc_zeroed, realloc) forwarded to
/// the system allocator, per thread: the test harness runs sibling
/// tests concurrently on other threads, and their allocations must not
/// land in a measured window. The measured runs are serial, so every
/// allocation they make happens on the test's own thread.
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

fn compile(
    prog: &Stmt,
    inputs: &HashMap<String, Tensor>,
) -> (CompiledKernel, HashMap<String, DenseTensor>) {
    let hoisted = hoist_conditions(prog.clone());
    let outputs_init = alloc_outputs(&hoisted, inputs).unwrap();
    let lowered = lower(&hoisted, inputs, &outputs_init).unwrap();
    let kernel = CompiledKernel::compile(&lowered, inputs, &outputs_init).unwrap();
    (kernel, outputs_init)
}

fn csr(n: usize, entries: &[(usize, usize, f64)]) -> Tensor {
    let mut coo = CooTensor::new(vec![n, n]);
    for &(i, j, v) in entries {
        coo.set(&[i, j], v);
    }
    Tensor::Sparse(
        SparseTensor::from_coo(&coo, &[LevelFormat::Dense, LevelFormat::Sparse]).unwrap(),
    )
}

/// Warm the context, then assert the steady state allocates nothing.
fn assert_steady_state_alloc_free(
    kernel: &CompiledKernel,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    label: &str,
) {
    let mut ctx = ExecContext::new();
    let mut counters = Counters::new();
    for _ in 0..3 {
        kernel.run_with(inputs, outputs, &mut ctx, Parallelism::Serial, &mut counters).unwrap();
    }
    let before = allocations();
    for _ in 0..10 {
        kernel.run_with(inputs, outputs, &mut ctx, Parallelism::Serial, &mut counters).unwrap();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{label}: steady-state serial execution must not allocate (saw {} allocations over 10 runs)",
        after - before
    );
}

#[test]
fn spmv_steady_state_is_allocation_free() {
    // Sparse driver walk + vectorized innermost loop + dense operand +
    // owned output: the common hot-path shapes.
    let einsum = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(6, &[(0, 1, 2.0), (1, 0, 3.0), (2, 5, 4.0), (4, 4, 1.0)]));
    inputs.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()),
    );
    let (kernel, outputs_init) = compile(&einsum.naive_program(), &inputs);
    let mut outputs = outputs_init;
    assert_steady_state_alloc_free(&kernel, &inputs, &mut outputs, "spmv");
}

#[test]
fn min_plus_with_guards_steady_state_is_allocation_free() {
    // Miss bookkeeping (ClearMiss/JumpIfMiss), residual guards, scalar
    // reduction — the general (non-vectorized) dispatch path.
    let prog = Stmt::loops(
        [idx("i"), idx("j")],
        Stmt::guarded(
            ne("i", "j"),
            assign_op(
                access("y", ["i"]),
                AssignOp::Min,
                add([access("A", ["i", "j"]), access("x", ["j"])]),
            ),
        ),
    );
    let mut inputs = HashMap::new();
    inputs.insert("A".to_string(), csr(5, &[(0, 1, 1.0), (2, 3, 2.0), (4, 0, 3.0)]));
    inputs.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![5], vec![0.5, 1.5, 2.5, 3.5, 4.5]).unwrap()),
    );
    let (kernel, outputs_init) = compile(&prog, &inputs);
    let mut outputs = outputs_init;
    assert_steady_state_alloc_free(&kernel, &inputs, &mut outputs, "min-plus");
}

#[test]
fn context_growth_settles_across_plans() {
    // Interleaving two plans of different sizes through one context
    // still reaches a steady state: buffers grow to the larger plan
    // once, then both plans run allocation-free.
    let spmv = Einsum::new(
        access("y", ["i"]),
        AssignOp::Add,
        mul([access("A", ["i", "j"]), access("x", ["j"])]),
        [idx("i"), idx("j")],
    );
    let mut inputs_small = HashMap::new();
    inputs_small.insert("A".to_string(), csr(4, &[(0, 1, 2.0), (3, 2, 1.0)]));
    inputs_small.insert(
        "x".to_string(),
        Tensor::Dense(DenseTensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap()),
    );
    let mut inputs_big = HashMap::new();
    inputs_big
        .insert("A".to_string(), csr(9, &[(0, 8, 2.0), (5, 2, 1.0), (7, 7, 3.0), (8, 0, 4.0)]));
    inputs_big.insert("x".to_string(), Tensor::Dense(DenseTensor::filled(vec![9], 1.5)));
    let (k_small, out_small) = compile(&spmv.naive_program(), &inputs_small);
    let (k_big, out_big) = compile(&spmv.naive_program(), &inputs_big);

    let mut ctx = ExecContext::new();
    let mut counters = Counters::new();
    let mut outputs_small = out_small;
    let mut outputs_big = out_big;
    for _ in 0..3 {
        k_small
            .run_with(
                &inputs_small,
                &mut outputs_small,
                &mut ctx,
                Parallelism::Serial,
                &mut counters,
            )
            .unwrap();
        k_big
            .run_with(&inputs_big, &mut outputs_big, &mut ctx, Parallelism::Serial, &mut counters)
            .unwrap();
    }
    let before = allocations();
    for _ in 0..6 {
        k_small
            .run_with(
                &inputs_small,
                &mut outputs_small,
                &mut ctx,
                Parallelism::Serial,
                &mut counters,
            )
            .unwrap();
        k_big
            .run_with(&inputs_big, &mut outputs_big, &mut ctx, Parallelism::Serial, &mut counters)
            .unwrap();
    }
    assert_eq!(allocations() - before, 0, "interleaved steady state must not allocate");
}
