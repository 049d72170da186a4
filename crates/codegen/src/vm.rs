//! The bytecode VM: executes a [`BytecodeProgram`] over concrete
//! tensors, producing exactly the same results and
//! [`systec_exec::Counters`] as the tree-walking interpreter in
//! `systec-exec`.
//!
//! ## Execution state
//!
//! All mutable per-run state (register files, vector-loop scratch,
//! counter banks, private reduction buffers) lives in the caller's
//! [`ExecContext`] and is reset — never reallocated — per run. The
//! binding tables that borrow from the operands (dense value slices,
//! sparse level views, per-loop fiber caches) are carried on the stack
//! via [`Scratch`] so the steady-state path performs no allocations at
//! all.
//!
//! ## Row-parallel execution
//!
//! When the compiler proved the program splittable
//! ([`BytecodeProgram::split`]) and the caller asked for
//! [`Parallelism::Threads`], the coordinate domain of each top-level
//! loop is cut into contiguous chunks (over-decomposed ~8× per worker
//! and dealt round-robin, which load-balances triangular kernels without
//! any synchronization). Every worker runs the whole program per chunk
//! over its own register files and [`CounterBank`], with the top-level
//! loop heads clamped to the chunk's coordinate window:
//!
//! * [`ParOut::Owned`] outputs are split at the chunk row boundaries —
//!   workers write disjoint sub-slices of the shared buffer in place;
//! * [`ParOut::Reduced`] outputs reduce into per-worker private buffers
//!   initialized to the reduction identity.
//!
//! Workers join, then counters and private buffers merge **in fixed
//! worker order**: counter totals are integer sums, hence exactly equal
//! to the serial execution's, and outputs are bit-identical from run to
//! run for a fixed thread count.

use std::collections::HashMap;

use systec_exec::lowered::SlotKind;
use systec_exec::{CounterBank, Counters, ExecError};
use systec_ir::AssignOp;
use systec_telemetry as telemetry;
use systec_tensor::{DenseTensor, LevelView, Tensor};

use systec_ir::BinOp;

use crate::bytecode::{
    Bound, BytecodeProgram, FAcc, FFold, FLoad, FOp, Fused, FusedBody, Instr, ParOut, SplitInfo,
    Term, VItem, VStep, MISS,
};
use crate::context::{Bank, ExecContext, GatherBank, LaneMode};
use crate::fuse::{MAX_FUSED_FOLDS, MAX_FUSED_LOADS, MAX_FUSED_SRCS};
use crate::Parallelism;

/// Inline capacity for per-slot binding tables.
const MAX_SLOTS: usize = 24;
/// Inline capacity for the flattened sparse level-view table.
const MAX_LEVELS: usize = 64;
/// Inline capacity for per-loop fiber caches.
const MAX_CACHES: usize = 16;
/// Inline capacity for the output binding table.
const MAX_OUTS: usize = 8;
/// Coordinate chunks dealt per worker (over-decomposition for static
/// load balance; round-robin assignment keeps the merge deterministic).
const CHUNKS_PER_WORKER: usize = 8;
/// The virtual lane count of the fused runners under
/// [`LaneMode::Lanes`]: register-held reductions accumulate into a
/// fixed-size `[f64; LANES]` array (element `k` of the drive window
/// lands in lane `k % LANES`), merged in fixed lane order at loop exit.
/// The width is a *virtual* constant — independent of the machine's
/// vector registers — so results are bit-deterministic across machines,
/// thread counts, and repeated runs; the autovectorizer maps the
/// straight-line lane bodies onto whatever ymm/zmm width exists.
pub(crate) const LANES: usize = 8;
/// Largest drive window the lane kernels still decline under
/// [`LaneMode::Lanes`]: at two full chunks or fewer the lane-merge /
/// restructure tax outweighs any ILP win (measured: 16-wide dense
/// factor loops lose ~10% laned), so those windows fold serially
/// (identical to [`LaneMode::Scalar`]) and the kernels engage only
/// strictly above it. The cutover is a pure function of the
/// clamped window — not of thread count or timing — so determinism is
/// unaffected: owned rows never split across chunks and always see the
/// same window length, and reduced accumulators were already
/// deterministic only per fixed thread count.
pub(crate) const LANE_MIN: usize = 2 * LANES;

/// A scratch table backed by inline storage for typical plan sizes,
/// falling back to the heap for outsized plans (correct either way; the
/// fallback merely allocates).
enum Scratch<T, const N: usize> {
    Inline { buf: [T; N], len: usize },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Scratch<T, N> {
    fn new(len: usize) -> Self {
        if len <= N {
            Scratch::Inline { buf: [T::default(); N], len }
        } else {
            Scratch::Heap(vec![T::default(); len])
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Scratch::Inline { buf, len } => &mut buf[..*len],
            Scratch::Heap(v) => v,
        }
    }
}

/// One bound output: a mutable value slice plus the element offset of
/// its first cell within the full tensor (nonzero only for owned
/// row-splits under parallel execution).
struct OutBind<'a> {
    data: &'a mut [f64],
    base: usize,
}

/// Inline-or-heap table of output bindings (`OutBind` is not `Copy`, so
/// [`Scratch`] does not apply).
enum OutTable<'a, const N: usize> {
    Inline([Option<OutBind<'a>>; N], usize),
    Heap(Vec<Option<OutBind<'a>>>),
}

impl<'a, const N: usize> OutTable<'a, N> {
    fn new(len: usize) -> Self {
        if len <= N {
            OutTable::Inline(std::array::from_fn(|_| None), len)
        } else {
            OutTable::Heap((0..len).map(|_| None).collect())
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Option<OutBind<'a>>] {
        match self {
            OutTable::Inline(buf, len) => &mut buf[..*len],
            OutTable::Heap(v) => v,
        }
    }
}

/// One worker's coordinate chunk: top-level head `pc`s with their index
/// extents, plus this chunk's ordinal out of the total chunk count.
#[derive(Clone, Copy)]
struct Chunk<'a> {
    heads: &'a [(usize, usize)],
    k: usize,
    n: usize,
}

impl Chunk<'_> {
    /// The inclusive coordinate window this chunk clamps head `pc` to,
    /// or `None` when `pc` is not a split head (inner loops).
    #[inline]
    fn window(&self, pc: usize) -> Option<(i64, i64)> {
        for &(head_pc, extent) in self.heads {
            if head_pc == pc {
                let lo = (self.k * extent / self.n) as i64;
                let hi = ((self.k + 1) * extent / self.n) as i64 - 1;
                return Some((lo, hi));
            }
        }
        None
    }
}

/// Intersects a loop head's clamped bounds with the chunk's coordinate
/// window when `pc` is a split head — the one place chunking touches
/// loop iteration, shared by every head kind.
#[inline]
fn clamp_to_chunk(chunk: Option<Chunk<'_>>, pc: usize, lo_v: &mut i64, hi_v: &mut i64) {
    if let Some(c) = chunk {
        if let Some((clo, chi)) = c.window(pc) {
            *lo_v = (*lo_v).max(clo);
            *hi_v = (*hi_v).min(chi);
        }
    }
}

/// A sparse input resolved to raw views: per-level views live in one
/// flattened table indexed through `BytecodeProgram::level_base`.
#[inline]
fn level<'a>(
    levels: &[Option<LevelView<'a>>],
    base: &[usize],
    tensor: usize,
    k: usize,
) -> LevelView<'a> {
    levels[base[tensor] + k].expect("sparse level bound")
}

#[inline]
fn offset(u: &[usize], terms: &[Term]) -> usize {
    // Nearly every access is rank 1 or 2; keep those branch-free.
    match terms {
        [t] => u[t.reg] * t.stride,
        [s, t] => u[s.reg] * s.stride + u[t.reg] * t.stride,
        _ => terms.iter().map(|t| u[t.reg] * t.stride).sum(),
    }
}

/// Evaluates vector-loop guards into the `pass` scratch, returning the
/// number of passing items — the selector between the fused runners
/// (exactly one passing item with a fused body) and the general
/// per-coordinate step path.
#[inline]
fn eval_guards(items: &[VItem], u: &[usize], pass: &mut [bool]) -> usize {
    let mut n = 0usize;
    for item in items {
        let ok = item.guard.iter().all(|(op, a, b)| op.eval(u[*a], u[*b]));
        pass[item.id] = ok;
        n += usize::from(ok);
    }
    n
}

/// Telemetry label for a fused-body kind (`Steps` is counted at the
/// general-path sites instead).
fn body_kind(kind: FusedBody) -> telemetry::BodyKind {
    match kind {
        FusedBody::Dot => telemetry::BodyKind::Dot,
        FusedBody::Axpy => telemetry::BodyKind::Axpy,
        FusedBody::ScaleStore => telemetry::BodyKind::ScaleStore,
        FusedBody::DotAxpy => telemetry::BodyKind::DotAxpy,
        FusedBody::GatherDot => telemetry::BodyKind::GatherDot,
        FusedBody::GatherAxpy => telemetry::BodyKind::GatherAxpy,
        FusedBody::Jam => telemetry::BodyKind::Jam,
    }
}

/// The single passing item's fused body, if the loop can take the fused
/// path this entry: with more than one item passing, coordinate-major
/// step execution is the only order-preserving strategy.
#[inline]
fn fused_single<'p>(items: &'p [VItem], pass: &[bool], n_pass: usize) -> Option<&'p Fused> {
    if n_pass != 1 {
        return None;
    }
    items.iter().find(|item| pass[item.id]).and_then(|item| item.fused.as_ref())
}

/// Caches the loop-invariant base offsets of passing items and accounts
/// the loop's *invariant* counters in bulk: every step of a passing
/// item executes exactly once per coordinate, so its invariant counter
/// contribution is a per-iteration constant times the iteration count —
/// identical totals to bumping inside the loop, with no hot-loop
/// counter traffic. Hit-dependent contributions (probe and gather
/// reads, the store side of miss-checked folds) are counted by
/// [`VecRun::exec_coord`] instead. Guards must already be evaluated
/// ([`eval_guards`]).
#[allow(clippy::too_many_arguments)]
fn vec_prepare(
    items: &[VItem],
    u: &[usize],
    iters: u64,
    pass: &[bool],
    bases: &mut [usize],
    reads: &mut [u64],
    flops: &mut u64,
    writes: &mut u64,
) {
    for item in items {
        if !pass[item.id] {
            continue;
        }
        for step in item.steps.iter() {
            match step {
                VStep::Load { tensor, id, base, .. } => {
                    bases[*id] = offset(u, base);
                    reads[*tensor] += iters;
                }
                VStep::LoadVal { tensor, .. } => {
                    reads[*tensor] += iters;
                }
                // Probe / gather reads count only on a hit.
                VStep::LoadProbe { .. } | VStep::LoadGather { .. } => {}
                VStep::FoldOut { tensor: _, id, base, op, srcs, check_miss, .. } => {
                    bases[*id] = offset(u, base);
                    // The fold always evaluates; with check_miss the
                    // store (write + reduce flop) is hit-dependent.
                    let mut per_iter = srcs.len() as u64 - 1;
                    if !*check_miss {
                        per_iter += u64::from(*op != AssignOp::Overwrite);
                        *writes += iters;
                    }
                    *flops += per_iter * iters;
                }
                VStep::FoldScalar { op, srcs, check_miss, .. } => {
                    let mut per_iter = srcs.len() as u64 - 1;
                    if !*check_miss {
                        per_iter += u64::from(*op != AssignOp::Overwrite);
                    }
                    *flops += per_iter * iters;
                }
            }
        }
    }
}

/// Folds registers through `bin`; the dominant binary shape is
/// branch-free. Flops are accounted in bulk by [`vec_prepare`].
#[inline]
fn fold(bin: &systec_ir::BinOp, srcs: &[usize], f: &[f64]) -> f64 {
    match srcs {
        [a, b] => bin.apply(f[*a], f[*b]),
        _ => {
            let (first, rest) = srcs.split_first().expect("folds have operands");
            let mut v = f[*first];
            for s in rest {
                v = bin.apply(v, f[*s]);
            }
            v
        }
    }
}

/// Per-vector-loop execution state: the body items with their
/// precomputed guard outcomes and bases, every binding table the steps
/// touch, and the hit-dependent counter accumulators ([`vec_prepare`]
/// bulk-counts only the invariant contributions).
struct VecRun<'r, 'a, 'o> {
    items: &'r [VItem],
    idx: usize,
    pass: &'r [bool],
    bases: &'r [usize],
    gathers: &'r mut GatherBank,
    u: &'r mut [usize],
    f: &'r mut [f64],
    dense: &'r [&'a [f64]],
    vals: &'r [&'a [f64]],
    levels: &'r [Option<LevelView<'a>>],
    lvl_base: &'r [usize],
    outs: &'r mut [Option<OutBind<'o>>],
    oo: &'r [usize],
    reads: &'r mut [u64],
    /// Hit-dependent flop / write counts, folded into the program
    /// totals when the loop instruction finishes.
    flops: u64,
    writes: u64,
    /// The per-coordinate miss flag (see [`VStep`]).
    miss: bool,
}

/// Resolves the invariant prefix position (and forward cursor at the
/// varying mode) of one single-varying-mode gather at loop entry.
#[allow(clippy::too_many_arguments)]
fn init_gather_cursor(
    levels: &[Option<LevelView<'_>>],
    lvl_base: &[usize],
    u: &[usize],
    gathers: &mut GatherBank,
    tensor: usize,
    id: usize,
    modes: &[usize],
    var_mode: usize,
) {
    let mut p = 0usize;
    for (lv, &m) in modes.iter().enumerate().take(var_mode) {
        match level(levels, lvl_base, tensor, lv).find(p, u[m]) {
            Some(next) => p = next,
            None => {
                p = MISS;
                break;
            }
        }
    }
    let cursor = if p == MISS {
        0
    } else {
        match level(levels, lvl_base, tensor, var_mode) {
            LevelView::Sparse { pos, .. } | LevelView::RunLength { pos, .. } => pos[p],
            LevelView::Dense { .. } => 0,
        }
    };
    gathers.prefix[id] = p;
    gathers.cursor[id] = cursor;
}

/// Resolves a gather at `coord`. With `var_mode: Some(k)` the loop
/// index appears at exactly one subscript position `k`: the invariant
/// prefix position is cached ([`init_gather_cursor`]), position `k`
/// advances a forward-only cursor (sparse gallop / run-length run
/// cursor / dense direct index), and the invariant suffix descends per
/// hit. With `None` the index appears at several positions, so no
/// single monotone cursor exists and the full path is searched.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gather_find(
    levels: &[Option<LevelView<'_>>],
    lvl_base: &[usize],
    u: &[usize],
    gathers: &mut GatherBank,
    tensor: usize,
    id: usize,
    modes: &[usize],
    var_mode: Option<usize>,
    coord: usize,
) -> Option<usize> {
    let Some(vm) = var_mode else {
        let mut p = 0usize;
        for (lv, &m) in modes.iter().enumerate() {
            p = level(levels, lvl_base, tensor, lv).find(p, u[m])?;
        }
        return Some(p);
    };
    let prefix = gathers.prefix[id];
    if prefix == MISS {
        return None;
    }
    let mut p = match level(levels, lvl_base, tensor, vm) {
        LevelView::Sparse { pos, crd, .. } => {
            // Coordinates are monotone within the loop, so the cursor
            // only moves forward; the remainder search gallops past
            // gaps in one partition_point.
            let cur = &mut gathers.cursor[id];
            let end = pos[prefix + 1];
            if *cur < end && crd[*cur] < coord {
                *cur += crd[*cur..end].partition_point(|&c| c < coord);
            }
            if *cur < end && crd[*cur] == coord {
                *cur
            } else {
                return None;
            }
        }
        LevelView::RunLength { pos, run_start, run_end, .. } => {
            // Runs are sorted and disjoint: walk forward one run at a
            // time (runs passed once are never revisited).
            let cur = &mut gathers.cursor[id];
            let end = pos[prefix + 1];
            while *cur < end && run_end[*cur] < coord {
                *cur += 1;
            }
            if *cur < end && run_start[*cur] <= coord {
                *cur
            } else {
                return None;
            }
        }
        view => view.find(prefix, coord)?,
    };
    // Middle-mode-varying gathers descend the invariant suffix per hit
    // (leaf-varying gathers have an empty suffix, so this is free).
    for (lv, &m) in modes.iter().enumerate().skip(vm + 1) {
        p = level(levels, lvl_base, tensor, lv).find(p, u[m])?;
    }
    Some(p)
}

impl<'a> VecRun<'_, 'a, '_> {
    /// Resolves the invariant prefix position (and varying-mode cursor)
    /// of every single-varying-mode gather once per loop entry.
    fn init_gathers(&mut self) {
        if self.gathers.len() == 0 {
            // No gathers anywhere in the plan (all eight paper
            // kernels): skip the step scan on every loop entry.
            return;
        }
        let items = self.items;
        for item in items {
            if !self.pass[item.id] {
                continue;
            }
            for step in item.steps.iter() {
                let VStep::LoadGather { tensor, id, modes, var_mode: Some(vm), .. } = step else {
                    continue;
                };
                init_gather_cursor(
                    self.levels,
                    self.lvl_base,
                    self.u,
                    self.gathers,
                    *tensor,
                    *id,
                    modes,
                    *vm,
                );
            }
        }
    }

    /// Executes the passing items for one coordinate. `leaf` carries the
    /// driver's value position, `probe` the probed fiber's match (if the
    /// loop intersects two fibers).
    #[inline]
    fn exec_coord(
        &mut self,
        coord: usize,
        leaf: Option<(&'a [f64], usize)>,
        probe: Option<(&'a [f64], Option<usize>)>,
    ) {
        self.u[self.idx] = coord;
        self.miss = false;
        let items = self.items;
        for item in items {
            if !self.pass[item.id] {
                continue;
            }
            for step in item.steps.iter() {
                match step {
                    VStep::Load { dst, tensor, id, stride, .. } => {
                        self.f[*dst] = self.dense[*tensor][self.bases[*id] + coord * stride];
                    }
                    VStep::LoadVal { dst, .. } => {
                        let (vals, pos) = leaf.expect("driver value in a driven vector loop");
                        self.f[*dst] = vals[pos];
                    }
                    VStep::LoadProbe { dst, tensor, set_miss } => {
                        let (pvals, pmatch) = probe.expect("probe value in an intersection loop");
                        match pmatch {
                            Some(pos) => {
                                self.f[*dst] = pvals[pos];
                                self.reads[*tensor] += 1;
                            }
                            None => {
                                self.f[*dst] = 0.0;
                                self.miss |= *set_miss;
                            }
                        }
                    }
                    VStep::LoadGather { dst, tensor, id, modes, var_mode, set_miss } => {
                        match self.gather(*tensor, *id, modes, *var_mode, coord) {
                            Some(pos) => {
                                self.f[*dst] = self.vals[*tensor][pos];
                                self.reads[*tensor] += 1;
                            }
                            None => {
                                self.f[*dst] = 0.0;
                                self.miss |= *set_miss;
                            }
                        }
                    }
                    VStep::FoldOut { tensor, id, stride, bin, op, srcs, check_miss, .. } => {
                        let v = fold(bin, srcs, self.f);
                        if !(*check_miss && self.miss) {
                            let off = self.bases[*id] + coord * stride;
                            let ob = self.outs[self.oo[*tensor]].as_mut().expect("output bound");
                            let cell = &mut ob.data[off - ob.base];
                            *cell = op.apply(*cell, v);
                            if *check_miss {
                                self.writes += 1;
                                if *op != AssignOp::Overwrite {
                                    self.flops += 1;
                                }
                            }
                        }
                        self.miss = false;
                    }
                    VStep::FoldScalar { slot, bin, op, srcs, check_miss } => {
                        let v = fold(bin, srcs, self.f);
                        if !(*check_miss && self.miss) {
                            self.f[*slot] = op.apply(self.f[*slot], v);
                            if *check_miss && *op != AssignOp::Overwrite {
                                self.flops += 1;
                            }
                        }
                        self.miss = false;
                    }
                }
            }
        }
    }

    /// Resolves a gather at `coord`: the cached-prefix cursor walk for
    /// single-varying-mode gathers, a full per-level search otherwise.
    #[inline]
    fn gather(
        &mut self,
        tensor: usize,
        id: usize,
        modes: &[usize],
        var_mode: Option<usize>,
        coord: usize,
    ) -> Option<usize> {
        gather_find(
            self.levels,
            self.lvl_base,
            self.u,
            self.gathers,
            tensor,
            id,
            modes,
            var_mode,
            coord,
        )
    }
}

// ---------------------------------------------------------------------------
// Fused-body execution
// ---------------------------------------------------------------------------

/// Semiring monomorphization for the fused runners: the (bin, reduce)
/// pairs the paper kernels use get dedicated instantiations so the hot
/// loops carry no operator dispatch; everything else runs through
/// [`DynSemi`] (still one match per application, but free of all other
/// step machinery). The `op` arguments are the fold's own operators —
/// the specialized impls ignore them (the dispatch site proved every
/// fold of the body uses exactly this pair).
trait Semi: Copy {
    fn bin(self, op: BinOp, a: f64, b: f64) -> f64;
    fn red(self, op: AssignOp, acc: f64, v: f64) -> f64;
}

/// `a * b` folds reduced by `+=` (every arithmetic paper kernel).
#[derive(Clone, Copy)]
struct MulAddSemi;
impl Semi for MulAddSemi {
    #[inline(always)]
    fn bin(self, _: BinOp, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn red(self, _: AssignOp, acc: f64, v: f64) -> f64 {
        acc + v
    }
}

/// `a + b` folds reduced by `min=` (tropical kernels: Bellman–Ford).
#[derive(Clone, Copy)]
struct AddMinSemi;
impl Semi for AddMinSemi {
    #[inline(always)]
    fn bin(self, _: BinOp, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn red(self, _: AssignOp, acc: f64, v: f64) -> f64 {
        acc.min(v)
    }
}

/// Fallback: apply the fold's own operators.
#[derive(Clone, Copy)]
struct DynSemi;
impl Semi for DynSemi {
    #[inline(always)]
    fn bin(self, op: BinOp, a: f64, b: f64) -> f64 {
        op.apply(a, b)
    }
    #[inline(always)]
    fn red(self, op: AssignOp, acc: f64, v: f64) -> f64 {
        op.apply(acc, v)
    }
}

// ---------------------------------------------------------------------------
// Lane primitives
// ---------------------------------------------------------------------------

/// The loop-invariant operands of a dot chain `[lead ∘] a [∘ mid] ∘ b`.
///
/// Flags plus values, not `Option<f64>`s: an absent operand still holds
/// a defined value. The optimizer may evaluate the chain
/// speculatively, and the undefined payload of a `None` can be any bit
/// pattern a caller left in the register — often a subnormal, which
/// costs a microcode assist on every element it touches (on a 2-core
/// x86-64-v3 VM that made the laned dot of naive SSYMV rows 5–7×
/// slower).
#[derive(Clone, Copy)]
struct Chain {
    lead: f64,
    has_lead: bool,
    mid: f64,
    has_mid: bool,
}

impl Chain {
    /// The chain of a plain `a ∘ b` dot.
    const PLAIN: Chain = Chain { lead: 0.0, has_lead: false, mid: 0.0, has_mid: false };
}

/// The invariant prefix of a dot chain: `[lead ∘] a [∘ mid]`.
#[inline(always)]
fn chain_prefix<S: Semi>(s: S, bin: BinOp, chain: Chain, a: f64) -> f64 {
    let mut v = if chain.has_lead { s.bin(bin, chain.lead, a) } else { a };
    if chain.has_mid {
        v = s.bin(bin, v, chain.mid);
    }
    v
}

/// One lane step over a full chunk: `lanes[k] op= va[k] bin xa[k]` for
/// every lane.
#[inline(always)]
fn lane_accumulate<S: Semi, const L: usize>(
    s: S,
    bin: BinOp,
    op: AssignOp,
    lanes: &mut [f64; L],
    va: [f64; L],
    xa: [f64; L],
) {
    for k in 0..L {
        lanes[k] = s.red(op, lanes[k], s.bin(bin, va[k], xa[k]));
    }
}

/// The accumulators a width-`L` runner starts from. At `L = 1` the one
/// lane *is* the entry accumulator, so the runner is the strict
/// left-to-right fold of [`LaneMode::Scalar`]; wider runners seed every
/// lane with the reduction's identity (their dispatch gates on one).
#[inline(always)]
fn lane_seed<const L: usize>(op: AssignOp, acc0: f64) -> [f64; L] {
    if L == 1 {
        [acc0; L]
    } else {
        [op.identity().expect("lane runners are gated on an identity"); L]
    }
}

/// A width-`L` runner's result. At `L = 1` the lane already holds it;
/// wider runners merge into the entry accumulator in fixed lane order
/// (`acc0`, then lane `0 → L-1`) — the one place lane values recombine,
/// so the merge order alone fixes the result bits for a given lane
/// assignment.
#[inline(always)]
fn lane_merge<S: Semi, const L: usize>(s: S, op: AssignOp, acc0: f64, lanes: &[f64; L]) -> f64 {
    if L == 1 {
        return lanes[0];
    }
    let mut acc = acc0;
    for &l in lanes {
        acc = s.red(op, acc, l);
    }
    acc
}

/// Whether a special runner runs at `L = LANES`: the context allows
/// lanes, the reduction has an identity to seed them with (always true
/// for the proven-uniform semirings; checked for the dynamic fallback),
/// and the window is long enough to amortize the merge — shorter
/// windows fold serially even in lane mode. A pure function of the
/// drive window, so the choice is deterministic.
#[inline(always)]
fn lanes_pay(lanes: bool, op: AssignOp, span: usize) -> bool {
    lanes && op.identity().is_some() && span > LANE_MIN
}

/// An entry-resolved per-coordinate load: dense operands are concrete
/// slices with their invariant base offsets folded in.
#[derive(Clone, Copy)]
enum RLoad<'a, 'p> {
    /// The driver's value at the current position.
    Val,
    /// The probed fiber's value (intersection drives).
    Probe { tensor: usize, set_miss: bool },
    /// `slice[base + coord * stride]`.
    Dense { slice: &'a [f64], base: usize, stride: usize },
    /// Random-access gather (shares [`gather_find`] with the step path).
    Gather { tensor: usize, id: usize, modes: &'p [usize], var_mode: Option<usize>, set_miss: bool },
}

/// An entry-resolved fold operand: loop-invariant registers become
/// constants.
#[derive(Clone, Copy)]
enum RSrc {
    Local(usize),
    Const(f64),
}

/// An entry-resolved accumulator target.
#[derive(Clone, Copy)]
enum RAcc {
    /// `f[slot]`, held in [`RFold::accv`] across the loop.
    Slot { slot: usize },
    /// A loop-invariant output cell (stride 0, single fold), register-
    /// held likewise — the write *counts* stay per-iteration (bulk) /
    /// per-hit exactly as if every store happened.
    Cell { ord: usize, off: usize },
    /// A strided output store per coordinate.
    Out { ord: usize, off: usize, stride: usize },
}

/// One entry-resolved fold: leading invariant operands pre-folded into
/// `lead` (exact — the fold chain is left-associative), the rest a
/// fixed operand array over load locals and snapshot constants.
#[derive(Clone, Copy)]
struct RFold {
    lead: f64,
    has_lead: bool,
    srcs: [RSrc; MAX_FUSED_SRCS],
    n_srcs: usize,
    acc: RAcc,
    /// Register accumulator for `Slot` / `Cell` targets.
    accv: f64,
    /// Lane accumulators for `Slot` / `Cell` targets under
    /// [`LaneMode::Lanes`], seeded with the fold op's identity and
    /// merged into `accv` in fixed lane order at loop exit.
    lanev: [f64; LANES],
    bin: BinOp,
    op: AssignOp,
    check_miss: bool,
    /// Per-hit store-side counter contributions (miss-checked folds).
    hit_write: bool,
    hit_flop: bool,
    /// Bitmask over load locals gating this fold's store.
    miss_mask: u32,
}

/// The entry-resolved executable form of a [`Fused`] body.
struct RBody<'a, 'p> {
    loads: [RLoad<'a, 'p>; MAX_FUSED_LOADS],
    n_loads: usize,
    folds: [RFold; MAX_FUSED_FOLDS],
    n_folds: usize,
    /// The loop's index register (set per coordinate only when a
    /// full-search gather reads it; set once at exit otherwise).
    idx: usize,
    needs_u_idx: bool,
    /// Whether register-held folds accumulate into [`RFold::lanev`]
    /// (the body's plan-level lane count is > 1 and the context asked
    /// for [`LaneMode::Lanes`]).
    use_lanes: bool,
    /// The lane the *next* coordinate's folds land in. Advances once
    /// per executed coordinate — including all-miss coordinates — so
    /// the lane assignment is a pure function of the drive window.
    lane_k: usize,
}

/// How a fused loop iterates its coordinates — one variant per
/// vector-loop instruction kind.
enum FDrive<'a> {
    /// Counted dense loop over `lo..=hi`.
    Range { lo: usize, hi: usize },
    /// Compressed driver: positions `start..stop` of `crd`, values at
    /// the same positions.
    Crd { vals: &'a [f64], crd: &'a [usize], start: usize, stop: usize },
    /// Run-length driver: runs `start..stop` clamped to `[lo, hi]`,
    /// value constant per run.
    Rle {
        vals: &'a [f64],
        run_start: &'a [usize],
        run_end: &'a [usize],
        start: usize,
        stop: usize,
        lo: usize,
        hi: usize,
    },
    /// Two-way intersection: the driver window merged against the
    /// probed fiber with a forward-only cursor ([`ProbeCur`]).
    Isect {
        vals: &'a [f64],
        crd: &'a [usize],
        start: usize,
        stop: usize,
        bvals: &'a [f64],
        probe: ProbeCur<'a>,
    },
}

/// Upper bound on the number of coordinates a drive window executes —
/// the generic fused path's lane cutover measure (compressed and
/// intersection drivers count stored positions; dense drivers count
/// the clamped coordinate span; run-length drivers measure against the
/// run extents via [`rle_extent`]).
fn drive_span(drive: &FDrive<'_>) -> usize {
    match drive {
        FDrive::Range { lo, hi } => hi.saturating_add(1).saturating_sub(*lo),
        FDrive::Crd { start, stop, .. } | FDrive::Isect { start, stop, .. } => {
            stop.saturating_sub(*start)
        }
        FDrive::Rle { run_start, run_end, start, stop, lo, hi, .. } => {
            rle_extent(run_start, run_end, *start, *stop, *lo, *hi)
        }
    }
}

/// Upper bound on the coordinates a run-length window covers: first
/// selected run's clamped start through last selected run's clamped
/// end. Unclamped loops carry a sentinel `hi` (`i64::MAX`), so the raw
/// `[lo, hi]` span saturates and would put every tiny fiber over the
/// lane cutover; bounding by the run extents keeps the cutover a real
/// measure of work.
fn rle_extent(
    run_start: &[usize],
    run_end: &[usize],
    start: usize,
    stop: usize,
    lo: usize,
    hi: usize,
) -> usize {
    if start >= stop {
        return 0;
    }
    let first = run_start[start].max(lo);
    let last = run_end[stop - 1].min(hi);
    last.saturating_add(1).saturating_sub(first)
}

/// Forward-only cursor over the probed side of an intersection drive —
/// one variant per level format, so probes into dense and run-length
/// levels reach the fused tier through the same merge loop as
/// compressed probes. Driver coordinates are monotone, so every
/// variant's cursor only moves forward.
#[derive(Clone, Copy)]
enum ProbeCur<'a> {
    /// The probed path prefix is unstored: every probe misses (the
    /// driver still iterates, as in the interpreter).
    Empty,
    /// Compressed fiber: gallop over `crd[cur..end]`.
    Crd { crd: &'a [usize], cur: usize, end: usize },
    /// Dense fiber: direct index, hit iff `coord < size`.
    Dense { base: usize, size: usize },
    /// Run-length fiber: walk runs `cur..end`, hit iff the current
    /// run covers `coord`; the hit position is the run index.
    Runs { run_start: &'a [usize], run_end: &'a [usize], cur: usize, end: usize },
}

impl ProbeCur<'_> {
    /// Advances the cursor to `coord` and returns the value position on
    /// a hit.
    #[inline(always)]
    fn find(&mut self, coord: usize) -> Option<usize> {
        match self {
            ProbeCur::Empty => None,
            ProbeCur::Crd { crd, cur, end } => {
                if *cur < *end && crd[*cur] < coord {
                    *cur += crd[*cur..*end].partition_point(|&x| x < coord);
                }
                (*cur < *end && crd[*cur] == coord).then_some(*cur)
            }
            ProbeCur::Dense { base, size } => (coord < *size).then(|| *base + coord),
            ProbeCur::Runs { run_start, run_end, cur, end } => {
                while *cur < *end && run_end[*cur] < coord {
                    *cur += 1;
                }
                (*cur < *end && run_start[*cur] <= coord).then_some(*cur)
            }
        }
    }
}

#[inline(always)]
fn src_val(src: RSrc, locals: &[f64; MAX_FUSED_LOADS]) -> f64 {
    match src {
        RSrc::Local(i) => locals[i],
        RSrc::Const(v) => v,
    }
}

/// The fused analogue of [`VecRun`]: binding tables plus hit-dependent
/// counter accumulators. Bulk (per-iteration) counters come from the
/// body's compile-time recipe.
struct FusedRun<'r, 'a, 'o> {
    u: &'r mut [usize],
    f: &'r mut [f64],
    gathers: &'r mut GatherBank,
    dense: &'r [&'a [f64]],
    vals: &'r [&'a [f64]],
    levels: &'r [Option<LevelView<'a>>],
    lvl_base: &'r [usize],
    outs: &'r mut [Option<OutBind<'o>>],
    oo: &'r [usize],
    reads: &'r mut [u64],
    flops: u64,
    writes: u64,
    /// The context's [`LaneMode`], as a bool: lane execution applies
    /// only where the body's plan-level lane count also allows it.
    lanes: bool,
}

impl<'a> FusedRun<'_, 'a, '_> {
    /// Executes one fused loop.
    #[inline]
    fn run(&mut self, fu: &Fused, drive: FDrive<'a>, idx: usize, iters: u64) {
        // Invariant contributions in bulk, from the recipe derived off
        // the step list this body replaces.
        for &(t, n) in fu.bulk.reads.iter() {
            self.reads[t] += n * iters;
        }
        self.flops += fu.bulk.flops * iters;
        self.writes += fu.bulk.writes * iters;
        // Closed-form loops for the canonical shapes run straight off
        // the compile-time form — entry cost is a handful of scalar
        // resolutions, which matters for short fibers entered many
        // times (SSYRK's intersection).
        //
        // The short-fiber cutover applies to the generic path too: a
        // window below [`LANE_MIN`] folds serially (in interpreter
        // order), so the lane-merge tax is never paid on fibers too
        // short to amortize it. The gate is a pure function of the
        // drive window — deterministic, like the special runners'.
        let use_lanes = self.lanes && fu.lanes > 1 && drive_span(&drive) > LANE_MIN;
        if matches!(fu.kind, FusedBody::Dot | FusedBody::DotAxpy)
            && self.run_special(fu, &drive, idx, use_lanes)
        {
            return;
        }
        let mut body = self.resolve(fu, idx, use_lanes);
        for ld in fu.loads.iter() {
            if let FLoad::Gather { tensor, id, modes, var_mode: Some(vm), .. } = ld {
                init_gather_cursor(
                    self.levels,
                    self.lvl_base,
                    self.u,
                    self.gathers,
                    *tensor,
                    *id,
                    modes,
                    *vm,
                );
            }
        }
        // One semiring for the whole body → monomorphized loops.
        let folds = &body.folds[..body.n_folds];
        let (bin0, op0) = (folds[0].bin, folds[0].op);
        let uniform = folds.iter().all(|fo| fo.bin == bin0 && fo.op == op0);
        match (uniform, bin0, op0) {
            (true, BinOp::Mul, AssignOp::Add) => {
                self.drive_shape::<MulAddSemi>(&mut body, MulAddSemi, drive)
            }
            (true, BinOp::Add, AssignOp::Min) => {
                self.drive_shape::<AddMinSemi>(&mut body, AddMinSemi, drive)
            }
            _ => self.drive_shape::<DynSemi>(&mut body, DynSemi, drive),
        }
        // Flush register-held accumulators: under lanes, merge the lane
        // array into the entry-seeded accumulator in fixed lane order.
        // `op.apply` is exactly the reduction the loop ran (the
        // semiring dispatch above proved the op pair), so the merge is
        // bit-identical whichever `Semi` drove the loop.
        let use_lanes = body.use_lanes;
        for fold in &body.folds[..body.n_folds] {
            let mut acc = fold.accv;
            if use_lanes {
                for &l in &fold.lanev {
                    acc = fold.op.apply(acc, l);
                }
            }
            match fold.acc {
                RAcc::Slot { slot } => self.f[slot] = acc,
                RAcc::Cell { ord, off } => {
                    let ob = self.outs[ord].as_mut().expect("output bound");
                    let i = off - ob.base;
                    ob.data[i] = acc;
                }
                RAcc::Out { .. } => {}
            }
        }
    }

    /// Resolves a fused body against the current bindings: dense bases
    /// and invariant registers are snapshot once, accumulators load
    /// their starting values (lane accumulators seed with the fold op's
    /// identity under lane mode).
    fn resolve<'p>(&mut self, fu: &'p Fused, idx: usize, use_lanes: bool) -> RBody<'a, 'p> {
        let mut body = RBody {
            loads: [RLoad::Val; MAX_FUSED_LOADS],
            n_loads: fu.loads.len(),
            folds: [RFold {
                lead: 0.0,
                has_lead: false,
                srcs: [RSrc::Const(0.0); MAX_FUSED_SRCS],
                n_srcs: 0,
                acc: RAcc::Slot { slot: 0 },
                accv: 0.0,
                lanev: [0.0; LANES],
                bin: BinOp::Add,
                op: AssignOp::Add,
                check_miss: false,
                hit_write: false,
                hit_flop: false,
                miss_mask: 0,
            }; MAX_FUSED_FOLDS],
            n_folds: fu.folds.len(),
            idx,
            needs_u_idx: false,
            use_lanes,
            lane_k: 0,
        };
        for (i, ld) in fu.loads.iter().enumerate() {
            body.loads[i] = match ld {
                FLoad::Val => RLoad::Val,
                FLoad::Probe { tensor, set_miss } => {
                    RLoad::Probe { tensor: *tensor, set_miss: *set_miss }
                }
                FLoad::Dense { tensor, base, stride } => RLoad::Dense {
                    slice: self.dense[*tensor],
                    base: offset(self.u, base),
                    stride: *stride,
                },
                FLoad::Gather { tensor, id, modes, var_mode, set_miss } => {
                    body.needs_u_idx |= var_mode.is_none();
                    RLoad::Gather {
                        tensor: *tensor,
                        id: *id,
                        modes,
                        var_mode: *var_mode,
                        set_miss: *set_miss,
                    }
                }
            };
        }
        let single_fold = fu.folds.len() == 1;
        for (j, fold) in fu.folds.iter().enumerate() {
            let rf = &mut body.folds[j];
            for op in fold.srcs.iter() {
                match op {
                    FOp::Reg(r) if rf.n_srcs == 0 => {
                        // Still in the leading invariant run: pre-fold.
                        let v = self.f[*r];
                        rf.lead = if rf.has_lead { fold.bin.apply(rf.lead, v) } else { v };
                        rf.has_lead = true;
                    }
                    FOp::Reg(r) => {
                        rf.srcs[rf.n_srcs] = RSrc::Const(self.f[*r]);
                        rf.n_srcs += 1;
                    }
                    FOp::Local(l) => {
                        rf.srcs[rf.n_srcs] = RSrc::Local(*l);
                        rf.n_srcs += 1;
                    }
                }
            }
            rf.acc = match &fold.acc {
                FAcc::Scalar { slot } => RAcc::Slot { slot: *slot },
                FAcc::Out { tensor, base, stride } => {
                    let ord = self.oo[*tensor];
                    let off = offset(self.u, base);
                    if *stride == 0 && single_fold {
                        RAcc::Cell { ord, off }
                    } else {
                        RAcc::Out { ord, off, stride: *stride }
                    }
                }
            };
            rf.accv = match rf.acc {
                RAcc::Slot { slot } => self.f[slot],
                RAcc::Cell { ord, off } => {
                    let ob = self.outs[ord].as_ref().expect("output bound");
                    ob.data[off - ob.base]
                }
                RAcc::Out { .. } => 0.0,
            };
            rf.lanev = [fold.op.identity().unwrap_or(0.0); LANES];
            rf.bin = fold.bin;
            rf.op = fold.op;
            rf.check_miss = fold.check_miss;
            rf.hit_write = fold.check_miss && matches!(fold.acc, FAcc::Out { .. });
            rf.hit_flop = fold.check_miss && fold.op != AssignOp::Overwrite;
            rf.miss_mask = fold.miss.iter().fold(0u32, |m, &l| m | (1 << l));
        }
        body
    }

    /// Shape dispatch for the generic fused loop: the common small
    /// (loads, folds) shapes — `Jam` bodies in particular — get
    /// per-shape unrolled instantiations of [`Self::drive`] whose inner
    /// loops have compile-time trip counts; `(0, 0)` is the dynamic
    /// fallback for everything else.
    fn drive_shape<S: Semi>(&mut self, body: &mut RBody<'a, '_>, s: S, drive: FDrive<'a>) {
        match (body.n_loads, body.n_folds) {
            (2, 1) => self.drive::<S, 2, 1>(body, s, drive),
            (3, 2) => self.drive::<S, 3, 2>(body, s, drive),
            (4, 3) => self.drive::<S, 4, 3>(body, s, drive),
            (5, 4) => self.drive::<S, 5, 4>(body, s, drive),
            _ => self.drive::<S, 0, 0>(body, s, drive),
        }
    }

    /// Drives the body over the loop's coordinates. `NL` / `NF` pin the
    /// load and fold counts at compile time (0 = read them from the
    /// body at runtime).
    fn drive<S: Semi, const NL: usize, const NF: usize>(
        &mut self,
        body: &mut RBody<'a, '_>,
        s: S,
        drive: FDrive<'a>,
    ) {
        match drive {
            FDrive::Range { lo, hi } => {
                for c in lo..=hi {
                    self.coord::<S, NL, NF>(body, s, c, None, None);
                }
                self.u[body.idx] = hi;
            }
            FDrive::Crd { vals, crd, start, stop } => {
                for (pos, &c) in crd.iter().enumerate().take(stop).skip(start) {
                    self.coord::<S, NL, NF>(body, s, c, Some((vals, pos)), None);
                }
                self.u[body.idx] = crd[stop - 1];
            }
            FDrive::Rle { vals, run_start, run_end, start, stop, lo, hi } => {
                let mut last = lo;
                for r in start..stop {
                    let c_lo = run_start[r].max(lo);
                    if c_lo > hi {
                        break;
                    }
                    let c_hi = run_end[r].min(hi);
                    for c in c_lo..=c_hi {
                        self.coord::<S, NL, NF>(body, s, c, Some((vals, r)), None);
                    }
                    last = c_hi;
                }
                self.u[body.idx] = last;
            }
            FDrive::Isect { vals, crd, start, stop, bvals, mut probe } => {
                for (pos, &c) in crd.iter().enumerate().take(stop).skip(start) {
                    let pmatch = probe.find(c);
                    self.coord::<S, NL, NF>(body, s, c, Some((vals, pos)), Some((bvals, pmatch)));
                }
                self.u[body.idx] = crd[stop - 1];
            }
        }
    }

    /// Executes the body for one coordinate (the generic fused path:
    /// loads once into locals, then the straight-line folds).
    #[inline(always)]
    fn coord<S: Semi, const NL: usize, const NF: usize>(
        &mut self,
        body: &mut RBody<'a, '_>,
        s: S,
        coord: usize,
        leaf: Option<(&'a [f64], usize)>,
        probe: Option<(&'a [f64], Option<usize>)>,
    ) {
        if body.needs_u_idx {
            self.u[body.idx] = coord;
        }
        let n_loads = if NL == 0 { body.n_loads } else { NL };
        let n_folds = if NF == 0 { body.n_folds } else { NF };
        let use_lanes = body.use_lanes;
        let lane_k = body.lane_k;
        let mut locals = [0f64; MAX_FUSED_LOADS];
        let mut miss: u32 = 0;
        for (i, ld) in body.loads[..n_loads].iter().enumerate() {
            match *ld {
                RLoad::Val => {
                    let (v, pos) = leaf.expect("driver value in a driven fused loop");
                    locals[i] = v[pos];
                }
                RLoad::Dense { slice, base, stride } => {
                    locals[i] = slice[base + coord * stride];
                }
                RLoad::Probe { tensor, set_miss } => {
                    let (pv, pmatch) = probe.expect("probe value in an intersection loop");
                    match pmatch {
                        Some(p) => {
                            locals[i] = pv[p];
                            self.reads[tensor] += 1;
                        }
                        None => {
                            locals[i] = 0.0;
                            miss |= u32::from(set_miss) << i;
                        }
                    }
                }
                RLoad::Gather { tensor, id, modes, var_mode, set_miss } => {
                    let found = gather_find(
                        self.levels,
                        self.lvl_base,
                        self.u,
                        self.gathers,
                        tensor,
                        id,
                        modes,
                        var_mode,
                        coord,
                    );
                    match found {
                        Some(p) => {
                            locals[i] = self.vals[tensor][p];
                            self.reads[tensor] += 1;
                        }
                        None => {
                            locals[i] = 0.0;
                            miss |= u32::from(set_miss) << i;
                        }
                    }
                }
            }
        }
        for fold in body.folds[..n_folds].iter_mut() {
            let mut k = 0usize;
            let mut v = if fold.has_lead {
                fold.lead
            } else {
                k = 1;
                src_val(fold.srcs[0], &locals)
            };
            while k < fold.n_srcs {
                v = s.bin(fold.bin, v, src_val(fold.srcs[k], &locals));
                k += 1;
            }
            if !(fold.check_miss && (miss & fold.miss_mask) != 0) {
                match fold.acc {
                    RAcc::Slot { .. } | RAcc::Cell { .. } => {
                        // Under lane mode, register-held reductions go
                        // through the per-coordinate lane instead of the
                        // loop-carried scalar — breaking the serial FP
                        // dependency chain. Elementwise stores below are
                        // untouched (distinct cells, original order).
                        if use_lanes {
                            fold.lanev[lane_k] = s.red(fold.op, fold.lanev[lane_k], v);
                        } else {
                            fold.accv = s.red(fold.op, fold.accv, v);
                        }
                    }
                    RAcc::Out { ord, off, stride } => {
                        let ob = self.outs[ord].as_mut().expect("output bound");
                        let cell = &mut ob.data[off + coord * stride - ob.base];
                        *cell = s.red(fold.op, *cell, v);
                    }
                }
                self.writes += u64::from(fold.hit_write);
                self.flops += u64::from(fold.hit_flop);
            }
        }
        if use_lanes {
            body.lane_k = (lane_k + 1) & (LANES - 1);
        }
    }

    /// Closed-form loops for the canonical dot / dot-axpy shapes,
    /// running straight off the compile-time [`Fused`] form (no operand
    /// arrays, accumulators and operands pinned in machine registers).
    /// Returns `false` when the shape or drive doesn't match — the
    /// generic fused path then runs.
    #[inline]
    fn run_special(&mut self, fu: &Fused, drive: &FDrive<'a>, idx: usize, lanes: bool) -> bool {
        match (fu.kind, fu.folds.as_ref()) {
            (FusedBody::Dot, [fold]) => self.special_dot(fold, &fu.loads, drive, idx, lanes),
            (FusedBody::DotAxpy, [dot, axpy]) => {
                self.special_dot_axpy(dot, axpy, &fu.loads, drive, idx, lanes)
            }
            _ => false,
        }
    }

    /// `acc ∘= [lead ∘] a [∘ mid] ∘ b` where `a` is the driver value
    /// and `b` a strided dense element (SpMV/SYPRD row dots) or the
    /// probed value (SSYRK's intersection dot), with the accumulator in
    /// a machine register for the whole loop.
    #[inline]
    fn special_dot(
        &mut self,
        fold: &FFold,
        loads: &[FLoad],
        drive: &FDrive<'a>,
        idx: usize,
        lanes: bool,
    ) -> bool {
        if loads.len() != 2 {
            return false;
        }
        let Some((chain, a, b)) = split_dot(self.f, fold) else {
            return false;
        };
        if a == b || !matches!(loads[a], FLoad::Val) {
            return false;
        }
        // Register-held accumulator: a scalar slot or an invariant cell.
        let cell = match &fold.acc {
            FAcc::Scalar { .. } => None,
            FAcc::Out { tensor, base, stride: 0 } => Some((self.oo[*tensor], offset(self.u, base))),
            FAcc::Out { .. } => return false,
        };
        let acc0 = match (&fold.acc, cell) {
            (FAcc::Scalar { slot }, _) => self.f[*slot],
            (_, Some((ord, off))) => {
                let ob = self.outs[ord].as_ref().expect("output bound");
                ob.data[off - ob.base]
            }
            _ => unreachable!(),
        };
        let (bin, op) = (fold.bin, fold.op);
        let acc = match &loads[b] {
            FLoad::Dense { tensor, base, stride } if !fold.check_miss => {
                let xs = self.dense[*tensor];
                let xb = offset(self.u, base);
                let xst = *stride;
                match *drive {
                    FDrive::Crd { vals, crd, start, stop } => {
                        let (crd, avals) = (&crd[start..stop], &vals[start..stop]);
                        let acc =
                            dot_crd_dispatch(bin, op, lanes, chain, acc0, crd, avals, xs, xb, xst);
                        self.u[idx] = crd[crd.len() - 1];
                        acc
                    }
                    FDrive::Rle { vals, run_start, run_end, start, stop, lo, hi } => {
                        let args = RleArgs { vals, run_start, run_end, start, stop, lo, hi };
                        let (acc, last) =
                            dot_rle_dispatch(bin, op, lanes, chain, acc0, &args, xs, xb, xst);
                        self.u[idx] = last;
                        acc
                    }
                    _ => return false,
                }
            }
            FLoad::Probe { tensor: pt, set_miss: true }
                if fold.check_miss && fold.miss.as_ref() == [b] =>
            {
                let FDrive::Isect { vals, crd, start, stop, bvals, probe } = *drive else {
                    return false;
                };
                let (crd, avals) = (&crd[start..stop], &vals[start..stop]);
                let (acc, hits) =
                    isect_dot_dispatch(bin, op, lanes, chain, acc0, crd, avals, bvals, probe);
                // Per hit: one probe read plus the store side of the
                // miss-checked fold.
                self.reads[*pt] += hits;
                if op != AssignOp::Overwrite {
                    self.flops += hits;
                }
                if matches!(fold.acc, FAcc::Out { .. }) {
                    self.writes += hits;
                }
                self.u[idx] = crd[crd.len() - 1];
                acc
            }
            _ => return false,
        };
        match (&fold.acc, cell) {
            (FAcc::Scalar { slot }, _) => self.f[*slot] = acc,
            (_, Some((ord, off))) => {
                let ob = self.outs[ord].as_mut().expect("output bound");
                let i = off - ob.base;
                ob.data[i] = acc;
            }
            _ => unreachable!(),
        }
        true
    }

    /// SSYMV's symmetric pair over a compressed or run-length driver:
    /// a register-held scalar dot plus a strided reducing store,
    /// sharing the driver value (`w ∘= a ∘ x[c]; y[c] ∘= a ∘ k`).
    fn special_dot_axpy(
        &mut self,
        dot: &FFold,
        axpy: &FFold,
        loads: &[FLoad],
        drive: &FDrive<'a>,
        idx: usize,
        lanes: bool,
    ) -> bool {
        if !matches!(drive, FDrive::Crd { .. } | FDrive::Rle { .. }) {
            return false;
        }
        if loads.len() != 2 || dot.check_miss || axpy.check_miss {
            return false;
        }
        let Some((chain, a, b)) = split_dot(self.f, dot) else {
            return false;
        };
        if chain.has_lead || chain.has_mid {
            return false;
        }
        if a == b || !matches!(loads[a], FLoad::Val) {
            return false;
        }
        let FLoad::Dense { tensor: xt, base: xbase, stride: xst } = &loads[b] else {
            return false;
        };
        let FAcc::Scalar { slot } = dot.acc else {
            return false;
        };
        // The axpy side: driver value times one invariant register.
        let (k, k_first) = match axpy.srcs.as_ref() {
            [FOp::Local(l), FOp::Reg(r)] if *l == a => (self.f[*r], false),
            [FOp::Reg(r), FOp::Local(l)] if *l == a => (self.f[*r], true),
            _ => return false,
        };
        let FAcc::Out { tensor: ot, base: obase, stride: ost } = &axpy.acc else {
            return false;
        };
        let xs = self.dense[*xt];
        let xb = offset(self.u, xbase);
        let ooff = offset(self.u, obase);
        let ord = self.oo[*ot];
        let ob = self.outs[ord].as_mut().expect("output bound");
        let acc0 = self.f[slot];
        // Only the dot side is register-held, so only its reduction
        // needs an identity for lane mode; the axpy stores stay
        // elementwise in original order either way.
        let uniform = dot.bin == axpy.bin && dot.op == axpy.op;
        match *drive {
            FDrive::Crd { vals, crd, start, stop } => {
                let args = DotAxpyArgs {
                    k,
                    k_first,
                    crd: &crd[start..stop],
                    avals: &vals[start..stop],
                    xs,
                    xb,
                    xst: *xst,
                    ooff,
                    ob_base: ob.base,
                    ost: *ost,
                };
                let acc = match (uniform, dot.bin, dot.op) {
                    (true, BinOp::Mul, AssignOp::Add) => {
                        dot_axpy_dispatch(MulAddSemi, dot, axpy, lanes, acc0, &args, ob.data)
                    }
                    (true, BinOp::Add, AssignOp::Min) => {
                        dot_axpy_dispatch(AddMinSemi, dot, axpy, lanes, acc0, &args, ob.data)
                    }
                    _ => dot_axpy_dispatch(DynSemi, dot, axpy, lanes, acc0, &args, ob.data),
                };
                self.f[slot] = acc;
                self.u[idx] = crd[stop - 1];
            }
            FDrive::Rle { vals, run_start, run_end, start, stop, lo, hi } => {
                let args = DotAxpyRleArgs {
                    k,
                    k_first,
                    rle: RleArgs { vals, run_start, run_end, start, stop, lo, hi },
                    xs,
                    xb,
                    xst: *xst,
                    ooff,
                    ob_base: ob.base,
                    ost: *ost,
                };
                let (acc, last) = match (uniform, dot.bin, dot.op) {
                    (true, BinOp::Mul, AssignOp::Add) => {
                        dot_axpy_rle_dispatch(MulAddSemi, dot, axpy, lanes, acc0, &args, ob.data)
                    }
                    (true, BinOp::Add, AssignOp::Min) => {
                        dot_axpy_rle_dispatch(AddMinSemi, dot, axpy, lanes, acc0, &args, ob.data)
                    }
                    _ => dot_axpy_rle_dispatch(DynSemi, dot, axpy, lanes, acc0, &args, ob.data),
                };
                self.f[slot] = acc;
                self.u[idx] = last;
            }
            _ => unreachable!("drive shape checked above"),
        }
        true
    }
}

/// Splits a fold's operand list into the canonical dot chain
/// `[lead regs..., Local(a), (Reg mid)?, Local(b)]`, snapshotting (and
/// pre-folding) the invariant registers. `None` = some other shape.
#[inline]
fn split_dot(f: &[f64], fold: &FFold) -> Option<(Chain, usize, usize)> {
    let mut srcs = fold.srcs.iter();
    let mut chain = Chain::PLAIN;
    let a = loop {
        match srcs.next()? {
            FOp::Reg(r) => {
                let v = f[*r];
                chain.lead = if chain.has_lead { fold.bin.apply(chain.lead, v) } else { v };
                chain.has_lead = true;
            }
            FOp::Local(l) => break *l,
        }
    };
    let b = match srcs.next()? {
        FOp::Reg(r) => {
            let FOp::Local(l) = srcs.next()? else {
                return None;
            };
            chain.mid = f[*r];
            chain.has_mid = true;
            *l
        }
        FOp::Local(l) => *l,
    };
    if srcs.next().is_some() {
        return None;
    }
    Some((chain, a, b))
}

/// One element of the dot chain: `red(acc, ([lead ∘] a [∘ mid]) ∘ b)`.
#[inline(always)]
fn dot_chain<S: Semi>(
    s: S,
    bin: BinOp,
    op: AssignOp,
    acc: f64,
    chain: Chain,
    a: f64,
    b: f64,
) -> f64 {
    let v = chain_prefix(s, bin, chain, a);
    s.red(op, acc, s.bin(bin, v, b))
}

/// Dot over a compressed driver window at lane width `L`: window
/// element `p` reduces into lane `p % L`. The chunked main loop is the
/// straight-line shape the autovectorizer keeps in vector registers; at
/// `L = 1` it never runs and the tail loop is the whole strict
/// left-to-right fold.
#[allow(clippy::too_many_arguments)]
fn dot_crd<S: Semi, const L: usize>(
    s: S,
    bin: BinOp,
    op: AssignOp,
    chain: Chain,
    acc0: f64,
    crd: &[usize],
    avals: &[f64],
    xs: &[f64],
    xb: usize,
    xst: usize,
) -> f64 {
    let mut lanes = lane_seed::<L>(op, acc0);
    let n = crd.len().min(avals.len());
    let split = if L == 1 { 0 } else { n / L * L };
    // Fixed-size chunk references (`&[T; L]`) let the per-element
    // bounds checks fold away; the gather into `xs` is the one load the
    // optimizer still has to check.
    let mut base = 0;
    while base < split {
        let c8: &[usize; L] = crd[base..base + L].try_into().expect("exact chunk");
        let a8: &[f64; L] = avals[base..base + L].try_into().expect("exact chunk");
        let va: [f64; L] = std::array::from_fn(|k| chain_prefix(s, bin, chain, a8[k]));
        let xa: [f64; L] = std::array::from_fn(|k| xs[xb + c8[k] * xst]);
        lane_accumulate(s, bin, op, &mut lanes, va, xa);
        base += L;
    }
    // `split` is a multiple of `L`, so tail offset `k` is lane `p % L`.
    for (k, (&c, &a)) in crd[split..n].iter().zip(&avals[split..n]).enumerate() {
        let l = k % L;
        lanes[l] = dot_chain(s, bin, op, lanes[l], chain, a, xs[xb + c * xst]);
    }
    lane_merge(s, op, acc0, &lanes)
}

/// Selects the semiring instantiation and lane width of the
/// compressed-driver dot (see [`lanes_pay`]).
#[allow(clippy::too_many_arguments)]
fn dot_crd_dispatch(
    bin: BinOp,
    op: AssignOp,
    lanes: bool,
    chain: Chain,
    acc0: f64,
    crd: &[usize],
    avals: &[f64],
    xs: &[f64],
    xb: usize,
    xst: usize,
) -> f64 {
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn go<S: Semi>(
        s: S,
        bin: BinOp,
        op: AssignOp,
        wide: bool,
        chain: Chain,
        acc0: f64,
        crd: &[usize],
        avals: &[f64],
        xs: &[f64],
        xb: usize,
        xst: usize,
    ) -> f64 {
        if wide {
            dot_crd::<S, LANES>(s, bin, op, chain, acc0, crd, avals, xs, xb, xst)
        } else {
            dot_crd::<S, 1>(s, bin, op, chain, acc0, crd, avals, xs, xb, xst)
        }
    }
    let wide = lanes_pay(lanes, op, crd.len());
    match (bin, op) {
        (BinOp::Mul, AssignOp::Add) => {
            go(MulAddSemi, bin, op, wide, chain, acc0, crd, avals, xs, xb, xst)
        }
        (BinOp::Add, AssignOp::Min) => {
            go(AddMinSemi, bin, op, wide, chain, acc0, crd, avals, xs, xb, xst)
        }
        _ => go(DynSemi, bin, op, wide, chain, acc0, crd, avals, xs, xb, xst),
    }
}

/// The run-length drive window (bundled to keep signatures readable).
struct RleArgs<'a> {
    vals: &'a [f64],
    run_start: &'a [usize],
    run_end: &'a [usize],
    start: usize,
    stop: usize,
    lo: usize,
    hi: usize,
}

impl RleArgs<'_> {
    /// See [`rle_extent`] — the lane cutover measure for this window.
    fn extent(&self) -> usize {
        rle_extent(self.run_start, self.run_end, self.start, self.stop, self.lo, self.hi)
    }
}

/// Dot over a run-length driver window at lane width `L`: the driver
/// value is constant per run, so its chain prefix hoists out of the
/// inner strided loop (and broadcasts across a chunk). Within each
/// clamped run, offset `d` from the run's clamped start reduces into
/// lane `d % L`, so the lane assignment depends only on the clamped run
/// layout.
#[allow(clippy::too_many_arguments)]
fn dot_rle<S: Semi, const L: usize>(
    s: S,
    bin: BinOp,
    op: AssignOp,
    chain: Chain,
    acc0: f64,
    args: &RleArgs<'_>,
    xs: &[f64],
    xb: usize,
    xst: usize,
) -> (f64, usize) {
    let mut lanes = lane_seed::<L>(op, acc0);
    let mut last = args.lo;
    for r in args.start..args.stop {
        let c_lo = args.run_start[r].max(args.lo);
        if c_lo > args.hi {
            break;
        }
        let c_hi = args.run_end[r].min(args.hi);
        let v = chain_prefix(s, bin, chain, args.vals[r]);
        let split = if L == 1 { c_lo } else { c_lo + (c_hi + 1 - c_lo) / L * L };
        let mut c = c_lo;
        while c < split {
            // Unit stride reads a contiguous chunk — the one laned load
            // the optimizer can turn into straight vector loads.
            let xa: [f64; L] = if xst == 1 {
                *<&[f64; L]>::try_from(&xs[xb + c..xb + c + L]).expect("exact chunk")
            } else {
                std::array::from_fn(|k| xs[xb + (c + k) * xst])
            };
            lane_accumulate(s, bin, op, &mut lanes, [v; L], xa);
            c += L;
        }
        for (k, c) in (split..=c_hi).enumerate() {
            let l = k % L;
            lanes[l] = s.red(op, lanes[l], s.bin(bin, v, xs[xb + c * xst]));
        }
        last = c_hi;
    }
    (lane_merge(s, op, acc0, &lanes), last)
}

/// Selects the semiring instantiation and lane width of the run-length
/// dot (see [`lanes_pay`]). The run extent bounds the element count
/// from above; runs sparser than the extent still fold fast laned.
#[allow(clippy::too_many_arguments)]
fn dot_rle_dispatch(
    bin: BinOp,
    op: AssignOp,
    lanes: bool,
    chain: Chain,
    acc0: f64,
    args: &RleArgs<'_>,
    xs: &[f64],
    xb: usize,
    xst: usize,
) -> (f64, usize) {
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn go<S: Semi>(
        s: S,
        bin: BinOp,
        op: AssignOp,
        wide: bool,
        chain: Chain,
        acc0: f64,
        args: &RleArgs<'_>,
        xs: &[f64],
        xb: usize,
        xst: usize,
    ) -> (f64, usize) {
        if wide {
            dot_rle::<S, LANES>(s, bin, op, chain, acc0, args, xs, xb, xst)
        } else {
            dot_rle::<S, 1>(s, bin, op, chain, acc0, args, xs, xb, xst)
        }
    }
    let wide = lanes_pay(lanes, op, args.extent());
    match (bin, op) {
        (BinOp::Mul, AssignOp::Add) => {
            go(MulAddSemi, bin, op, wide, chain, acc0, args, xs, xb, xst)
        }
        (BinOp::Add, AssignOp::Min) => {
            go(AddMinSemi, bin, op, wide, chain, acc0, args, xs, xb, xst)
        }
        _ => go(DynSemi, bin, op, wide, chain, acc0, args, xs, xb, xst),
    }
}

/// Intersection dot at lane width `L`: the driver window merged against
/// the probed fiber with a forward-only cursor; on a miss the fold's
/// value is unused and the store skipped, so the merge skips computing
/// it without changing any state. Driver position `p` reduces into lane
/// `p % L` — a pure function of the driver window, independent of where
/// misses fall (a missed position leaves its lane untouched that
/// round). Position-keyed lanes keep the chunked loop's lane indices
/// compile-time constants, so the accumulators live in registers even
/// though hits are data-dependent. Returns the accumulator and the hit
/// count (for per-hit probe-read / store-side accounting).
#[allow(clippy::too_many_arguments)]
fn isect_dot<S: Semi, const L: usize>(
    s: S,
    bin: BinOp,
    op: AssignOp,
    chain: Chain,
    acc0: f64,
    crd: &[usize],
    avals: &[f64],
    bvals: &[f64],
    mut probe: ProbeCur<'_>,
) -> (f64, u64) {
    let mut lanes = lane_seed::<L>(op, acc0);
    let mut hits = 0u64;
    let n = crd.len().min(avals.len());
    let split = if L == 1 { 0 } else { n / L * L };
    let mut base = 0;
    while base < split {
        let c8: &[usize; L] = crd[base..base + L].try_into().expect("exact chunk");
        let a8: &[f64; L] = avals[base..base + L].try_into().expect("exact chunk");
        for k in 0..L {
            if let Some(p) = probe.find(c8[k]) {
                lanes[k] = dot_chain(s, bin, op, lanes[k], chain, a8[k], bvals[p]);
                hits += 1;
            }
        }
        base += L;
    }
    for (k, (&c, &a)) in crd[split..n].iter().zip(&avals[split..n]).enumerate() {
        if let Some(p) = probe.find(c) {
            let l = k % L;
            lanes[l] = dot_chain(s, bin, op, lanes[l], chain, a, bvals[p]);
            hits += 1;
        }
    }
    (lane_merge(s, op, acc0, &lanes), hits)
}

/// Selects the semiring instantiation and lane width of the
/// intersection dot (see [`lanes_pay`]).
#[allow(clippy::too_many_arguments)]
fn isect_dot_dispatch(
    bin: BinOp,
    op: AssignOp,
    lanes: bool,
    chain: Chain,
    acc0: f64,
    crd: &[usize],
    avals: &[f64],
    bvals: &[f64],
    probe: ProbeCur<'_>,
) -> (f64, u64) {
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn go<S: Semi>(
        s: S,
        bin: BinOp,
        op: AssignOp,
        wide: bool,
        chain: Chain,
        acc0: f64,
        crd: &[usize],
        avals: &[f64],
        bvals: &[f64],
        probe: ProbeCur<'_>,
    ) -> (f64, u64) {
        if wide {
            isect_dot::<S, LANES>(s, bin, op, chain, acc0, crd, avals, bvals, probe)
        } else {
            isect_dot::<S, 1>(s, bin, op, chain, acc0, crd, avals, bvals, probe)
        }
    }
    // Lanes pay off only when the probe is a constant-time dense index
    // (near-every position hits, so the fold chain is what's on the
    // critical path). Against galloping compressed or run-walking
    // probes the serial cursor advance dominates and hits are sparse —
    // the lane merge is pure tax there (measured ~10% loss on SSYRK),
    // so those fold serially. The gate is a pure function of the probed
    // level's format: deterministic.
    let wide = lanes_pay(lanes, op, crd.len()) && matches!(probe, ProbeCur::Dense { .. });
    match (bin, op) {
        (BinOp::Mul, AssignOp::Add) => {
            go(MulAddSemi, bin, op, wide, chain, acc0, crd, avals, bvals, probe)
        }
        (BinOp::Add, AssignOp::Min) => {
            go(AddMinSemi, bin, op, wide, chain, acc0, crd, avals, bvals, probe)
        }
        _ => go(DynSemi, bin, op, wide, chain, acc0, crd, avals, bvals, probe),
    }
}

/// The dot-axpy drive window (bundled to keep signatures readable).
struct DotAxpyArgs<'a> {
    k: f64,
    k_first: bool,
    crd: &'a [usize],
    avals: &'a [f64],
    xs: &'a [f64],
    xb: usize,
    xst: usize,
    ooff: usize,
    ob_base: usize,
    ost: usize,
}

/// The symmetric dot + axpy pair over a compressed driver window at
/// lane width `L`: the dot side lanes by window position (element `p`
/// → lane `p % L`); the axpy side keeps its per-element stores in
/// original order (the scattered cells are distinct — driver
/// coordinates are strictly increasing — so store order carries no FP
/// dependency anyway).
fn dot_axpy_crd<S: Semi, const L: usize>(
    s: S,
    dot: &FFold,
    axpy: &FFold,
    acc0: f64,
    args: &DotAxpyArgs<'_>,
    data: &mut [f64],
) -> f64 {
    let mut lanes = lane_seed::<L>(dot.op, acc0);
    let n = args.crd.len().min(args.avals.len());
    let split = if L == 1 { 0 } else { n / L * L };
    // One element: the dot fold into `acc`, then the axpy store.
    let mut step = |acc: f64, c: usize, a: f64| {
        let acc = s.red(dot.op, acc, s.bin(dot.bin, a, args.xs[args.xb + c * args.xst]));
        let v = if args.k_first { s.bin(axpy.bin, args.k, a) } else { s.bin(axpy.bin, a, args.k) };
        let cell = &mut data[args.ooff + c * args.ost - args.ob_base];
        *cell = s.red(axpy.op, *cell, v);
        acc
    };
    // Chunked so `lanes[k]` is a compile-time index (register-resident
    // accumulators); element `base + k` lands in lane `k`, the same
    // position-pure `p % L` assignment as the tail loop.
    let mut base = 0;
    while base < split {
        let c8: &[usize; L] = args.crd[base..base + L].try_into().expect("exact chunk");
        let a8: &[f64; L] = args.avals[base..base + L].try_into().expect("exact chunk");
        for k in 0..L {
            lanes[k] = step(lanes[k], c8[k], a8[k]);
        }
        base += L;
    }
    for (k, (&c, &a)) in args.crd[split..n].iter().zip(&args.avals[split..n]).enumerate() {
        lanes[k % L] = step(lanes[k % L], c, a);
    }
    lane_merge(s, dot.op, acc0, &lanes)
}

/// Selects the lane width of the dot + axpy pair (see [`lanes_pay`]);
/// the semiring is already chosen at the call site.
fn dot_axpy_dispatch<S: Semi>(
    s: S,
    dot: &FFold,
    axpy: &FFold,
    lanes: bool,
    acc0: f64,
    args: &DotAxpyArgs<'_>,
    data: &mut [f64],
) -> f64 {
    if lanes_pay(lanes, dot.op, args.crd.len()) {
        dot_axpy_crd::<S, LANES>(s, dot, axpy, acc0, args, data)
    } else {
        dot_axpy_crd::<S, 1>(s, dot, axpy, acc0, args, data)
    }
}

/// The run-length dot + axpy window: the compressed-driver bundle's
/// scalars plus the clamped run layout.
struct DotAxpyRleArgs<'a> {
    k: f64,
    k_first: bool,
    rle: RleArgs<'a>,
    xs: &'a [f64],
    xb: usize,
    xst: usize,
    ooff: usize,
    ob_base: usize,
    ost: usize,
}

/// The symmetric dot + axpy pair over a run-length driver at lane width
/// `L`: both sides share the run's constant driver value, so the axpy
/// contribution (`a ∘ k`) hoists out of the inner loop entirely. The
/// dot side lanes exactly like [`dot_rle`] (offset `d` from each
/// clamped run's start → lane `d % L`, run value broadcast); the axpy
/// side stays elementwise in original order — with a unit-stride output
/// a chunk's stores are a contiguous read-modify-write of one hoisted
/// constant, the shape the autovectorizer turns into straight vector
/// ops.
fn dot_axpy_rle<S: Semi, const L: usize>(
    s: S,
    dot: &FFold,
    axpy: &FFold,
    acc0: f64,
    args: &DotAxpyRleArgs<'_>,
    data: &mut [f64],
) -> (f64, usize) {
    let r = &args.rle;
    let mut lanes = lane_seed::<L>(dot.op, acc0);
    let mut last = r.lo;
    for run in r.start..r.stop {
        let c_lo = r.run_start[run].max(r.lo);
        if c_lo > r.hi {
            break;
        }
        let c_hi = r.run_end[run].min(r.hi);
        let a = r.vals[run];
        let v = if args.k_first { s.bin(axpy.bin, args.k, a) } else { s.bin(axpy.bin, a, args.k) };
        let split = if L == 1 { c_lo } else { c_lo + (c_hi + 1 - c_lo) / L * L };
        let mut c = c_lo;
        while c < split {
            let xa: [f64; L] = if args.xst == 1 {
                *<&[f64; L]>::try_from(&args.xs[args.xb + c..args.xb + c + L]).expect("exact chunk")
            } else {
                std::array::from_fn(|k| args.xs[args.xb + (c + k) * args.xst])
            };
            lane_accumulate(s, dot.bin, dot.op, &mut lanes, [a; L], xa);
            if args.ost == 1 {
                let o = args.ooff + c - args.ob_base;
                let d8: &mut [f64; L] = (&mut data[o..o + L]).try_into().expect("exact chunk");
                for cell in d8 {
                    *cell = s.red(axpy.op, *cell, v);
                }
            } else {
                for k in 0..L {
                    let cell = &mut data[args.ooff + (c + k) * args.ost - args.ob_base];
                    *cell = s.red(axpy.op, *cell, v);
                }
            }
            c += L;
        }
        for (k, c) in (split..=c_hi).enumerate() {
            let l = k % L;
            lanes[l] = s.red(dot.op, lanes[l], s.bin(dot.bin, a, args.xs[args.xb + c * args.xst]));
            let cell = &mut data[args.ooff + c * args.ost - args.ob_base];
            *cell = s.red(axpy.op, *cell, v);
        }
        last = c_hi;
    }
    (lane_merge(s, dot.op, acc0, &lanes), last)
}

/// Selects the lane width of the run-length dot + axpy pair (the
/// semiring is already chosen at the call site); the run extent gates
/// the cutover exactly like [`dot_rle_dispatch`].
fn dot_axpy_rle_dispatch<S: Semi>(
    s: S,
    dot: &FFold,
    axpy: &FFold,
    lanes: bool,
    acc0: f64,
    args: &DotAxpyRleArgs<'_>,
    data: &mut [f64],
) -> (f64, usize) {
    if lanes_pay(lanes, dot.op, args.rle.extent()) {
        dot_axpy_rle::<S, LANES>(s, dot, axpy, acc0, args, data)
    } else {
        dot_axpy_rle::<S, 1>(s, dot, axpy, acc0, args, data)
    }
}

#[inline]
fn clamp_bounds(u: &[usize], lo: &[Bound], hi: &[Bound], hi_start: i64) -> (i64, i64) {
    let mut lo_v = 0i64;
    for b in lo {
        lo_v = lo_v.max(u[b.reg] as i64 + b.delta);
    }
    let mut hi_v = hi_start;
    for b in hi {
        hi_v = hi_v.min(u[b.reg] as i64 + b.delta);
    }
    (lo_v, hi_v)
}

/// Per-loop fiber cache: the loop head resolves the driver's packed
/// arrays once; the advance instruction reads them straight back.
#[derive(Clone, Copy, Default)]
enum Fiber<'a> {
    #[default]
    None,
    Crd(&'a [usize]),
    Runs(&'a [usize], &'a [usize]),
}

/// Runs the whole program once over the given state, with the top-level
/// split heads (if `chunk` is set) clamped to the chunk's coordinate
/// window. Counters accumulate into `counters` (not reset here, so one
/// worker can fold multiple chunks into one bank).
#[allow(clippy::too_many_arguments)]
fn run_range<'a>(
    program: &BytecodeProgram,
    dense: &[&'a [f64]],
    vals: &[&'a [f64]],
    levels: &[Option<LevelView<'a>>],
    outs: &mut [Option<OutBind<'_>>],
    u: &mut Vec<usize>,
    f: &mut Vec<f64>,
    vec_pass: &mut Vec<bool>,
    vec_bases: &mut Vec<usize>,
    gathers: &mut GatherBank,
    counters: &mut CounterBank,
    chunk: Option<Chunk<'_>>,
    lanes: bool,
) {
    // Reset register files and vector-loop scratch (reusing capacity).
    u.clear();
    u.extend_from_slice(&program.u_init);
    f.clear();
    f.resize(program.n_f, 0.0);
    vec_pass.clear();
    vec_pass.resize(program.n_vec_items, false);
    vec_bases.clear();
    vec_bases.resize(program.n_vec_bases, 0);
    gathers.reset(program.n_vec_gathers);
    let u = u.as_mut_slice();
    let f = f.as_mut_slice();
    let vec_pass = vec_pass.as_mut_slice();
    let vec_bases = vec_bases.as_mut_slice();
    let mut fibers_t: Scratch<Fiber<'a>, MAX_CACHES> = Scratch::new(program.n_caches);
    let fibers = fibers_t.as_mut_slice();
    let lvl_base = program.level_base.as_slice();
    let oo = program.out_ordinal.as_slice();

    let mut missing = false;
    let reads = &mut counters.reads;
    let mut flops = 0u64;
    let mut writes = 0u64;
    let mut iterations = 0u64;
    // Per-kind vector-loop dispatch tally, indexed by
    // `telemetry::BodyKind::index`. Kept as plain locals on the hot
    // path and flushed to the global registry once per chunk, so
    // parallel workers never contend on a shared counter cache line.
    let mut dispatch = [0u64; telemetry::BODY_KINDS.len()];

    /// Builds the per-loop [`VecRun`] over this function's binding
    /// tables and scratch (one point of truth for the field set; the
    /// free identifiers resolve to the locals above).
    macro_rules! vec_run {
        ($items:expr, $idx:expr) => {
            VecRun {
                items: $items,
                idx: $idx,
                pass: vec_pass,
                bases: vec_bases,
                gathers: &mut *gathers,
                u: &mut *u,
                f: &mut *f,
                dense,
                vals,
                levels,
                lvl_base,
                outs: &mut *outs,
                oo,
                reads: &mut reads[..],
                flops: 0,
                writes: 0,
                miss: false,
            }
        };
    }

    /// Builds the per-loop [`FusedRun`] over the same tables.
    macro_rules! fused_run {
        () => {
            FusedRun {
                u: &mut *u,
                f: &mut *f,
                gathers: &mut *gathers,
                dense,
                vals,
                levels,
                lvl_base,
                outs: &mut *outs,
                oo,
                reads: &mut reads[..],
                flops: 0,
                writes: 0,
                lanes,
            }
        };
    }

    let instrs = &program.instrs;
    let mut pc = 0usize;
    loop {
        match &instrs[pc] {
            Instr::Jump { to } => {
                pc = *to;
            }
            Instr::DenseLoopHead { idx, cur, end, extent, lo, hi, exit } => {
                let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, *extent as i64 - 1);
                clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                if lo_v > hi_v {
                    pc = *exit;
                } else {
                    u[*cur] = lo_v as usize;
                    u[*end] = hi_v as usize;
                    u[*idx] = lo_v as usize;
                    iterations += 1;
                    pc += 1;
                }
            }
            Instr::DenseLoopNext { idx, cur, end, back } => {
                let c = u[*cur] + 1;
                if c <= u[*end] {
                    u[*cur] = c;
                    u[*idx] = c;
                    iterations += 1;
                    pc = *back;
                } else {
                    pc += 1;
                }
            }
            Instr::SparseLoopHead {
                tensor,
                level: lv,
                cache,
                idx,
                parent,
                child,
                cur,
                end,
                lo,
                hi,
                exit,
            } => {
                let p = u[*parent];
                if p == MISS {
                    pc = *exit;
                    continue;
                }
                let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, i64::MAX);
                clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                let LevelView::Sparse { pos, crd, .. } = level(levels, lvl_base, *tensor, *lv)
                else {
                    unreachable!("sparse loop over a non-sparse level");
                };
                let begin = pos[p];
                let stop = pos[p + 1];
                let slice = &crd[begin..stop];
                let start = begin + slice.partition_point(|&c| (c as i64) < lo_v);
                let stop = begin + slice.partition_point(|&c| (c as i64) <= hi_v);
                if start >= stop {
                    pc = *exit;
                } else {
                    fibers[*cache] = Fiber::Crd(crd);
                    u[*cur] = start;
                    u[*end] = stop;
                    u[*idx] = crd[start];
                    u[*child] = start;
                    iterations += 1;
                    pc += 1;
                }
            }
            Instr::SparseLoopNext { cache, idx, child, cur, end, back } => {
                let c = u[*cur] + 1;
                if c < u[*end] {
                    let Fiber::Crd(crd) = fibers[*cache] else {
                        unreachable!("sparse advance before its head");
                    };
                    u[*cur] = c;
                    u[*idx] = crd[c];
                    u[*child] = c;
                    iterations += 1;
                    pc = *back;
                } else {
                    pc += 1;
                }
            }
            Instr::RleLoopHead {
                tensor,
                level: lv,
                cache,
                idx,
                parent,
                child,
                run,
                run_end: run_end_reg,
                coord,
                hi_reg,
                lo,
                hi,
                exit,
            } => {
                let p = u[*parent];
                if p == MISS {
                    pc = *exit;
                    continue;
                }
                let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, i64::MAX);
                clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                if lo_v > hi_v {
                    pc = *exit;
                    continue;
                }
                let LevelView::RunLength { pos, run_start, run_end, .. } =
                    level(levels, lvl_base, *tensor, *lv)
                else {
                    unreachable!("rle loop over a non-rle level");
                };
                let begin = pos[p];
                let stop = pos[p + 1];
                let start = begin + run_end[begin..stop].partition_point(|&c| (c as i64) < lo_v);
                if start >= stop {
                    pc = *exit;
                    continue;
                }
                let c0 = run_start[start].max(lo_v as usize);
                // 0 <= lo_v <= hi_v holds here, so the cast is exact.
                let hi_u = hi_v as usize;
                if c0 > hi_u {
                    pc = *exit;
                    continue;
                }
                fibers[*cache] = Fiber::Runs(run_start, run_end);
                u[*run] = start;
                u[*run_end_reg] = stop;
                u[*coord] = c0;
                u[*hi_reg] = hi_u;
                u[*idx] = c0;
                u[*child] = start;
                iterations += 1;
                pc += 1;
            }
            Instr::RleLoopNext {
                cache,
                idx,
                child,
                run,
                run_end: run_end_reg,
                coord,
                hi_reg,
                back,
            } => {
                let Fiber::Runs(run_start, run_end) = fibers[*cache] else {
                    unreachable!("rle advance before its head");
                };
                let mut r = u[*run];
                let mut c = u[*coord];
                if c >= run_end[r] {
                    r += 1;
                    if r >= u[*run_end_reg] {
                        pc += 1;
                        continue;
                    }
                    c = run_start[r];
                } else {
                    c += 1;
                }
                if c > u[*hi_reg] {
                    pc += 1;
                } else {
                    u[*run] = r;
                    u[*coord] = c;
                    u[*idx] = c;
                    u[*child] = r;
                    iterations += 1;
                    pc = *back;
                }
            }
            Instr::Probe { tensor, level: lv, parent, child, idx } => {
                let p = u[*parent];
                u[*child] = if p == MISS {
                    MISS
                } else {
                    level(levels, lvl_base, *tensor, *lv).find(p, u[*idx]).unwrap_or(MISS)
                };
                pc += 1;
            }
            Instr::JumpIfCmp { op, a, b, to } => {
                pc = if op.eval(u[*a], u[*b]) { *to } else { pc + 1 };
            }
            Instr::JumpIfNotCmp { op, a, b, to } => {
                pc = if op.eval(u[*a], u[*b]) { pc + 1 } else { *to };
            }
            Instr::Const { dst, val } => {
                f[*dst] = *val;
                pc += 1;
            }
            Instr::Copy { dst, src } => {
                f[*dst] = f[*src];
                pc += 1;
            }
            Instr::Bin { op, dst, a, b } => {
                f[*dst] = op.apply(f[*a], f[*b]);
                flops += 1;
                pc += 1;
            }
            Instr::ReadDense { dst, tensor, terms } => {
                f[*dst] = dense[*tensor][offset(u, terms)];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadOutput { dst, tensor, terms } => {
                let ob = outs[oo[*tensor]].as_ref().expect("output bound");
                f[*dst] = ob.data[offset(u, terms) - ob.base];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadSparsePath { dst, tensor, leaf, annihilator } => {
                let leaf_pos = u[*leaf];
                if leaf_pos == MISS {
                    if *annihilator {
                        missing = true;
                    }
                    f[*dst] = 0.0;
                } else {
                    f[*dst] = vals[*tensor][leaf_pos];
                    reads[*tensor] += 1;
                }
                pc += 1;
            }
            Instr::ReadSparseDirect { dst, tensor, leaf } => {
                f[*dst] = vals[*tensor][u[*leaf]];
                reads[*tensor] += 1;
                pc += 1;
            }
            Instr::ReadSparseRandom { dst, tensor, modes, annihilator } => {
                let mut p = 0usize;
                let mut found = true;
                for (lv, &m) in modes.iter().enumerate() {
                    match level(levels, lvl_base, *tensor, lv).find(p, u[m]) {
                        Some(next) => p = next,
                        None => {
                            found = false;
                            break;
                        }
                    }
                }
                if found {
                    f[*dst] = vals[*tensor][p];
                    reads[*tensor] += 1;
                } else {
                    if *annihilator {
                        missing = true;
                    }
                    f[*dst] = 0.0;
                }
                pc += 1;
            }
            Instr::CmpVal { dst, op, a, b } => {
                f[*dst] = if op.eval(u[*a], u[*b]) { 1.0 } else { 0.0 };
                pc += 1;
            }
            Instr::LookupTable { dst, table, src } => {
                let i = f[*src] as usize;
                f[*dst] = program.tables[*table].get(i).copied().unwrap_or(0.0);
                pc += 1;
            }
            Instr::ClearMiss => {
                missing = false;
                pc += 1;
            }
            Instr::JumpIfMiss { to } => {
                pc = if missing { *to } else { pc + 1 };
            }
            Instr::JumpIfUMiss { reg, to } => {
                pc = if u[*reg] == MISS { *to } else { pc + 1 };
            }
            Instr::WriteOutput { tensor, terms, op, src } => {
                let off = offset(u, terms);
                let ob = outs[oo[*tensor]].as_mut().expect("output bound");
                let cell = &mut ob.data[off - ob.base];
                *cell = op.apply(*cell, f[*src]);
                writes += 1;
                if *op != AssignOp::Overwrite {
                    flops += 1;
                }
                pc += 1;
            }
            Instr::WriteScalar { slot, op, src } => {
                f[*slot] = op.apply(f[*slot], f[*src]);
                if *op != AssignOp::Overwrite {
                    flops += 1;
                }
                pc += 1;
            }
            Instr::FusedWriteOutput { tensor, terms, bin, op, a, b, check_miss } => {
                let v = bin.apply(f[*a], f[*b]);
                flops += 1;
                if !(*check_miss && missing) {
                    let off = offset(u, terms);
                    let ob = outs[oo[*tensor]].as_mut().expect("output bound");
                    let cell = &mut ob.data[off - ob.base];
                    *cell = op.apply(*cell, v);
                    writes += 1;
                    if *op != AssignOp::Overwrite {
                        flops += 1;
                    }
                }
                pc += 1;
            }
            Instr::FusedWriteScalar { slot, bin, op, a, b, check_miss } => {
                let v = bin.apply(f[*a], f[*b]);
                flops += 1;
                if !(*check_miss && missing) {
                    f[*slot] = op.apply(f[*slot], v);
                    if *op != AssignOp::Overwrite {
                        flops += 1;
                    }
                }
                pc += 1;
            }
            Instr::FoldWriteOutput { tensor, terms, bin, op, srcs, check_miss } => {
                let (first, rest) = srcs.split_first().expect("folds have operands");
                let mut v = f[*first];
                for s in rest {
                    v = bin.apply(v, f[*s]);
                }
                flops += rest.len() as u64;
                if !(*check_miss && missing) {
                    let off = offset(u, terms);
                    let ob = outs[oo[*tensor]].as_mut().expect("output bound");
                    let cell = &mut ob.data[off - ob.base];
                    *cell = op.apply(*cell, v);
                    writes += 1;
                    if *op != AssignOp::Overwrite {
                        flops += 1;
                    }
                }
                pc += 1;
            }
            Instr::FoldWriteScalar { slot, bin, op, srcs, check_miss } => {
                let (first, rest) = srcs.split_first().expect("folds have operands");
                let mut v = f[*first];
                for s in rest {
                    v = bin.apply(v, f[*s]);
                }
                flops += rest.len() as u64;
                if !(*check_miss && missing) {
                    f[*slot] = op.apply(f[*slot], v);
                    if *op != AssignOp::Overwrite {
                        flops += 1;
                    }
                }
                pc += 1;
            }
            Instr::InitScalar { slot, val } => {
                f[*slot] = *val;
                pc += 1;
            }
            Instr::VecDenseLoop { idx, extent, lo, hi, items } => {
                let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, *extent as i64 - 1);
                clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                if lo_v <= hi_v {
                    let iters = (hi_v - lo_v + 1) as u64;
                    iterations += iters;
                    let n_pass = eval_guards(items, u, vec_pass);
                    if let Some(fu) = fused_single(items, vec_pass, n_pass) {
                        dispatch[body_kind(fu.kind).index()] += 1;
                        let mut fr = fused_run!();
                        let drive = FDrive::Range { lo: lo_v as usize, hi: hi_v as usize };
                        fr.run(fu, drive, *idx, iters);
                        flops += fr.flops;
                        writes += fr.writes;
                    } else if n_pass > 0 {
                        dispatch[telemetry::BodyKind::Steps.index()] += 1;
                        vec_prepare(
                            items,
                            u,
                            iters,
                            vec_pass,
                            vec_bases,
                            reads,
                            &mut flops,
                            &mut writes,
                        );
                        let mut vr = vec_run!(items, *idx);
                        vr.init_gathers();
                        for j in lo_v as usize..=hi_v as usize {
                            vr.exec_coord(j, None, None);
                        }
                        flops += vr.flops;
                        writes += vr.writes;
                    } else {
                        u[*idx] = hi_v as usize;
                    }
                }
                pc += 1;
            }
            Instr::VecSparseLoop { tensor, level: lv, idx, parent, lo, hi, items } => {
                let p = u[*parent];
                if p != MISS {
                    let LevelView::Sparse { pos, crd, .. } = level(levels, lvl_base, *tensor, *lv)
                    else {
                        unreachable!("vector sparse loop over a non-sparse level");
                    };
                    let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, i64::MAX);
                    clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                    let begin = pos[p];
                    let fiber_end = pos[p + 1];
                    let slice = &crd[begin..fiber_end];
                    let start = begin + slice.partition_point(|&c| (c as i64) < lo_v);
                    let stop = begin + slice.partition_point(|&c| (c as i64) <= hi_v);
                    if start < stop {
                        let iters = (stop - start) as u64;
                        iterations += iters;
                        let tvals = vals[*tensor];
                        let n_pass = eval_guards(items, u, vec_pass);
                        if let Some(fu) = fused_single(items, vec_pass, n_pass) {
                            dispatch[body_kind(fu.kind).index()] += 1;
                            let mut fr = fused_run!();
                            let drive = FDrive::Crd { vals: tvals, crd, start, stop };
                            fr.run(fu, drive, *idx, iters);
                            flops += fr.flops;
                            writes += fr.writes;
                        } else if n_pass > 0 {
                            dispatch[telemetry::BodyKind::Steps.index()] += 1;
                            vec_prepare(
                                items,
                                u,
                                iters,
                                vec_pass,
                                vec_bases,
                                reads,
                                &mut flops,
                                &mut writes,
                            );
                            let mut vr = vec_run!(items, *idx);
                            vr.init_gathers();
                            for (posn, &coord) in crd.iter().enumerate().take(stop).skip(start) {
                                vr.exec_coord(coord, Some((tvals, posn)), None);
                            }
                            flops += vr.flops;
                            writes += vr.writes;
                        } else {
                            u[*idx] = crd[stop - 1];
                        }
                    }
                }
                pc += 1;
            }
            Instr::VecRleLoop { tensor, level: lv, idx, parent, lo, hi, items } => {
                let p = u[*parent];
                if p != MISS {
                    let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, i64::MAX);
                    clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                    if lo_v <= hi_v {
                        let LevelView::RunLength { pos, run_start, run_end, .. } =
                            level(levels, lvl_base, *tensor, *lv)
                        else {
                            unreachable!("vector rle loop over a non-rle level");
                        };
                        let begin = pos[p];
                        let stop = pos[p + 1];
                        let start =
                            begin + run_end[begin..stop].partition_point(|&c| (c as i64) < lo_v);
                        let (lo_u, hi_u) = (lo_v as usize, hi_v as usize);
                        // Pass 1: the covered coordinate count, so the
                        // bulk accounting matches the general walk.
                        let mut iters = 0u64;
                        for r in start..stop {
                            let c_lo = run_start[r].max(lo_u);
                            if c_lo > hi_u {
                                break;
                            }
                            iters += (run_end[r].min(hi_u) - c_lo + 1) as u64;
                        }
                        if iters > 0 {
                            iterations += iters;
                            let tvals = vals[*tensor];
                            let n_pass = eval_guards(items, u, vec_pass);
                            if let Some(fu) = fused_single(items, vec_pass, n_pass) {
                                dispatch[body_kind(fu.kind).index()] += 1;
                                let mut fr = fused_run!();
                                let drive = FDrive::Rle {
                                    vals: tvals,
                                    run_start,
                                    run_end,
                                    start,
                                    stop,
                                    lo: lo_u,
                                    hi: hi_u,
                                };
                                fr.run(fu, drive, *idx, iters);
                                flops += fr.flops;
                                writes += fr.writes;
                            } else if n_pass > 0 {
                                dispatch[telemetry::BodyKind::Steps.index()] += 1;
                                vec_prepare(
                                    items,
                                    u,
                                    iters,
                                    vec_pass,
                                    vec_bases,
                                    reads,
                                    &mut flops,
                                    &mut writes,
                                );
                                let mut vr = vec_run!(items, *idx);
                                vr.init_gathers();
                                // Pass 2: expand each run into strided
                                // body applications at its constant
                                // value slot.
                                for r in start..stop {
                                    let c_lo = run_start[r].max(lo_u);
                                    if c_lo > hi_u {
                                        break;
                                    }
                                    let c_hi = run_end[r].min(hi_u);
                                    for c in c_lo..=c_hi {
                                        vr.exec_coord(c, Some((tvals, r)), None);
                                    }
                                }
                                flops += vr.flops;
                                writes += vr.writes;
                            } else {
                                let mut last = lo_u;
                                for r in start..stop {
                                    if run_start[r].max(lo_u) > hi_u {
                                        break;
                                    }
                                    last = run_end[r].min(hi_u);
                                }
                                u[*idx] = last;
                            }
                        }
                    }
                }
                pc += 1;
            }
            Instr::VecIsectLoop {
                tensor,
                level: lv,
                idx,
                parent,
                probe_tensor,
                probe_level,
                probe_parent,
                lo,
                hi,
                items,
            } => {
                let p = u[*parent];
                if p != MISS {
                    let LevelView::Sparse { pos, crd, .. } = level(levels, lvl_base, *tensor, *lv)
                    else {
                        unreachable!("vector intersection loop over a non-sparse level");
                    };
                    let (mut lo_v, mut hi_v) = clamp_bounds(u, lo, hi, i64::MAX);
                    clamp_to_chunk(chunk, pc, &mut lo_v, &mut hi_v);
                    let begin = pos[p];
                    let fiber_end = pos[p + 1];
                    let slice = &crd[begin..fiber_end];
                    let start = begin + slice.partition_point(|&c| (c as i64) < lo_v);
                    let stop = begin + slice.partition_point(|&c| (c as i64) <= hi_v);
                    if start < stop {
                        let iters = (stop - start) as u64;
                        iterations += iters;
                        let n_pass = eval_guards(items, u, vec_pass);
                        let fused = fused_single(items, vec_pass, n_pass);
                        if let Some(fu) = fused {
                            dispatch[body_kind(fu.kind).index()] += 1;
                        } else if n_pass > 0 {
                            dispatch[telemetry::BodyKind::Steps.index()] += 1;
                        }
                        if n_pass > 0 && fused.is_none() {
                            vec_prepare(
                                items,
                                u,
                                iters,
                                vec_pass,
                                vec_bases,
                                reads,
                                &mut flops,
                                &mut writes,
                            );
                        }
                        // The probed fiber as a forward-only cursor —
                        // empty when its own path prefix is unstored
                        // (every probe misses, but the driver still
                        // iterates, as in the interpreter). All three
                        // level formats probe through the same cursor.
                        let pb = u[*probe_parent];
                        let (bvals, probe_cur) = if pb == MISS {
                            (&[][..], ProbeCur::Empty)
                        } else {
                            let bv = vals[*probe_tensor];
                            match level(levels, lvl_base, *probe_tensor, *probe_level) {
                                LevelView::Sparse { pos, crd, .. } => {
                                    (bv, ProbeCur::Crd { crd, cur: pos[pb], end: pos[pb + 1] })
                                }
                                LevelView::Dense { size } => {
                                    (bv, ProbeCur::Dense { base: pb * size, size })
                                }
                                LevelView::RunLength { pos, run_start, run_end, .. } => (
                                    bv,
                                    ProbeCur::Runs {
                                        run_start,
                                        run_end,
                                        cur: pos[pb],
                                        end: pos[pb + 1],
                                    },
                                ),
                            }
                        };
                        let tvals = vals[*tensor];
                        if let Some(fu) = fused {
                            if let Some((slot, bin, op, pt)) = fu.isect_dot {
                                // The dominant shape, pre-analyzed at
                                // compile time: no entry-time shape
                                // resolution at all (this loop is
                                // entered per (i, j) pair).
                                for &(t, n) in fu.bulk.reads.iter() {
                                    reads[t] += n * iters;
                                }
                                flops += fu.bulk.flops * iters;
                                let (cw, aw) = (&crd[start..stop], &tvals[start..stop]);
                                let acc0 = f[slot];
                                let lanes = lanes && fu.lanes > 1;
                                let (acc, hits) = isect_dot_dispatch(
                                    bin,
                                    op,
                                    lanes,
                                    Chain::PLAIN,
                                    acc0,
                                    cw,
                                    aw,
                                    bvals,
                                    probe_cur,
                                );
                                f[slot] = acc;
                                u[*idx] = crd[stop - 1];
                                reads[pt] += hits;
                                if op != AssignOp::Overwrite {
                                    flops += hits;
                                }
                            } else {
                                let mut fr = fused_run!();
                                let drive = FDrive::Isect {
                                    vals: tvals,
                                    crd,
                                    start,
                                    stop,
                                    bvals,
                                    probe: probe_cur,
                                };
                                fr.run(fu, drive, *idx, iters);
                                flops += fr.flops;
                                writes += fr.writes;
                            }
                        } else if n_pass > 0 {
                            let mut vr = vec_run!(items, *idx);
                            vr.init_gathers();
                            // Forward-only merge: both sides are sorted,
                            // so the probe cursor never revisits — one
                            // gallop / run-walk per step instead of the
                            // general path's full-fiber binary search.
                            let mut probe = probe_cur;
                            for (posa, &c) in crd.iter().enumerate().take(stop).skip(start) {
                                let pmatch = probe.find(c);
                                vr.exec_coord(c, Some((tvals, posa)), Some((bvals, pmatch)));
                            }
                            flops += vr.flops;
                            writes += vr.writes;
                        } else {
                            u[*idx] = crd[stop - 1];
                        }
                    }
                }
                pc += 1;
            }
            Instr::Halt => break,
        }
    }

    counters.flops += flops;
    counters.writes += writes;
    counters.iterations += iterations;

    if telemetry::enabled() {
        let metrics = telemetry::global();
        for (kind, n) in telemetry::BODY_KINDS.iter().zip(dispatch) {
            if n > 0 {
                metrics.fused(*kind).add(n);
            }
        }
    }
}

pub(crate) fn execute(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    parallelism: Parallelism,
    out_counters: &mut Counters,
) -> Result<(), ExecError> {
    execute_inner(program, inputs, outputs, ctx, parallelism, out_counters, None)
}

/// Serial execution of one coordinate chunk `k` of `n`: the split heads
/// are clamped to `[k*extent/n, (k+1)*extent/n)` and every output is
/// bound at its full buffer — owned outputs receive only their window
/// rows, reduced outputs accumulate the chunk's partial on top of the
/// caller-provided initial values. The caller must have verified the
/// plan is splittable (`program.split.is_some()`).
pub(crate) fn execute_chunk(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    out_counters: &mut Counters,
    k: usize,
    n: usize,
) -> Result<(), ExecError> {
    execute_inner(program, inputs, outputs, ctx, Parallelism::Serial, out_counters, Some((k, n)))
}

#[allow(clippy::too_many_arguments)]
fn execute_inner(
    program: &BytecodeProgram,
    inputs: &HashMap<String, Tensor>,
    outputs: &mut HashMap<String, DenseTensor>,
    ctx: &mut ExecContext,
    parallelism: Parallelism,
    out_counters: &mut Counters,
    shard: Option<(usize, usize)>,
) -> Result<(), ExecError> {
    // Run-phase telemetry: one clock read on entry, one on success.
    // When telemetry is off the clock is never touched.
    let run_start = telemetry::enabled().then(std::time::Instant::now);
    // Bind tensor slots, validating that shapes still match the plan.
    // The tables live on the stack (inline for typical plan sizes) so
    // the steady-state path never allocates.
    let n_slots = program.tensors.len();
    let mut dense_t: Scratch<&[f64], MAX_SLOTS> = Scratch::new(n_slots);
    let dense = dense_t.as_mut_slice();
    let mut vals_t: Scratch<&[f64], MAX_SLOTS> = Scratch::new(n_slots);
    let vals = vals_t.as_mut_slice();
    let mut levels_t: Scratch<Option<LevelView>, MAX_LEVELS> = Scratch::new(program.n_levels);
    let levels = levels_t.as_mut_slice();
    for (slot, info) in program.tensors.iter().enumerate() {
        match info.kind {
            SlotKind::DenseInput => match inputs.get(&info.name) {
                Some(Tensor::Dense(t)) => {
                    check_dims(&info.name, &info.dims, t.dims())?;
                    dense[slot] = t.as_slice();
                }
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::SparseInput => match inputs.get(&info.name) {
                Some(Tensor::Sparse(t)) => {
                    check_dims(&info.name, &info.dims, t.dims())?;
                    for k in 0..t.rank() {
                        levels[program.level_base[slot] + k] = Some(t.level_view(k));
                    }
                    vals[slot] = t.values();
                }
                _ => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
            SlotKind::Output => match outputs.get(&info.name) {
                Some(t) => check_dims(&info.name, &info.dims, t.dims())?,
                None => return Err(ExecError::UnknownTensor { name: info.name.clone() }),
            },
        }
    }
    // Borrow every output mutably in place (one pass over the map — the
    // iterator hands out disjoint `&mut`s, so no tensors move).
    let mut outs_t: OutTable<'_, MAX_OUTS> = OutTable::new(program.n_outputs);
    let outs = outs_t.as_mut_slice();
    for (name, tensor) in outputs.iter_mut() {
        if let Some(slot) = program
            .tensors
            .iter()
            .position(|info| info.kind == SlotKind::Output && info.name == *name)
        {
            outs[program.out_ordinal[slot]] =
                Some(OutBind { data: tensor.as_mut_slice(), base: 0 });
        }
    }

    // Decide the execution shape: chunked workers when the plan is
    // splittable and more than one thread was requested, serial
    // otherwise (including degenerate domains). A shard-chunk run is
    // always serial — the caller is the unit of parallelism.
    let plan = match (parallelism, &program.split) {
        (Parallelism::Threads(n), Some(split)) if n >= 2 && shard.is_none() => {
            let max_extent = split.heads.iter().map(|&(_, e)| e).max().unwrap_or(0);
            let n_chunks = max_extent.min(n * CHUNKS_PER_WORKER);
            let threads = n.min(n_chunks);
            (threads >= 2).then_some((split, n_chunks, threads))
        }
        _ => None,
    };

    let lanes = ctx.lane_mode() == LaneMode::Lanes;
    match plan {
        None => {
            let chunk = match (&program.split, shard) {
                (Some(split), Some((k, n))) => Some(Chunk { heads: &split.heads, k, n }),
                _ => None,
            };
            let bank = &mut ctx.banks(1)[0];
            bank.counters.reset(n_slots);
            let Bank { u, f, vec_pass, vec_bases, gathers, counters, .. } = bank;
            run_range(
                program, dense, vals, levels, outs, u, f, vec_pass, vec_bases, gathers, counters,
                chunk, lanes,
            );
            bank.counters.write_to(program.tensors.iter().map(|t| t.name.as_str()), out_counters);
        }
        Some((split, n_chunks, threads)) => {
            run_parallel(
                program,
                dense,
                vals,
                levels,
                outs,
                ctx,
                split,
                n_chunks,
                threads,
                out_counters,
                lanes,
            );
        }
    }
    if let Some(start) = run_start {
        let metrics = telemetry::global();
        metrics.vm_runs.inc();
        metrics.vm_run_ns.add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(())
}

/// Row-stride of an output slot (product of its trailing dims).
fn row_stride(dims: &[usize]) -> usize {
    dims[1..].iter().product()
}

/// Chunked execution over a worker pool of scoped threads. Chunks are
/// dealt round-robin (`chunk k → worker k % threads`); every worker
/// processes its chunks in increasing order, so the merge order — and
/// therefore every output bit and counter — is a deterministic function
/// of (plan, data, thread count).
#[allow(clippy::too_many_arguments)]
fn run_parallel<'a>(
    program: &BytecodeProgram,
    dense: &[&'a [f64]],
    vals: &[&'a [f64]],
    levels: &[Option<LevelView<'a>>],
    outs: &mut [Option<OutBind<'_>>],
    ctx: &mut ExecContext,
    split: &SplitInfo,
    n_chunks: usize,
    threads: usize,
    out_counters: &mut Counters,
    lanes: bool,
) {
    let n_slots = program.tensors.len();
    let oo = program.out_ordinal.as_slice();

    // Distribute the outputs: owned outputs split at chunk row
    // boundaries; reduced outputs keep their main slice here and hand
    // each worker a private buffer instead.
    let mut chunk_owned: Vec<Vec<(usize, OutBind<'_>)>> =
        (0..n_chunks).map(|_| Vec::new()).collect();
    let mut reduced_meta: Vec<(usize, AssignOp, usize)> = Vec::new();
    let mut reduced_mains: Vec<&mut [f64]> = Vec::new();
    for &(slot, mode) in &split.outputs {
        let bind = outs[oo[slot]].take().expect("output bound");
        match mode {
            ParOut::Owned => {
                let extent = split.owned_extent.expect("owned outputs pin a common extent");
                let stride = row_stride(&program.tensors[slot].dims);
                let mut rest = bind.data;
                let mut consumed = 0usize;
                for (k, owned) in chunk_owned.iter_mut().enumerate() {
                    let end = ((k + 1) * extent / n_chunks) * stride;
                    let (piece, tail) = rest.split_at_mut(end - consumed);
                    owned.push((slot, OutBind { data: piece, base: consumed }));
                    consumed = end;
                    rest = tail;
                }
            }
            ParOut::Reduced(op) => {
                reduced_meta.push((slot, op, bind.data.len()));
                reduced_mains.push(bind.data);
            }
        }
    }

    // Deal chunks to workers round-robin.
    type WorkerChunks<'o> = Vec<(usize, Vec<(usize, OutBind<'o>)>)>;
    let mut worker_chunks: Vec<WorkerChunks<'_>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, owned) in chunk_owned.into_iter().enumerate() {
        worker_chunks[k % threads].push((k, owned));
    }

    let banks = ctx.banks(threads);
    let heads = split.heads.as_slice();
    let reduced_meta_ref = &reduced_meta;
    rayon::scope(|s| {
        // One batched submission for the whole fan-out: a k-worker
        // dispatch costs one pool lock and one wakeup round instead of
        // k of each (the spawn traffic dominated sub-200µs kernels).
        s.spawn_batch(banks.iter_mut().zip(worker_chunks).map(|(bank, chunks)| {
            move |_: &rayon::Scope<'_, '_>| {
                bank.counters.reset(n_slots);
                for (r, &(_, op, len)) in reduced_meta_ref.iter().enumerate() {
                    let identity = op.identity().expect("reduced outputs use reducing ops");
                    bank.reset_reduce(r, len, identity);
                }
                let Bank { u, f, vec_pass, vec_bases, gathers, counters, reduce } = bank;
                for (k, owned) in chunks {
                    let mut outs_t: OutTable<'_, MAX_OUTS> = OutTable::new(program.n_outputs);
                    let w_outs = outs_t.as_mut_slice();
                    for (slot, ob) in owned {
                        w_outs[oo[slot]] = Some(ob);
                    }
                    for (buf, &(slot, _, _)) in reduce.iter_mut().zip(reduced_meta_ref) {
                        w_outs[oo[slot]] = Some(OutBind { data: buf, base: 0 });
                    }
                    let chunk = Chunk { heads, k, n: n_chunks };
                    run_range(
                        program,
                        dense,
                        vals,
                        levels,
                        w_outs,
                        u,
                        f,
                        vec_pass,
                        vec_bases,
                        gathers,
                        counters,
                        Some(chunk),
                        lanes,
                    );
                }
            }
        }));
    });

    // Merge in fixed worker order: integer counter sums match the
    // serial totals exactly; reduction buffers fold with their operator.
    let mut total = CounterBank::with_slots(n_slots);
    for bank in banks.iter() {
        total.merge(&bank.counters);
    }
    total.write_to(program.tensors.iter().map(|t| t.name.as_str()), out_counters);
    for (r, main) in reduced_mains.into_iter().enumerate() {
        let op = reduced_meta[r].1;
        for bank in banks.iter() {
            for (cell, v) in main.iter_mut().zip(&bank.reduce[r]) {
                *cell = op.apply(*cell, *v);
            }
        }
    }
}

fn check_dims(name: &str, expected: &[usize], got: &[usize]) -> Result<(), ExecError> {
    if expected == got {
        Ok(())
    } else {
        Err(ExecError::BindingShapeMismatch {
            name: name.to_string(),
            expected: expected.to_vec(),
            got: got.to_vec(),
        })
    }
}
