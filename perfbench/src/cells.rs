//! Kernel cells: one kernel on one seeded input, prepared as SySTeC and
//! as naive, with warm per-variant run state, expected outputs and the
//! independent oracles every workload checks against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use systec_exec::reference::reference_einsum;
use systec_exec::ExecError;
use systec_ir::{AssignOp, Index};
use systec_kernels::{
    clear_plan_cache, defs, native, plan_cache_stats, Backend, Counters, ExecContext, KernelDef,
    Prepared,
};
use systec_tensor::generate::{banded_sprand, random_dense, rng, sprand, symmetric_erdos_renyi};
use systec_tensor::suite::{table2, MatrixSpec};
use systec_tensor::{CooTensor, DenseTensor, Tensor};

use crate::trace::Tracer;

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Clears the plan cache, first folding its statistics into the running
/// totals [`cache_totals`] reports (clearing resets them).
pub fn clear_cache() {
    let s = plan_cache_stats();
    HITS.fetch_add(s.hits, Ordering::Relaxed);
    MISSES.fetch_add(s.misses, Ordering::Relaxed);
    clear_plan_cache();
}

/// Plan-cache hits and misses since the process started.
pub fn cache_totals() -> (u64, u64) {
    let s = plan_cache_stats();
    (HITS.load(Ordering::Relaxed) + s.hits, MISSES.load(Ordering::Relaxed) + s.misses)
}

/// Table 2 members are generated at `1/SPMV_SCALE` of their size: the
/// matrices then run from ~20 KiB (sherman3) to ~2.6 MiB (ct20stif),
/// across the 2 MiB per-core L2.
pub const SPMV_SCALE: usize = 32;

/// The Table 2 members `paper-spmv` draws: ~4 to ~70 nonzeros per row
/// and working sets from well under to above L2. Nine of thirty keep a
/// set-up (whose cost grows with nonzeros) to about a second.
const SPMV_MEMBERS: [&str; 9] = [
    "sherman3", "bayer02", "gemat11", "memplus", "finan512", "lhr10", "goodwin", "crystk02",
    "ct20stif",
];

/// Largest index space the dense reference evaluator is asked to walk.
const REFERENCE_LIMIT: f64 = 2.0e6;

/// Relative tolerance of every oracle comparison (lane-mode reductions
/// reassociate, so outputs are not bitwise equal to the references).
const TOLERANCE: f64 = 1e-9;

/// One kernel on one packed input.
pub struct CellInput {
    /// `kernel/input` label.
    pub label: String,
    /// The kernel.
    pub def: KernelDef,
    /// Packed inputs.
    pub inputs: HashMap<String, Tensor>,
    /// Initial output value (Bellman-Ford starts `y` at `d`).
    pub init: Option<(&'static str, DenseTensor)>,
}

impl CellInput {
    /// Rows of `A` (mode 0), the denominator of `vm.iters_per_row`.
    pub fn rows(&self) -> usize {
        let a = self.inputs.get("A").expect("every paper kernel reads A");
        a.dims()[0]
    }

    /// The extent of every einsum index, read off the inputs' dims.
    fn extents(&self) -> HashMap<Index, usize> {
        let mut extents = HashMap::new();
        for access in self.def.einsum.rhs.accesses() {
            let dims = self.inputs[&access.tensor.display_name()].dims();
            for (index, &d) in access.indices.iter().zip(dims) {
                extents.insert(index.clone(), d);
            }
        }
        extents
    }

    /// Einsum index space size (the dense reference's cost).
    fn index_space(&self) -> f64 {
        self.extents().values().map(|&d| d as f64).product()
    }

    /// Elements of the einsum's output (what a run reply carries).
    pub fn output_len(&self) -> usize {
        let extents = self.extents();
        self.def.einsum.output.indices.iter().map(|i| extents[i]).product()
    }
}

/// Generation and packing costs, recorded as `tensor` spans.
pub struct Gen<'a> {
    /// The span recorder.
    pub tracer: &'a mut Tracer,
    /// Time spent generating coordinates and dense data, ns.
    pub generate_ns: u64,
    /// Time spent packing into the kernels' formats, ns.
    pub pack_ns: u64,
}

impl<'a> Gen<'a> {
    /// A recorder with zeroed costs.
    pub fn new(tracer: &'a mut Tracer) -> Gen<'a> {
        Gen { tracer, generate_ns: 0, pack_ns: 0 }
    }

    fn generate<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = self.tracer.span("tensor", "generate", f);
        self.generate_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    fn pack(
        &mut self,
        def: &KernelDef,
        data: Vec<(&'static str, Tensorish)>,
    ) -> HashMap<String, Tensor> {
        let t0 = Instant::now();
        let out = self.tracer.span("tensor", "pack", || {
            let mut all = HashMap::new();
            for (name, value) in data {
                let packed = match value {
                    Tensorish::Coo(c) => def.inputs([(name, c.into())]),
                    Tensorish::Dense(d) => def.inputs([(name, d.into())]),
                }
                .expect("generated inputs pack into the kernel's formats");
                all.extend(packed);
            }
            all
        });
        self.pack_ns += t0.elapsed().as_nanos() as u64;
        out
    }
}

/// Raw data before packing.
enum Tensorish {
    Coo(CooTensor),
    Dense(DenseTensor),
}

/// A seed per named input, so each member's draw is independent of the
/// order members are generated in.
fn sub_seed(seed: u64, name: &str) -> u64 {
    let h = name
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3));
    h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A Table 2 member's stand-in pattern (banded + scattered, as
/// [`MatrixSpec::generate`]) drawn from `seed`, symmetrized as `A + Aᵀ`.
fn member_matrix(spec: &MatrixSpec, seed: u64) -> CooTensor {
    let mut r = rng(sub_seed(seed, spec.name));
    let avg_row = (spec.nnz / spec.dim).max(1);
    let bandwidth = (avg_row * 2).clamp(2, spec.dim.saturating_sub(1).max(2));
    banded_sprand(spec.dim, spec.nnz, bandwidth, 0.7, &mut r)
        .symmetrized()
        .expect("suite matrices are square")
}

fn vector_for(def: &KernelDef) -> &'static str {
    if def.formats.contains_key("d") {
        "d"
    } else {
        "x"
    }
}

/// The three matrix-vector kernels on one symmetric matrix.
fn matvec_cells(
    g: &mut Gen,
    tag: &str,
    a: &CooTensor,
    v: &DenseTensor,
    kernels: &[KernelDef],
    out: &mut Vec<CellInput>,
) {
    for def in kernels {
        let vname = vector_for(def);
        let inputs = g.pack(
            def,
            vec![("A", Tensorish::Coo(a.clone())), (vname, Tensorish::Dense(v.clone()))],
        );
        let init = (vname == "d").then(|| ("y", v.clone()));
        out.push(CellInput {
            label: format!("{}/{tag}", def.name),
            def: def.clone(),
            inputs,
            init,
        });
    }
}

/// `paper-spmv`: SSYMV, Bellman-Ford and SYPRD on the
/// [`SPMV_MEMBERS`] of Table 2 at `1/SPMV_SCALE` size, patterns and
/// values drawn from `seed`.
pub fn spmv_inputs(seed: u64, g: &mut Gen) -> Vec<CellInput> {
    let kernels = [defs::ssymv(), defs::bellman_ford(), defs::syprd()];
    let mut out = Vec::new();
    for spec in table2().into_iter().filter(|s| SPMV_MEMBERS.contains(&s.name)) {
        let spec = spec.scaled_down(SPMV_SCALE);
        let (a, v) = g.generate(|| {
            let a = member_matrix(&spec, seed);
            let mut r = rng(sub_seed(seed, "x") ^ spec.dim as u64);
            (a, random_dense(vec![spec.dim], &mut r))
        });
        matvec_cells(g, spec.name, &a, &v, &kernels, &mut out);
    }
    out
}

/// `paper-tensor`: SSYRK, TTM and MTTKRP-3/4/5 at the fixed sizes of
/// the Fig 9–11 generators, over a density × rank grid; the tensors at
/// each grid point are drawn from `seed`.
pub fn tensor_inputs(seed: u64, g: &mut Gen) -> Vec<CellInput> {
    let mut out = Vec::new();
    let mut r = rng(sub_seed(seed, "paper-tensor"));
    let ssyrk = defs::ssyrk();
    // Three densities, so the grid has an odd number of cells (19) and
    // pooled medians fall inside one cell's distribution.
    for per_row in [3usize, 6, 10] {
        let n = 128;
        let a = g.generate(|| banded_sprand(n, n * per_row, 2 * per_row, 0.7, &mut r));
        let inputs = g.pack(&ssyrk, vec![("A", Tensorish::Coo(a))]);
        out.push(CellInput {
            label: format!("ssyrk/n{n}-r{per_row}"),
            def: ssyrk.clone(),
            inputs,
            init: None,
        });
    }
    // (kernel, n, densities); ranks 16 and 64 keep the fused inner loops
    // long.
    let grid: [(KernelDef, usize, [f64; 2]); 4] = [
        (defs::ttm(), 32, [1e-2, 3e-2]),
        (defs::mttkrp(3), 32, [4e-3, 2e-2]),
        (defs::mttkrp(4), 16, [5e-4, 3e-3]),
        (defs::mttkrp(5), 11, [1e-4, 3e-4]),
    ];
    for (def, n, densities) in grid {
        let order = def.einsum.rhs.accesses()[0].rank();
        for p in densities {
            let a = g.generate(|| symmetric_erdos_renyi(n, order, p, &mut r));
            for rank in [16usize, 64] {
                let b = g.generate(|| random_dense(vec![n, rank], &mut r));
                let inputs = g
                    .pack(&def, vec![("A", Tensorish::Coo(a.clone())), ("B", Tensorish::Dense(b))]);
                out.push(CellInput {
                    label: format!("{}/p{p:.0e}-r{rank}", def.name),
                    def: def.clone(),
                    inputs,
                    init: None,
                });
            }
        }
    }
    out
}

/// `compile-cold`: every shipped kernel plus `ttm_partial`, at two small
/// shapes each (small enough for the dense reference).
pub fn compile_inputs(seed: u64, g: &mut Gen) -> Vec<CellInput> {
    let mut out = Vec::new();
    let mut r = rng(sub_seed(seed, "compile-cold"));
    for shape in 0..2 {
        let n = [40, 72][shape];
        let a = g.generate(|| symmetric_erdos_renyi(n, 2, 0.1, &mut r));
        let v = g.generate(|| random_dense(vec![n], &mut r));
        let tag = format!("n{n}");
        matvec_cells(
            g,
            &tag,
            &a,
            &v,
            &[defs::ssymv(), defs::bellman_ford(), defs::syprd()],
            &mut out,
        );
        let n = [32, 56][shape];
        let a = g.generate(|| sprand(n, n, n * 6, &mut r));
        let ssyrk = defs::ssyrk();
        let inputs = g.pack(&ssyrk, vec![("A", Tensorish::Coo(a))]);
        out.push(CellInput { label: format!("ssyrk/n{n}"), def: ssyrk, inputs, init: None });
        let tensors: [(KernelDef, usize, f64, usize); 5] = [
            (defs::ttm(), [10, 14][shape], 0.05, 8),
            (defs::ttm_partial(), [10, 14][shape], 0.05, 8),
            (defs::mttkrp(3), [14, 20][shape], 0.03, 8),
            (defs::mttkrp(4), [8, 11][shape], 0.01, 6),
            (defs::mttkrp(5), [6, 8][shape], 0.01, 4),
        ];
        for (def, n, p, rank) in tensors {
            let order = def.einsum.rhs.accesses()[0].rank();
            let a = g.generate(|| symmetric_erdos_renyi(n, order, p, &mut r));
            let b = g.generate(|| random_dense(vec![n, rank], &mut r));
            let inputs = g.pack(&def, vec![("A", Tensorish::Coo(a)), ("B", Tensorish::Dense(b))]);
            out.push(CellInput { label: format!("{}/n{n}", def.name), def, inputs, init: None });
        }
    }
    out
}

/// The symmetric matrix `serve-mixed` registers: a Table-2-like banded
/// pattern at a fixed small size, drawn from `seed`.
pub fn serve_matrix(seed: u64, g: &mut Gen) -> CooTensor {
    let spec = MatrixSpec { name: "serve", dim: 256, nnz: 768 };
    g.generate(|| member_matrix(&spec, seed))
}

/// The `serve-mixed` kernels on one matrix and vector, as cells.
pub fn serve_cells(g: &mut Gen, a: &CooTensor, x: &DenseTensor) -> Vec<CellInput> {
    let mut out = Vec::new();
    matvec_cells(g, "serve", a, x, &[defs::ssymv(), defs::syprd()], &mut out);
    out
}

/// Per-variant warm run state.
pub struct RunState {
    /// Output buffers reused across runs.
    pub outputs: HashMap<String, DenseTensor>,
    /// Warm execution context.
    pub ctx: ExecContext,
    /// Counters updated in place.
    pub counters: Counters,
    /// Outputs of the first (checked) timed run.
    pub expect: HashMap<String, DenseTensor>,
    /// Counters of the first timed run.
    pub expect_counters: Counters,
}

/// A prepared cell.
pub struct Cell {
    /// The input.
    pub input: CellInput,
    /// The SySTeC kernel.
    pub systec: Prepared,
    /// The naive kernel.
    pub naive: Prepared,
    /// Warm state, `[systec, naive]`.
    pub state: [RunState; 2],
    /// The oracle's full output, once [`Cell::verify`] ran.
    pub oracle: Option<DenseTensor>,
    /// Counters of a full (replicating) run per variant, once verified.
    pub full_counters: [Counters; 2],
}

/// Which variant of a cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// SySTeC.
    Systec = 0,
    /// Naive.
    Naive = 1,
}

/// Prepares one variant through the plan cache.
pub fn try_prepare(input: &CellInput, variant: Variant) -> Result<Prepared, ExecError> {
    let mut p = match variant {
        Variant::Systec => Prepared::compile(&input.def, &input.inputs),
        Variant::Naive => Prepared::naive(&input.def, &input.inputs),
    }?;
    if let Some((name, value)) = &input.init {
        p.init_output(name, value.clone());
    }
    Ok(p)
}

/// [`try_prepare`] during set-up, where a failure ends the run.
pub fn prepare(input: &CellInput, variant: Variant) -> Prepared {
    try_prepare(input, variant).expect("shipped kernels prepare against generated inputs")
}

/// Prepares both variants cold — the plan cache is cleared before each,
/// so every prepare compiles — and pushes the pair's latency (ns) to
/// `cold`. `warmups` timed-region runs per variant fill the warm state.
pub fn prepare_cell(
    input: CellInput,
    warmups: usize,
    tracer: &mut Tracer,
    cold: &mut Vec<u64>,
) -> Cell {
    let mut spent = 0;
    let mut one = |variant| {
        clear_cache();
        let t0 = Instant::now();
        let p = tracer.span("kernels", "prepare_cold", || prepare(&input, variant));
        spent += t0.elapsed().as_nanos() as u64;
        p
    };
    let systec = one(Variant::Systec);
    let naive = one(Variant::Naive);
    cold.push(spent);
    let state = [&systec, &naive].map(|p| {
        let mut outputs = HashMap::new();
        let mut ctx = ExecContext::new();
        let mut counters = Counters::new();
        for _ in 0..warmups.max(1) {
            tracer.span("kernels", "warmup", || {
                p.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("warm-up run")
            });
        }
        let expect = outputs.clone();
        let expect_counters = counters.clone();
        RunState { outputs, ctx, counters, expect, expect_counters }
    });
    Cell { input, systec, naive, state, oracle: None, full_counters: Default::default() }
}

impl Cell {
    /// The prepared kernel of a variant.
    pub fn prepared(&self, v: Variant) -> &Prepared {
        match v {
            Variant::Systec => &self.systec,
            Variant::Naive => &self.naive,
        }
    }

    /// One timed-region run on warm state: returns its wall time in ns
    /// and whether outputs and counters equal the checked first run
    /// bit for bit.
    pub fn run(&mut self, v: Variant, tracer: &mut Tracer) -> (u64, bool) {
        let prepared = match v {
            Variant::Systec => &self.systec,
            Variant::Naive => &self.naive,
        };
        let st = &mut self.state[v as usize];
        let t0 = Instant::now();
        let ok = tracer.span("kernels", "run_timed_into", || {
            prepared.run_timed_into(&mut st.outputs, &mut st.ctx, &mut st.counters).is_ok()
        });
        let dt = t0.elapsed().as_nanos() as u64;
        (dt, ok && same_outputs(&st.outputs, &st.expect) && st.counters == st.expect_counters)
    }

    /// Checks both variants against the oracles, independent of the VM
    /// under test, and the exact counter ratios; keeps the oracle output
    /// and full-run counters for later checks. Returns the failures.
    ///
    /// The output oracle is the dense reference where its index space is
    /// affordable, else the naive kernel on the interpreter. VM counters
    /// must equal the interpreter's exactly: always for the naive kernel
    /// on large cells (the oracle run yields them), and for both kernels
    /// on cells small enough to interpret twice more.
    pub fn verify(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        let label = self.input.label.clone();
        let out_name = self.input.def.einsum.output.tensor.display_name();
        let small = self.input.index_space() <= REFERENCE_LIMIT;
        let (oracle, naive_interp) = if small {
            (self.reference(), None)
        } else {
            let interp = prepare(&self.input, Variant::Naive).with_backend(Backend::Interpreter);
            let (mut outputs, counters) =
                interp.run_full().expect("interpreter runs the naive kernel");
            (
                outputs.remove(&out_name).expect("naive kernel writes the einsum output"),
                Some(counters),
            )
        };
        for v in [Variant::Systec, Variant::Naive] {
            let p = self.prepared(v).clone();
            match p.run_full() {
                Ok((outputs, counters)) => {
                    if let Some(msg) = compare(&outputs[&out_name], &oracle) {
                        failures.push(format!("{label} {v:?}: output {msg}"));
                    }
                    self.full_counters[v as usize] = counters;
                }
                Err(e) => failures.push(format!("{label} {v:?}: run failed: {e}")),
            }
            let timed = &self.state[v as usize].expect_counters;
            let interp = match (&naive_interp, v) {
                (Some(c), Variant::Naive) => Some(c.clone()),
                _ if small => {
                    p.clone().with_backend(Backend::Interpreter).run_timed().ok().map(|r| r.1)
                }
                _ => None,
            };
            if interp.as_ref().is_some_and(|c| c != timed) {
                failures.push(format!("{label} {v:?}: VM counters differ from the interpreter's"));
            }
        }
        if let Some(msg) = self.check_ratios() {
            failures.push(format!("{label}: {msg}"));
        }
        self.oracle = Some(oracle);
        failures
    }

    /// The dense reference output (with the initial value folded in for
    /// `min=` kernels that start from one).
    fn reference(&self) -> DenseTensor {
        let def = &self.input.def;
        let mut r = reference_einsum(&def.einsum, &self.input.inputs)
            .expect("reference evaluates shipped kernels");
        if let Some((_, init)) = &self.input.init {
            assert_eq!(def.einsum.op, AssignOp::Min, "only min= kernels carry an init");
            for (o, i) in r.as_mut_slice().iter_mut().zip(init.as_slice()) {
                *o = o.min(*i);
            }
        }
        r
    }

    /// The counter rules of `tests/counter_ratios.rs` that hold on any
    /// input: a kernel with a symmetric `A` reads exactly the canonical
    /// triangle (times the naive kernel's reads per entry); SSYMV keeps
    /// at least 0.9 of naive's flops, and the kernels whose symmetry
    /// saves work do no more semiring work than naive. The tests' tighter
    /// flop bounds depend on their inputs' diagonal share, so they are
    /// not applied to the generated inputs here.
    fn check_ratios(&self) -> Option<String> {
        let cs = &self.state[0].expect_counters;
        let cn = &self.state[1].expect_counters;
        let (rs, rn) = (cs.reads_of_family("A"), cn.reads_of_family("A"));
        let flops = cs.flops as f64 / cn.flops as f64;
        let name = self.input.def.name;
        let exact_reads = || -> Option<String> {
            let a = self.input.inputs["A"].to_coo();
            let nnz = a.nnz() as u64;
            let canonical =
                a.entries().filter(|(c, _)| c.windows(2).all(|w| w[0] <= w[1])).count() as u64;
            if nnz == 0 || rn % nnz != 0 {
                return Some(format!("naive reads {rn} not a multiple of nnz {nnz}"));
            }
            (rs != canonical * (rn / nnz))
                .then(|| format!("systec reads {rs} != canonical {canonical} x {}", rn / nnz))
        };
        match name {
            // SSYMV saves reads, not flops (the tests' >= 0.9).
            "ssymv" => exact_reads().or_else(|| {
                (flops < 0.9).then(|| format!("ssymv flop ratio {flops:.4} below 0.9"))
            }),
            // Bellman-Ford also saves reads only; its diagonal split can
            // add a few semiring operations.
            "bellman_ford" => exact_reads(),
            "syprd" | "ttm" | "mttkrp3" | "mttkrp4" | "mttkrp5" => exact_reads()
                .or_else(|| (flops > 1.0).then(|| format!("flop ratio {flops:.4} above 1"))),
            // SSYRK's A is not symmetric: the output symmetry halves the
            // iteration space, so reads and flops both drop below naive.
            "ssyrk" => {
                let reads = rs as f64 / rn as f64;
                (flops >= 1.0 || reads >= 1.0)
                    .then(|| format!("ssyrk flop ratio {flops:.4} / read ratio {reads:.4}"))
            }
            _ => (rs > rn).then(|| format!("systec reads {rs} exceed naive {rn}")),
        }
    }

    /// Naive over SySTeC element reads of `A` and flops, exact.
    pub fn ratios(&self) -> (f64, f64) {
        let cs = &self.state[0].expect_counters;
        let cn = &self.state[1].expect_counters;
        (
            cn.reads_of_family("A") as f64 / cs.reads_of_family("A") as f64,
            cn.flops as f64 / cs.flops as f64,
        )
    }

    /// Times the hand-written native kernel for this cell, if one exists
    /// (ns for one call).
    pub fn native_ns(&self) -> Option<u64> {
        let inputs = &self.input.inputs;
        let a = inputs["A"].as_sparse()?;
        let t0 = Instant::now();
        match self.input.def.name {
            "ssymv" => {
                std::hint::black_box(native::symmetric_csr_spmv(a, inputs["x"].as_dense()?));
            }
            "syprd" => {
                std::hint::black_box(native::csr_syprd(a, inputs["x"].as_dense()?));
            }
            "bellman_ford" => {
                let d = inputs["d"].as_dense()?;
                std::hint::black_box(native::csr_bellman_ford(a, d, d));
            }
            "ssyrk" => {
                std::hint::black_box(native::csr_ssyrk(a));
            }
            "mttkrp3" => {
                std::hint::black_box(native::csf_mttkrp3(a, inputs["B"].as_dense()?));
            }
            _ => return None,
        }
        Some(t0.elapsed().as_nanos() as u64)
    }
}

/// Bitwise equality of every expected output.
pub fn same_outputs(
    got: &HashMap<String, DenseTensor>,
    want: &HashMap<String, DenseTensor>,
) -> bool {
    want.iter().all(|(name, w)| {
        got.get(name).is_some_and(|g| {
            g.dims() == w.dims()
                && g.as_slice().iter().zip(w.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits())
        })
    })
}

/// `None` when `got` matches `want` within [`TOLERANCE`] relative to the
/// largest finite magnitude of `want`.
pub fn compare(got: &DenseTensor, want: &DenseTensor) -> Option<String> {
    if got.dims() != want.dims() {
        return Some(format!("shape {:?} != {:?}", got.dims(), want.dims()));
    }
    let scale =
        want.as_slice().iter().filter(|v| v.is_finite()).fold(1.0f64, |m, v| m.max(v.abs()));
    for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let ok = if w.is_finite() { (g - w).abs() <= TOLERANCE * scale } else { g == w };
        if !ok {
            return Some(format!("differs at {k}: {g} vs {w}"));
        }
    }
    None
}
