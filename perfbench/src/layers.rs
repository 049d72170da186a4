//! The traced run's layer walk: every cell's pipeline built by hand from
//! the public layer functions (`parse_einsum` → `Compiler::compile` →
//! `hoist_conditions` / `prepare_variants` / `lower` →
//! `CompiledKernel::compile` → `CompiledKernel::run_with`), each call
//! inside its layer's span, asserted equal to `Prepared` in outputs and
//! counters so the trace measures the same program.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use systec_codegen::{CompiledKernel, Parallelism};
use systec_core::Compiler;
use systec_exec::{alloc_outputs, hoist_conditions, lower, prepare_variants, ExecError};
use systec_ir::{parse_einsum, Stmt};
use systec_kernels::{Counters, ExecContext};
use systec_tensor::{DenseTensor, LevelView, Tensor};

use crate::cells::{cache_totals, same_outputs, Cell, Variant};
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::trace::{self_times, Tracer};

/// Timed repetitions of each call in the walk.
const REPS: usize = 11;
/// Repetitions of the exec layer (binding the derived inputs costs
/// ~1 µs per stored entry, so it gets fewer).
const EXEC_REPS: usize = 3;

/// The layers a span can belong to, in report order; `bench` spans are
/// the benchmark's own glue and report as `unattributed`.
const LAYERS: [&str; 8] = ["tensor", "ir", "core", "exec", "codegen", "vm", "kernels", "serve"];

/// Per-layer results of a traced run.
#[derive(Default)]
pub struct Layers {
    /// Generation time of one set-up, ms.
    generate_ms: f64,
    /// Packing time of one set-up, ms.
    pack_ms: f64,
    /// Per cell: median `parse_einsum` time, µs.
    parse_us: Vec<f64>,
    /// Per cell: median `Compiler::compile` time, µs.
    compile_us: Vec<f64>,
    /// Rendered main + replication program bytes per kernel.
    program_bytes: BTreeMap<&'static str, usize>,
    /// Per cell: median hoist + variants + lower time, µs.
    lower_us: Vec<f64>,
    /// Bytes of the derived inputs, summed over cells.
    variant_bytes: usize,
    /// Per cell: median `CompiledKernel::compile` time, µs.
    codegen_us: Vec<f64>,
    /// Bytecode instructions per kernel.
    instrs: BTreeMap<&'static str, usize>,
    /// Vector-loop instructions per kernel.
    vec_loops: BTreeMap<&'static str, usize>,
    /// Per cell: median `run_with` time, µs.
    vm_us: Vec<f64>,
    /// Per cell: ns per innermost iteration.
    ns_per_iter: Vec<f64>,
    /// Per cell: innermost iterations per row.
    iters_per_row: Vec<f64>,
    /// Per cell with a native kernel: VM time over native time.
    over_native: Vec<f64>,
    /// Per cell: `run_timed_into` minus `run_with` medians, µs.
    wrap_us: Vec<f64>,
    /// Per cell: naive over SySTeC reads of `A`.
    read_ratio: Vec<f64>,
    /// Per cell: naive over SySTeC flops.
    flop_ratio: Vec<f64>,
    /// Median cold prepare, µs.
    prepare_cold_us: f64,
    /// Median warm prepare, µs.
    prepare_warm_us: f64,
    /// Plan-cache hits over lookups during the run.
    cache_hit_ratio: f64,
    /// Serving layer, from the probe or the closed loop.
    pub serve: ServeLayers,
    /// Traced minus untraced time of the measured loop, % of untraced.
    overhead_pct: f64,
}

/// Serving-layer per-layer values.
#[derive(Default)]
pub struct ServeLayers {
    /// Median `Request::decode` of the run lines, µs.
    pub decode_us: f64,
    /// Median `Response::encode` of the replies, µs.
    pub encode_us: f64,
    /// Median `Engine::handle` of a run (no socket, no scheduler), µs.
    pub engine_us: f64,
    /// Median client round trip minus engine, decode and encode, µs.
    pub wire_us: f64,
    /// Median round trip through the shipped `Client` minus the
    /// single-write client's, µs.
    pub client_stall_us: f64,
    /// Mean run reply length, bytes.
    pub reply_bytes: f64,
    /// Batched runs over dispatches.
    pub coalesce_ratio: f64,
    /// Kernel handles in the engine's table at the end.
    pub handles: f64,
}

fn tensor_bytes(t: &Tensor) -> usize {
    match t {
        Tensor::Dense(d) => d.as_slice().len() * 8,
        Tensor::Sparse(s) => {
            let levels: usize = (0..s.rank())
                .map(|k| match s.level_view(k) {
                    LevelView::Sparse { pos, crd, .. } => (pos.len() + crd.len()) * 8,
                    _ => 0,
                })
                .sum();
            levels + s.values().len() * 8
        }
    }
}

fn timed<T>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = Instant::now();
    let out = tracer.span(layer, name, f);
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

/// One variant's hand-built pipeline.
struct Built {
    program_bytes: usize,
    variant_bytes: usize,
    inputs: HashMap<String, Tensor>,
    outputs: HashMap<String, DenseTensor>,
    main: CompiledKernel,
    rep_len: usize,
}

fn build(cell: &Cell, v: Variant, tracer: &mut Tracer, l: &mut Layers) -> Result<Built, ExecError> {
    let text = cell.input.def.einsum.to_string();
    let mut parse = Vec::new();
    let mut einsum = None;
    for _ in 0..REPS {
        let (e, dt) = timed(tracer, "ir", "parse_einsum", || parse_einsum(&text));
        einsum = Some(e.map_err(|e| ExecError::InvalidKernel { message: e.to_string() })?);
        parse.push(dt);
    }
    let einsum = einsum.expect("REPS > 0");
    let symmetry = &cell.input.def.symmetry;
    let mut core = Vec::new();
    let mut program: Option<(Stmt, Option<Stmt>)> = None;
    for _ in 0..REPS {
        let (p, dt) = timed(tracer, "core", "compile", || match v {
            Variant::Systec => Compiler::new()
                .compile(&einsum, symmetry)
                .map(|k| (k.main, k.replication))
                .map_err(|e| ExecError::InvalidKernel { message: e.to_string() }),
            Variant::Naive => Ok((Compiler::new().naive(&einsum), None)),
        });
        program = Some(p?);
        core.push(dt);
    }
    let (main, rep) = program.expect("REPS > 0");
    let program_bytes = main.to_string().len() + rep.as_ref().map_or(0, |r| r.to_string().len());
    let base = &cell.input.inputs;
    let mut lowering = Vec::new();
    let mut lowered = None;
    for _ in 0..EXEC_REPS {
        let (r, dt) = timed(tracer, "exec", "hoist_variants_lower", || {
            let main = hoist_conditions(main.clone());
            let rep = rep.clone().map(hoist_conditions);
            let variants = prepare_variants(&main, base)?;
            let variant_bytes: usize = variants.values().map(tensor_bytes).sum();
            let mut all = base.clone();
            all.extend(variants);
            let mut outputs = alloc_outputs(&main, &all)?;
            if let Some(extra) = rep.as_ref().and_then(|r| alloc_outputs(r, &all).ok()) {
                for (name, t) in extra {
                    outputs.entry(name).or_insert(t);
                }
            }
            let lm = lower(&main, &all, &outputs)?;
            let lr = rep.as_ref().map(|r| lower(r, &all, &outputs)).transpose()?;
            Ok::<_, ExecError>((lm, lr, all, outputs, variant_bytes))
        });
        lowered = Some(r?);
        lowering.push(dt);
    }
    let (lm, lr, inputs, mut outputs, variant_bytes) = lowered.expect("REPS > 0");
    let mut codegen = Vec::new();
    let mut compiled = None;
    for _ in 0..REPS {
        let (c, dt) = timed(tracer, "codegen", "compile", || {
            let main = CompiledKernel::compile(&lm, &inputs, &outputs)?;
            let rep =
                lr.as_ref().map(|r| CompiledKernel::compile(r, &inputs, &outputs)).transpose()?;
            Ok::<_, ExecError>((main, rep.map_or(0, |r| r.len())))
        });
        compiled = Some(c?);
        codegen.push(dt);
    }
    let (main_ck, rep_len) = compiled.expect("REPS > 0");
    if let Some((name, value)) = &cell.input.init {
        outputs.insert((*name).to_string(), value.clone());
    }
    if v == Variant::Systec {
        l.parse_us.push(median(&parse));
        l.compile_us.push(median(&core));
        l.lower_us.push(median(&lowering));
        l.codegen_us.push(median(&codegen));
    }
    Ok(Built { program_bytes, variant_bytes, inputs, outputs, main: main_ck, rep_len })
}

/// Walks every cell's hand-built pipeline for both variants, timing the
/// VM against `Prepared::run_timed_into` interleaved, and records the
/// per-layer values; a pipeline that differs from `Prepared` fails the
/// run.
pub fn walk(cells: &[Cell], tracer: &mut Tracer, l: &mut Layers, out: &mut Outcome) {
    for cell in cells {
        let name = cell.input.def.name;
        for v in [Variant::Systec, Variant::Naive] {
            tracer.next_request();
            let built = match build(cell, v, tracer, l) {
                Ok(b) => b,
                Err(e) => {
                    out.fail(format!(
                        "{} {v:?}: hand-built pipeline failed: {e}",
                        cell.input.label
                    ));
                    continue;
                }
            };
            let state = &cell.state[v as usize];
            let mut outputs = built.outputs.clone();
            let mut ctx = ExecContext::new();
            let mut counters = Counters::new();
            let mut p_outputs = HashMap::new();
            let mut p_ctx = ExecContext::new();
            let mut p_counters = Counters::new();
            let prepared = cell.prepared(v);
            let (mut vm, mut wrapped) = (Vec::new(), Vec::new());
            let mut same = true;
            for _ in 0..REPS {
                for (name, init) in &built.outputs {
                    if let Some(o) = outputs.get_mut(name) {
                        o.as_mut_slice().copy_from_slice(init.as_slice());
                    }
                }
                let (r, dt) = timed(tracer, "vm", "run_with", || {
                    built.main.run_with(
                        &built.inputs,
                        &mut outputs,
                        &mut ctx,
                        Parallelism::Serial,
                        &mut counters,
                    )
                });
                vm.push(dt);
                same &= r.is_ok()
                    && same_outputs(&outputs, &state.expect)
                    && counters == state.expect_counters;
                let (r, dt) = timed(tracer, "kernels", "run_timed_into", || {
                    prepared.run_timed_into(&mut p_outputs, &mut p_ctx, &mut p_counters)
                });
                wrapped.push(dt);
                same &= r.is_ok() && same_outputs(&p_outputs, &state.expect);
            }
            out.tally(same, || {
                format!("{} {v:?}: hand-built pipeline differs from Prepared", cell.input.label)
            });
            if v == Variant::Naive {
                continue;
            }
            l.program_bytes.insert(name, built.program_bytes);
            l.variant_bytes += built.variant_bytes;
            l.instrs.insert(name, built.main.len() + built.rep_len);
            let vec_loops = built
                .main
                .disassemble()
                .lines()
                .filter(|line| line.split_once(": ").is_some_and(|(_, i)| i.starts_with("Vec")))
                .count();
            l.vec_loops.insert(name, vec_loops);
            let vm_us = median(&vm);
            l.vm_us.push(vm_us);
            l.wrap_us.push(median(&wrapped) - vm_us);
            let iters = state.expect_counters.iterations.max(1) as f64;
            l.ns_per_iter.push(vm_us * 1e3 / iters);
            l.iters_per_row.push(iters / cell.input.rows().max(1) as f64);
            let native: Vec<f64> =
                (0..REPS).filter_map(|_| cell.native_ns()).map(|ns| ns as f64 / 1e3).collect();
            if !native.is_empty() {
                l.over_native.push(vm_us / median(&native));
            }
            let (reads, flops) = cell.ratios();
            l.read_ratio.push(reads);
            l.flop_ratio.push(flops);
        }
    }
}

impl Layers {
    /// Starts a traced run's record from its set-up's generation and
    /// packing costs (ns), its cold prepares (ns) and warm prepares (µs).
    pub fn new((generate_ns, pack_ns): (u64, u64), cold_ns: &[u64], warm_us: &[f64]) -> Layers {
        Layers {
            generate_ms: generate_ns as f64 / 1e6,
            pack_ms: pack_ns as f64 / 1e6,
            prepare_cold_us: median(&cold_ns.iter().map(|&v| v as f64 / 1e3).collect::<Vec<_>>()),
            prepare_warm_us: median(warm_us),
            ..Layers::default()
        }
    }

    /// Ends a traced run: the plan-cache hit ratio over the whole run,
    /// the tracing overhead (traced minus untraced wall time of the same
    /// loop, % of untraced), the root span; then emits every metric.
    pub fn finish(
        mut self,
        mut tracer: Tracer,
        root: usize,
        traced_s: f64,
        untraced_s: f64,
        out: &mut Outcome,
    ) {
        let (hits, misses) = cache_totals();
        self.cache_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
        self.overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0;
        tracer.close_span(root);
        self.emit(&tracer, out);
    }

    /// Emits every per-layer metric, the self time per layer and the
    /// tracing overhead.
    fn emit(&self, tracer: &Tracer, out: &mut Outcome) {
        let g = |name: &str, unit: &'static str, v: &[f64]| Metric::geomean(name, unit, v, v.len());
        let sum = |m: &BTreeMap<&'static str, usize>| m.values().sum::<usize>() as f64;
        out.push(Metric::scalar("tensor.generate_ms", "ms", self.generate_ms));
        out.push(Metric::scalar("tensor.pack_ms", "ms", self.pack_ms));
        out.push(g("ir.parse_us", "us", &self.parse_us));
        out.push(g("core.compile_us", "us", &self.compile_us));
        out.push(Metric::scalar("core.program_bytes", "bytes", sum(&self.program_bytes)));
        out.push(g("exec.lower_us", "us", &self.lower_us));
        out.push(Metric::scalar("exec.variant_bytes", "bytes", self.variant_bytes as f64));
        out.push(g("codegen.compile_us", "us", &self.codegen_us));
        out.push(Metric::scalar("codegen.instrs", "count", sum(&self.instrs)));
        out.push(Metric::scalar("codegen.vec_loops", "count", sum(&self.vec_loops)));
        out.push(g("vm.run_us", "us", &self.vm_us));
        out.push(g("vm.ns_per_iter", "ns", &self.ns_per_iter));
        out.push(g("vm.iters_per_row", "count", &self.iters_per_row));
        out.push(g("vm.over_native", "x", &self.over_native));
        let wrap = if self.wrap_us.is_empty() { f64::NAN } else { median(&self.wrap_us) };
        out.push(Metric::over("kernels.wrap_us", "us", wrap, &self.wrap_us, self.wrap_us.len()));
        out.push(g("kernels.read_ratio", "x", &self.read_ratio));
        out.push(g("kernels.flop_ratio", "x", &self.flop_ratio));
        out.push(Metric::scalar("kernels.prepare_cold_us", "us", self.prepare_cold_us));
        out.push(Metric::scalar("kernels.prepare_warm_us", "us", self.prepare_warm_us));
        out.push(Metric::scalar("kernels.cache_hit_ratio", "ratio", self.cache_hit_ratio));
        let s = &self.serve;
        out.push(Metric::scalar("serve.decode_us", "us", s.decode_us));
        out.push(Metric::scalar("serve.encode_us", "us", s.encode_us));
        out.push(Metric::scalar("serve.engine_us", "us", s.engine_us));
        out.push(Metric::scalar("serve.wire_us", "us", s.wire_us));
        out.push(Metric::scalar("serve.client_stall_us", "us", s.client_stall_us));
        out.push(Metric::scalar("serve.reply_bytes", "bytes", s.reply_bytes));
        out.push(Metric::scalar("serve.coalesce_ratio", "ratio", s.coalesce_ratio));
        out.push(Metric::scalar("serve.handles", "count", s.handles));
        let selfs = self_times(tracer.spans());
        let total: u64 = selfs.values().sum();
        for layer in LAYERS {
            let ms = selfs.get(layer).copied().unwrap_or(0) as f64 / 1e6;
            out.self_ms.insert(layer.to_string(), ms);
            out.push(Metric::scalar(&format!("self.{layer}_ms"), "ms", ms));
        }
        let unattributed = selfs.get("bench").copied().unwrap_or(0) as f64 / 1e6;
        out.self_ms.insert("unattributed".into(), unattributed);
        out.push(Metric::scalar("self.unattributed_ms", "ms", unattributed));
        out.note("traced_total_ms", total as f64 / 1e6);
        out.push(Metric::scalar("trace.overhead_pct", "%", self.overhead_pct));
    }
}
