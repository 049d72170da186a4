//! The kernel workloads: `paper-spmv`, `paper-tensor` and `compile-cold`.
//!
//! Every run does a fixed amount of work (a number of rounds set by the
//! workload and `--seconds`), never a fixed wall time, so two commits
//! measure the same operations.

use std::time::Instant;

use crate::calib::{Parts, Speed};
use crate::cells::{
    clear_cache, compare, compile_inputs, prepare_cell, same_outputs, spmv_inputs, tensor_inputs,
    try_prepare, Cell, CellInput, Gen, Variant,
};
use crate::layers;
use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Warm prepares timed per run (at least 1000, so `update_p99_us` has
/// ten samples beyond it).
pub const UPDATE_SAMPLES: usize = 1000;

/// Cold-prepare samples per run (at least 100, so `compile_p90_ms` has
/// ten samples beyond it).
pub const COLD_SAMPLES: usize = 100;

/// The measured phases run in this many interleaved segments, so that
/// every metric samples the whole run: the reference VM's speed drifts
/// over seconds, and a phase run in one block would see one moment.
pub const SEGMENTS: usize = 10;

/// Which kernel workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// SSYMV, Bellman-Ford and SYPRD over Table 2 members.
    Spmv,
    /// SSYRK, TTM and MTTKRP-3/4/5 over a density × rank grid.
    Tensor,
    /// Cold prepares of every kernel at two shapes.
    Compile,
}

impl Kind {
    fn inputs(self, seed: u64, g: &mut Gen) -> Vec<CellInput> {
        match self {
            Kind::Spmv => spmv_inputs(seed, g),
            Kind::Tensor => tensor_inputs(seed, g),
            Kind::Compile => compile_inputs(seed, g),
        }
    }

    /// The machine-speed probe's parts: only `paper-spmv`'s data
    /// outgrows the per-core L2.
    fn probe_parts(self) -> Parts {
        match self {
            Kind::Spmv => Parts::All,
            Kind::Tensor | Kind::Compile => Parts::InCache,
        }
    }

    /// The cell groups one update re-prepares. On the paper workloads a
    /// group is one cell of the [`small_third`]: the p99 then lies in the
    /// body of the heaviest cells' times. On `compile-cold` each of those
    /// cells takes ~0.2 ms, so a single cell's p99 is set by other
    /// tenants' bursts (its spread over ten runs reached 27%); an update
    /// there re-binds the whole small third.
    fn update_groups(self, cells: &[Cell]) -> Vec<Vec<&Cell>> {
        match self {
            Kind::Spmv | Kind::Tensor => small_third_groups(cells),
            Kind::Compile => vec![small_third(cells)],
        }
    }

    /// Measured rounds per second of `--seconds`, calibrated so a run's
    /// measured phase takes about `--seconds` on a 2-core x86-64 VM.
    fn rounds_per_second(self) -> usize {
        match self {
            Kind::Spmv => 20,
            Kind::Tensor => 14,
            Kind::Compile => 15,
        }
    }
}

/// Timing samples the end-to-end metrics are computed from.
#[derive(Default)]
pub struct E2e {
    /// Wall time of each set-up repetition at reference speed, s.
    pub setup_s: Vec<f64>,
    /// Per cell: `[systec, naive]` run times at reference speed, µs.
    pub cells: Vec<[Vec<f64>; 2]>,
    /// Latency of every SySTeC run, µs.
    pub runs_us: Vec<f64>,
    /// Latency of every update (warm re-prepare, or register + prepare
    /// over the wire), µs.
    pub updates_us: Vec<f64>,
    /// Latency of every cold prepare, ms.
    pub compile_ms: Vec<f64>,
    /// Operations completed in the measured phases.
    pub ops: u64,
    /// Wall time of the measured phases, s (at reference speed where
    /// the operations are kernel-bound).
    pub wall_s: f64,
    /// Machine-speed probes of the measured phases.
    pub speed: Speed,
}

impl E2e {
    /// Appends one segment's per-cell run samples.
    pub fn add_cells(&mut self, segment: Vec<[Vec<f64>; 2]>) {
        if self.cells.is_empty() {
            self.cells = segment;
            return;
        }
        for (acc, [s, n]) in self.cells.iter_mut().zip(segment) {
            acc[0].extend(s);
            acc[1].extend(n);
        }
    }

    /// Emits the end-to-end metrics in `BENCHMARK.json` order.
    pub fn emit(&self, out: &mut Outcome) {
        let p50 = |v: &[f64]| percentile(&sorted(v), 50.0);
        let p90 = |v: &[f64]| percentile(&sorted(v), 90.0);
        let speedups: Vec<f64> = self.cells.iter().map(|[s, n]| p50(n) / p50(s)).collect();
        let samples: usize = self.cells.iter().map(|[s, n]| s.len() + n.len()).sum();
        let sys50: Vec<f64> = self.cells.iter().map(|[s, _]| p50(s)).collect();
        let sys90: Vec<f64> = self.cells.iter().map(|[s, _]| p90(s)).collect();
        let nai50: Vec<f64> = self.cells.iter().map(|[_, n]| p50(n)).collect();
        let per_cell = self.cells.iter().map(|[s, _]| s.len()).min().unwrap_or(0);
        out.note("cells", self.cells.len());
        out.note("samples_per_cell_variant", per_cell);
        out.note("speed_factor_median", self.speed.median_factor());
        out.note("speed_probes", self.speed.probes());
        out.push(Metric::geomean("speedup_geomean", "x", &speedups, samples));
        out.push(Metric::geomean("systec_p50_us_geomean", "us", &sys50, samples / 2));
        out.push(Metric::geomean("systec_p90_us_geomean", "us", &sys90, samples / 2));
        out.push(Metric::geomean("naive_p50_us_geomean", "us", &nai50, samples / 2));
        let mut rps = Metric::scalar("throughput_rps", "1/s", self.ops as f64 / self.wall_s);
        rps.samples = self.ops as usize;
        out.push(rps);
        out.push(Metric::percentile("run_p50_us", "us", &self.runs_us, 50.0));
        out.push(Metric::percentile("run_p99_us", "us", &self.runs_us, 99.0));
        out.push(Metric::percentile("update_p50_us", "us", &self.updates_us, 50.0));
        out.push(Metric::percentile("update_p99_us", "us", &self.updates_us, 99.0));
        out.push(Metric::percentile("compile_p50_ms", "ms", &self.compile_ms, 50.0));
        out.push(Metric::percentile("compile_p90_ms", "ms", &self.compile_ms, 90.0));
        let setup =
            Metric::over("setup_s", "s", median(&self.setup_s), &self.setup_s, self.setup_s.len());
        out.push(setup);
        out.push(Metric::scalar("peak_rss_mb", "MB", peak_rss_mb()));
    }
}

/// Builds and prepares every cell once: generation, packing, a cold
/// prepare of each variant and warm-up runs. Returns the cells and the
/// cold-prepare latencies (ns).
fn setup(kind: Kind, seed: u64, tracer: &mut Tracer) -> (Vec<Cell>, Vec<u64>, (u64, u64)) {
    let mut g = Gen::new(tracer);
    let inputs = kind.inputs(seed, &mut g);
    let costs = (g.generate_ns, g.pack_ns);
    let mut cold = Vec::new();
    let cells = inputs.into_iter().map(|i| prepare_cell(i, 3, tracer, &mut cold)).collect();
    (cells, cold, costs)
}

/// Repeats [`setup`] [`SETUP_REPS`] times (dropping the previous set
/// first), recording each repetition's wall time at reference speed;
/// keeps the last set.
fn repeated_setup(kind: Kind, seed: u64, tracer: &mut Tracer, e2e: &mut E2e) -> Vec<Cell> {
    let mut speed = Speed::new(kind.probe_parts());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let ((cells, _, _), s) = speed.time(|| setup(kind, seed, tracer));
        e2e.setup_s.push(s);
        last = Some(cells);
    }
    last.expect("at least one set-up repetition")
}

/// Verifies every cell against its oracle; failures count against the
/// run.
fn verify(cells: &mut [Cell], out: &mut Outcome) {
    for cell in cells.iter_mut() {
        for f in cell.verify() {
            out.fail(f);
        }
    }
}

/// Interleaved timed-region runs: each round runs every cell's SySTeC
/// and naive kernels back to back, alternating which goes first.
/// Returns per-cell `[systec, naive]` samples at reference speed, µs.
pub fn run_rounds(
    cells: &mut [Cell],
    rounds: usize,
    tracer: &mut Tracer,
    speed: &mut Speed,
    out: &mut Outcome,
) -> Vec<[Vec<f64>; 2]> {
    let mut samples: Vec<[Vec<f64>; 2]> =
        cells.iter().map(|_| [Vec::with_capacity(rounds), Vec::with_capacity(rounds)]).collect();
    for r in 0..rounds {
        tracer.next_request();
        let f = speed.tick_runs();
        for (ci, cell) in cells.iter_mut().enumerate() {
            let order = if (r + ci) % 2 == 0 {
                [Variant::Systec, Variant::Naive]
            } else {
                [Variant::Naive, Variant::Systec]
            };
            for v in order {
                let (dt, ok) = cell.run(v, tracer);
                samples[ci][v as usize].push(dt as f64 / 1e3 * f);
                out.tally(ok, || {
                    format!("{} {v:?} round {r}: output or counters differ", cell.input.label)
                });
            }
        }
    }
    samples
}

/// The third of the cells with the smallest shapes, an odd number of
/// them. Updates and cold prepares are timed on these: binding the data
/// costs ~1 µs per stored entry, so the large cells would dominate the
/// run and the samples would measure memory traffic, not prepare.
///
/// The choice depends on shapes only, never on the seed's draw, so every
/// seed times the same cells. The count is odd so that the median of
/// samples taken equally from each cell falls inside one cell's
/// distribution, not in the gap between two.
pub fn small_third(cells: &[Cell]) -> Vec<&Cell> {
    let shape = |c: &Cell| -> usize {
        c.input.inputs.values().map(|t| t.dims().iter().product::<usize>()).sum()
    };
    let mut by_size: Vec<&Cell> = cells.iter().collect();
    by_size.sort_by(|a, b| shape(a).cmp(&shape(b)).then_with(|| a.input.label.cmp(&b.input.label)));
    by_size.truncate(cells.len().div_ceil(3) | 1);
    by_size
}

/// [`small_third`], each cell a group of its own.
pub fn small_third_groups(cells: &[Cell]) -> Vec<Vec<&Cell>> {
    small_third(cells).into_iter().map(|c| vec![c]).collect()
}

/// Warm re-prepares — a plan-cache hit plus binding the data. One update
/// re-prepares both variants of every cell of a group, as a client
/// re-binding its kernels would; each group takes its updates in one
/// batch. At least `count` updates; returns µs at reference speed.
pub fn warm_prepares(
    groups: &[Vec<&Cell>],
    count: usize,
    tracer: &mut Tracer,
    speed: &mut Speed,
    out: &mut Outcome,
) -> Vec<f64> {
    let per = count.div_ceil(groups.len());
    let mut samples = Vec::with_capacity(per * groups.len());
    for group in groups {
        // Make sure every plan is cached (the cache holds 64 plans).
        for cell in group {
            let _ = (
                try_prepare(&cell.input, Variant::Systec),
                try_prepare(&cell.input, Variant::Naive),
            );
        }
        for _ in 0..per {
            let f = speed.tick_prepares();
            let t0 = Instant::now();
            let r = tracer.span("kernels", "prepare_warm", || {
                group.iter().try_for_each(|cell| {
                    try_prepare(&cell.input, Variant::Systec)?;
                    try_prepare(&cell.input, Variant::Naive).map(drop)
                })
            });
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3 * f);
            out.tally(r.is_ok(), || format!("{}: warm prepare failed", group[0].input.label));
        }
    }
    samples
}

/// `compile-cold`'s measured loop: every round clears the plan cache
/// before each prepare of every cell and variant, then runs the fresh
/// kernel twice. The timed run is the timed region on the cell's warm
/// context and buffers, and must equal the set-up's first run bit for
/// bit. The untimed run is `run_full` (replication included), checked
/// against the oracle. Timing the fresh plan on warm buffers keeps page
/// faults from fresh allocations out of the run samples. Returns
/// per-cell run samples (µs) and the cold prepare latencies (ms), at
/// reference speed.
fn cold_rounds(
    cells: &mut [Cell],
    rounds: usize,
    tracer: &mut Tracer,
    speed: &mut Speed,
    out: &mut Outcome,
) -> (Vec<[Vec<f64>; 2]>, Vec<f64>) {
    let mut samples: Vec<[Vec<f64>; 2]> = cells.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    let mut compile = Vec::with_capacity(rounds * cells.len() * 2);
    for r in 0..rounds {
        tracer.next_request();
        for (ci, cell) in cells.iter_mut().enumerate() {
            let order = if (r + ci) % 2 == 0 {
                [Variant::Systec, Variant::Naive]
            } else {
                [Variant::Naive, Variant::Systec]
            };
            let (fp, fr) = (speed.tick_prepares(), speed.tick_runs());
            let mut spent = 0.0;
            for v in order {
                clear_cache();
                let t0 = Instant::now();
                let p = tracer.span("kernels", "prepare_cold", || try_prepare(&cell.input, v));
                spent += t0.elapsed().as_nanos() as f64 / 1e6 * fp;
                let p = match p {
                    Ok(p) => p,
                    Err(e) => {
                        out.tally(false, || {
                            format!("{} {v:?}: prepare failed: {e}", cell.input.label)
                        });
                        continue;
                    }
                };
                let st = &mut cell.state[v as usize];
                let t1 = Instant::now();
                let timed = tracer.span("kernels", "run_timed_into", || {
                    p.run_timed_into(&mut st.outputs, &mut st.ctx, &mut st.counters)
                });
                samples[ci][v as usize].push(t1.elapsed().as_nanos() as f64 / 1e3 * fr);
                let same = timed.is_ok()
                    && same_outputs(&st.outputs, &st.expect)
                    && st.counters == st.expect_counters;
                let ran = tracer.span("kernels", "run_full", || p.run_full());
                let name = cell.input.def.einsum.output.tensor.display_name();
                let oracle = cell.oracle.as_ref().expect("cells are verified before timing");
                let ok = same
                    && ran.is_ok_and(|(outputs, counters)| {
                        counters == cell.full_counters[v as usize]
                            && outputs.get(&name).is_some_and(|o| compare(o, oracle).is_none())
                    });
                out.tally(ok, || {
                    format!("{} {v:?} round {r}: checked run differs", cell.input.label)
                });
            }
            compile.push(spent);
        }
    }
    (samples, compile)
}

/// Cold prepares of both variants of every cell of each group, until at
/// least `count` samples; each sample is one group's total, ms at
/// reference speed.
pub fn cold_pairs(
    groups: &[Vec<&Cell>],
    count: usize,
    tracer: &mut Tracer,
    speed: &mut Speed,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut samples = Vec::new();
    for _ in 0..count.div_ceil(groups.len()) {
        for group in groups {
            let f = speed.tick_prepares();
            let mut spent = 0.0;
            for cell in group {
                for v in [Variant::Systec, Variant::Naive] {
                    clear_cache();
                    let t0 = Instant::now();
                    let r = tracer.span("kernels", "prepare_cold", || try_prepare(&cell.input, v));
                    spent += t0.elapsed().as_nanos() as f64 / 1e6 * f;
                    out.tally(r.is_ok(), || {
                        format!("{} {v:?}: cold prepare failed", cell.input.label)
                    });
                }
            }
            samples.push(spent);
        }
    }
    samples
}

/// Runs a kernel workload: untraced (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let rounds = kind.rounds_per_second() * seconds as usize;
    if traced {
        return run_traced(kind, seed, rounds, out);
    }
    let mut off = Tracer::new(false);
    let mut e2e = E2e { speed: Speed::new(kind.probe_parts()), ..E2e::default() };
    let mut cells = repeated_setup(kind, seed, &mut off, &mut e2e);
    verify(&mut cells, &mut out);
    let attempted0 = out.attempted;
    let mut speed = std::mem::take(&mut e2e.speed);
    let speed = &mut speed;
    for _ in 0..SEGMENTS {
        let (runs, compile) = match kind {
            Kind::Spmv | Kind::Tensor => {
                let runs = run_rounds(&mut cells, rounds / SEGMENTS, &mut off, speed, &mut out);
                let groups = small_third_groups(&cells);
                (runs, cold_pairs(&groups, COLD_SAMPLES / SEGMENTS, &mut off, speed, &mut out))
            }
            Kind::Compile => cold_rounds(&mut cells, rounds / SEGMENTS, &mut off, speed, &mut out),
        };
        e2e.compile_ms.extend(compile);
        let groups = kind.update_groups(&cells);
        let updates = warm_prepares(&groups, UPDATE_SAMPLES / SEGMENTS, &mut off, speed, &mut out);
        e2e.updates_us.extend(updates);
        e2e.add_cells(runs);
    }
    e2e.wall_s = speed.scaled_seconds();
    e2e.speed = std::mem::take(speed);
    e2e.ops = out.attempted - attempted0;
    e2e.runs_us = e2e.cells.iter().flat_map(|[s, _]| s.iter().copied()).collect();
    e2e.emit(&mut out);
    out
}

/// The traced run: one traced set-up, the measured loop at a fifth of
/// its rounds untraced and then traced (their difference is the tracing
/// overhead), the hand-built pipeline of every cell, and a serving probe.
fn run_traced(kind: Kind, seed: u64, rounds: usize, mut out: Outcome) -> Outcome {
    let mut tracer = Tracer::new(true);
    let root = tracer.open_span("bench", "run");
    let (mut cells, cold, costs) = setup(kind, seed, &mut tracer);
    verify(&mut cells, &mut out);
    let short = (rounds / 5).max(20);
    let mut speed = Speed::off();
    let mut measured = |tracer: &mut Tracer, out: &mut Outcome| {
        let t0 = Instant::now();
        match kind {
            Kind::Spmv | Kind::Tensor => {
                drop(run_rounds(&mut cells, short, tracer, &mut speed, out))
            }
            Kind::Compile => drop(cold_rounds(&mut cells, short.min(40), tracer, &mut speed, out)),
        }
        t0.elapsed().as_secs_f64()
    };
    let untraced = measured(&mut Tracer::new(false), &mut out);
    let traced = measured(&mut tracer, &mut out);
    let groups = small_third_groups(&cells);
    let warm = warm_prepares(&groups, UPDATE_SAMPLES, &mut tracer, &mut Speed::off(), &mut out);
    let mut l = layers::Layers::new(costs, &cold, &warm);
    layers::walk(&cells, &mut tracer, &mut l, &mut out);
    let probe = cells.iter().map(|c| &c.input).filter(|i| crate::serve::probe_eligible(i));
    match probe.min_by_key(|i| i.output_len()) {
        Some(input) => crate::serve::probe(input, &mut tracer, &mut l, &mut out),
        None => out.fail("no cell is eligible for the serving probe".into()),
    }
    l.finish(tracer, root, traced, untraced, &mut out);
    out
}
