//! Criterion benches: every paper kernel across four axes — symmetric
//! vs naive (the paper's comparison), compiled VM vs tree-walking
//! interpreter (this reproduction's backend ablation), a threads axis
//! on the compiled backend (row-parallel dispatch), and a lanes axis
//! (the default cells run the explicit-lane runners; `-scalar` cells
//! pin `LaneMode::Scalar`) — at
//! a small fixed size (the figure binaries sweep the real workloads;
//! these keep `cargo bench` fast and regression-friendly).
//!
//! Series names are `<kernel>/<variant>-<backend>[-tN|-scalar]`,
//! e.g. `ssymv/systec-compiled` (serial, lane mode) or
//! `ssymv/systec-compiled-scalar` (serial, scalar folds). All cells
//! run over reused output buffers and a
//! reused execution context (`run_timed_into`) so the numbers measure
//! kernel work, not allocator traffic.
//!
//! After the run, the per-series medians are written as JSON to
//! `bench_results/kernels.json` (schema: `{meta, kernels}` where
//! `kernels` maps kernel → series → ns and `meta` stamps the run with
//! the git SHA, host parallelism and UTC timestamp) so
//! the perf trajectory diffs across PRs *and* stays interpretable
//! across machines.

use std::collections::{BTreeMap, HashMap};

use criterion::{criterion_group, Criterion};
use systec_kernels::{
    defs, Backend, Counters, ExecContext, KernelDef, LaneMode, Parallelism, Prepared,
};
use systec_tensor::generate::{
    random_dense, rng, sprand, symmetric_block_plateau, symmetric_erdos_renyi,
};
use systec_tensor::{LevelFormat, SparseTensor, Tensor};

fn bench_grid(c: &mut Criterion, name: &str, def: &KernelDef, inputs: &HashMap<String, Tensor>) {
    let systec = Prepared::compile(def, inputs).expect("prepare systec");
    let naive = Prepared::naive(def, inputs).expect("prepare naive");
    let serial_only = [("", Parallelism::Serial)];
    let threaded = [
        ("", Parallelism::Serial),
        ("-t2", Parallelism::threads(2)),
        ("-t4", Parallelism::threads(4)),
    ];
    let mut group = c.benchmark_group(name);
    for (variant, prepared) in [("systec", &systec), ("naive", &naive)] {
        for (backend_name, backend) in
            [("compiled", Backend::Compiled), ("interp", Backend::Interpreter)]
        {
            // The threads axis applies to the compiled backend only (the
            // interpreter has no parallel dispatch), and only when the
            // plan actually splits — otherwise the -tN cells would be
            // relabeled serial runs.
            let par_axis: &[(&str, Parallelism)] =
                if backend == Backend::Compiled && prepared.splittable() {
                    &threaded
                } else {
                    &serial_only
                };
            for (suffix, par) in par_axis {
                let runner = prepared.clone().with_backend(backend).with_parallelism(*par);
                let mut outputs = HashMap::new();
                let mut ctx = ExecContext::new();
                let mut counters = Counters::new();
                group.bench_function(&format!("{variant}-{backend_name}{suffix}"), |b| {
                    b.iter(|| {
                        runner.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("run")
                    })
                });
            }
        }
        // Lanes axis: the same serial compiled path with the
        // explicit-lane runners switched off, isolating what the lane
        // accumulators buy over the loop-carried scalar folds.
        if variant == "systec" {
            let runner = prepared.clone().with_backend(Backend::Compiled);
            let mut outputs = HashMap::new();
            let mut ctx = ExecContext::new().with_lane_mode(LaneMode::Scalar);
            let mut counters = Counters::new();
            group.bench_function(&format!("{variant}-compiled-scalar"), |b| {
                b.iter(|| {
                    runner.run_timed_into(&mut outputs, &mut ctx, &mut counters).expect("run")
                })
            });
        }
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    // SSYMV / Bellman-Ford / SYPRD share a 1600x1600 symmetric
    // block-plateau matrix packed `[Dense, RunLength]` — these are the
    // dense/RLE-dominated kernels, and run-structured rows (FEM/stencil
    // plateau structure, ~80 nonzeros per row in runs of 32) are the
    // storage where their inner loops are contiguous window folds
    // rather than per-coordinate gathers. Sized so the working set
    // stays cache-resident: the lanes axis then measures the fold
    // chain, not memory bandwidth.
    let mut r = rng(1);
    let a2 = symmetric_block_plateau(1600, 32, 0.05, &mut r);
    let a2 = Tensor::Sparse(
        SparseTensor::from_coo(&a2, &[LevelFormat::Dense, LevelFormat::RunLength])
            .expect("pack plateau matrix"),
    );
    let x = random_dense(vec![1600], &mut r);

    let def = defs::ssymv();
    let inputs =
        HashMap::from([("A".to_string(), a2.clone()), ("x".to_string(), x.clone().into())]);
    bench_grid(c, "ssymv", &def, &inputs);

    let def = defs::bellman_ford();
    let inputs =
        HashMap::from([("A".to_string(), a2.clone()), ("d".to_string(), x.clone().into())]);
    bench_grid(c, "bellman_ford", &def, &inputs);

    let def = defs::syprd();
    let inputs = HashMap::from([("A".to_string(), a2), ("x".to_string(), x.into())]);
    bench_grid(c, "syprd", &def, &inputs);

    // ~40 nonzeros per row: the intersection dots run long enough to
    // engage the lane kernels.
    let def = defs::ssyrk();
    let a = sprand(200, 200, 8_000, &mut r);
    let inputs = def.inputs([("A", a.into())]).unwrap();
    bench_grid(c, "ssyrk", &def, &inputs);

    let def = defs::ttm();
    let a3 = symmetric_erdos_renyi(40, 3, 1e-2, &mut r);
    let b = random_dense(vec![40, 16], &mut r);
    let inputs = def.inputs([("A", a3.clone().into()), ("B", b.clone().into())]).unwrap();
    bench_grid(c, "ttm", &def, &inputs);

    let def = defs::mttkrp(3);
    let inputs = def.inputs([("A", a3.into()), ("B", b.into())]).unwrap();
    bench_grid(c, "mttkrp3", &def, &inputs);

    // The higher-order MTTKRPs use enough nonzeros that the measurement
    // is dominated by kernel loops rather than per-run bookkeeping
    // (binding, output reset), which is identical on both backends.
    let def = defs::mttkrp(4);
    let a4 = symmetric_erdos_renyi(18, 4, 2e-3, &mut r);
    let b = random_dense(vec![18, 16], &mut r);
    let inputs = def.inputs([("A", a4.into()), ("B", b.into())]).unwrap();
    bench_grid(c, "mttkrp4", &def, &inputs);

    let def = defs::mttkrp(5);
    let a5 = symmetric_erdos_renyi(12, 5, 2e-4, &mut r);
    let b = random_dense(vec![12, 16], &mut r);
    let inputs = def.inputs([("A", a5.into()), ("B", b.into())]).unwrap();
    bench_grid(c, "mttkrp5", &def, &inputs);
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = benches
}

/// Best-effort `git rev-parse HEAD`; benches may run from an export.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// UTC wall time as `YYYY-MM-DDTHH:MM:SSZ` (the workspace has no
/// chrono; date math is Hinnant's civil-from-days).
fn utc_timestamp() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (h, m, s) = ((secs / 3600) % 24, (secs / 60) % 60, secs % 60);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}Z")
}

/// Serializes the run as `{ "meta": {...}, "kernels": { kernel: {
/// series: ns } } }` (sorted keys, hand-rolled JSON — the workspace
/// has no serde). The meta stamp is what makes a checked-in trajectory
/// point comparable: a 1-CPU container's `-t4` cells are relabeled
/// serial runs, and only `nproc` in the stamp says so.
fn report_json(records: &[criterion::BenchRecord]) -> String {
    let mut by_kernel: BTreeMap<&str, BTreeMap<&str, f64>> = BTreeMap::new();
    for r in records {
        let (kernel, series) = r.name.split_once('/').unwrap_or(("", r.name.as_str()));
        by_kernel.entry(kernel).or_default().insert(series, r.median * 1e9);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"meta\": {\n");
    out.push_str(&format!("    \"git_sha\": {:?},\n", git_sha()));
    out.push_str(&format!("    \"nproc\": {nproc},\n"));
    out.push_str(&format!("    \"timestamp\": {:?}\n", utc_timestamp()));
    out.push_str("  },\n");
    out.push_str("  \"kernels\": {\n");
    let mut kernels = by_kernel.iter().peekable();
    while let Some((kernel, series)) = kernels.next() {
        out.push_str(&format!("    {kernel:?}: {{\n"));
        let mut cells = series.iter().peekable();
        while let Some((name, ns)) = cells.next() {
            let comma = if cells.peek().is_some() { "," } else { "" };
            out.push_str(&format!("      {name:?}: {ns:.1}{comma}\n"));
        }
        let comma = if kernels.peek().is_some() { "," } else { "" };
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

fn main() {
    kernels();
    // Machine-readable medians, diffable across PRs.
    let records = criterion::take_report();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    std::fs::create_dir_all(dir).expect("bench_results dir");
    let path = format!("{dir}/kernels.json");
    std::fs::write(&path, report_json(&records)).expect("write kernels.json");
    println!("wrote {}", path);
}
