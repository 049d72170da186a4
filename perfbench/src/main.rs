//! The repository's benchmark: end-to-end metrics from an untraced run,
//! per-layer metrics from a traced run, stamped result files, and a
//! compare mode for two sets of runs. See `perfbench/README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-spmv --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     compare <parent-results-dir> <change-results-dir>
//! ```

mod calib;
mod cells;
mod compare;
mod kernelwork;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use kernelwork::Kind;
use report::Outcome;
use systec_serve::json::Json;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["paper-spmv", "paper-tensor", "serve-mixed", "compile-cold"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--out <dir>]\n\
         \x20      perfbench compare <parent-dir> <change-dir> [--benchmark <BENCHMARK.json>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10, trace: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if !(1..=600).contains(&a.seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(a)
}

/// The commit being measured: `PERFBENCH_GIT_SHA`, else read from
/// `.git` in the working directory (no `git` process), else `unknown`.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("PERFBENCH_GIT_SHA") {
        return sha;
    }
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where stamped result files go: `--out`, or `perfbench-results/`
/// under the cargo target directory.
fn out_dir(args: &Args) -> PathBuf {
    if let Some(dir) = &args.out {
        return dir.clone();
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    Path::new(&target).join("perfbench-results")
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// The stamped result file: machine, commit, inputs, every metric with
/// its distribution, and for traced runs the self time per layer.
fn result_file(args: &Args, o: &Outcome, stamp: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let metrics = o.metrics.iter().map(|m| {
        let tail = m.tail_limit.map_or(Json::Null, Json::Num);
        let fields = [
            ("value", Json::Num(m.value)),
            ("unit", text(m.unit)),
            ("samples", Json::num_usize(m.samples)),
            ("median", Json::Num(m.median)),
            ("q1", Json::Num(m.q1)),
            ("q3", Json::Num(m.q3)),
            ("tail_limit", tail),
        ];
        (m.name.clone(), Json::obj(fields))
    });
    let file = Json::obj([
        ("workload", text(&args.workload)),
        ("seed", Json::num_u64(args.seed)),
        ("seconds", Json::num_u64(args.seconds)),
        ("trace", Json::num_u64(u64::from(args.trace))),
        ("nproc", Json::num_usize(nproc)),
        ("git_sha", text(&git_sha())),
        ("unix_time", Json::num_u64(stamp)),
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::num_u64(o.attempted)),
        ("failed", Json::num_u64(o.failed)),
        ("error_rate", Json::Num(o.failed as f64 / o.attempted.max(1) as f64)),
        ("failures", Json::Arr(o.failures.iter().map(|f| text(f)).collect())),
        ("notes", Json::Obj(o.notes.iter().map(|(k, v)| (k.clone(), text(v))).collect())),
        ("self_ms", Json::Obj(o.self_ms.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())),
        ("metrics", Json::Obj(metrics.collect())),
    ]);
    format!("{file}\n")
}

/// The last line of standard output.
fn result_line(o: &Outcome) -> String {
    let metrics = o.metrics.iter().map(|m| {
        (m.name.clone(), Json::obj([("value", Json::Num(m.value)), ("unit", text(m.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::num_u64(o.attempted.max(1))),
        ("failed", Json::num_u64(o.failed)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .to_string()
}

fn run(args: &Args) -> ExitCode {
    let outcome = match args.workload.as_str() {
        "paper-spmv" => kernelwork::run(Kind::Spmv, args.seed, args.seconds, args.trace),
        "paper-tensor" => kernelwork::run(Kind::Tensor, args.seed, args.seconds, args.trace),
        "compile-cold" => kernelwork::run(Kind::Compile, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    for m in &outcome.metrics {
        println!(
            "{:<26} {:>16.4} {:<6} samples={} q1={:.4} median={:.4} q3={:.4}",
            m.name, m.value, m.unit, m.samples, m.q1, m.median, m.q3
        );
    }
    for (layer, ms) in &outcome.self_ms {
        println!("self time {layer:<14} {ms:>12.3} ms");
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    let stamp = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let dir = out_dir(args);
    let file = dir.join(format!(
        "{}-seed{}-trace{}-{stamp}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, result_file(args, &outcome, stamp)))
    {
        Ok(()) => println!("result file: {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let mut rest = args[1..].to_vec();
        let mut benchmark = PathBuf::from("BENCHMARK.json");
        if let Some(k) = rest.iter().position(|a| a == "--benchmark") {
            match rest.get(k + 1) {
                Some(path) => benchmark = PathBuf::from(path),
                None => {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                }
            }
            rest.drain(k..k + 2);
        }
        let [parent, change] = rest.as_slice() else {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        };
        return match compare::compare(Path::new(parent), Path::new(change), &benchmark) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
