//! The LHMM benchmark runner.
//!
//! One command runs one named workload with a seed, measures for a fixed
//! number of seconds, checks the program's outputs, and prints one JSON
//! result line: the end-to-end metrics, or with `--trace 1` the per-layer
//! split. The runner drives the workspace only through public APIs
//! (`lhmm_cellsim` for inputs, `LhmmModel::train` and
//! `BatchMatcher::match_batch`, `ClusterHandle` and `ServeClient`); spans
//! are recorded around those calls, never inside the crates. See
//! `perfbench/README.md` for why each workload exists.

pub mod cluster;
pub mod host;
pub mod json;
pub mod offline;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;

use json::Value;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Outcome, Workload};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Report the per-layer split instead of the end-to-end metrics.
    pub trace: bool,
    /// Run on the miniature `tiny_test` city with the small model.
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--smoke]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut smoke = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} out of range (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            smoke,
        })
    }
}

/// The outcome of one run, ready to print.
pub struct Report {
    /// Host block (cores, kernel, CPU, SIMD kernel, SP backend).
    pub host: Value,
    /// Calibration loop before and after, gate failures, spans written.
    pub diagnostic: Value,
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Value,
    /// Whether every correctness gate held.
    pub correct: bool,
}

/// Runs one workload end to end. `trace_dir` receives the
/// spans of a traced run as `trace-<workload>-<seed>.json`.
pub fn run(args: &Args, trace_dir: &Path) -> Result<Report, String> {
    let calib_before = host::calibration_ms();
    let tracer = Tracer::new(args.trace, Instant::now());
    let mut out = Outcome::new(tracer);
    let window = Duration::from_secs_f64(args.seconds);
    match args.workload {
        Workload::ClusterMixed => cluster::run(args.seed, window, args.smoke, &mut out),
        w => offline::run(w, args.seed, window, args.smoke, &mut out),
    }
    let calib_after = host::calibration_ms();

    let table = if args.trace {
        workload::zero_unset(&mut out.metrics, spec::PER_LAYER);
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let metrics = out.metrics.render(table)?;
    if out.attempted == 0 {
        out.violate("no operation was attempted".into());
    }

    let mut trace_file = Value::Null;
    if args.trace {
        let path = trace_dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        let doc = Value::obj()
            .with("workload", args.workload.name())
            .with("seed", args.seed)
            .with(
                "columns",
                vec![
                    "name".into(),
                    "start_s".into(),
                    "end_s".into(),
                    "parent".into(),
                    "request".into(),
                ],
            )
            .with("spans", out.tracer.to_json());
        std::fs::create_dir_all(trace_dir)
            .and_then(|()| std::fs::write(&path, doc.to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        trace_file = path.display().to_string().into();
    }
    let self_times = out
        .tracer
        .self_times()
        .into_iter()
        .map(|(name, (n, total, own))| {
            Value::obj()
                .with("span", name)
                .with("count", n)
                .with("total_s", total)
                .with("self_s", own)
        })
        .collect::<Vec<_>>();

    let mut diagnostic = Value::obj()
        .with("workload", args.workload.name())
        .with("seed", args.seed)
        .with("smoke", args.smoke)
        .with("calibration_before_ms", calib_before)
        .with("calibration_after_ms", calib_after)
        .with("rss_window_scoped", out.rss_window_scoped)
        .with(
            "violations",
            out.violations
                .iter()
                .map(|v| Value::from(v.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("span_self_times", self_times)
        .with("trace_file", trace_file);
    for (key, value) in out.notes {
        diagnostic = diagnostic.with(key, value);
    }
    let result = Value::obj()
        .with("correct", out.correct)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics);
    Ok(Report {
        host: host::host_block(&format!(
            "{:?}",
            args.workload.model_config(args.smoke).sp_backend
        )),
        diagnostic,
        result,
        correct: out.correct,
    })
}
