//! CLI for the workspace linter. See `lhmm-lint --help`.

use lintkit::engine;
use lintkit::races;
use std::path::PathBuf;
use std::process::ExitCode;

const HELP: &str = "\
lhmm-lint: workspace determinism & robustness linter

USAGE:
    lhmm-lint [--deny] [--write-baseline] [--races [SEED]] [--kernels]
              [--root DIR] [--baseline FILE]

MODES (default: report findings, exit 0)
    --deny            exit nonzero on any new finding (CI gate)
    --write-baseline  freeze current tooling/service-zone findings;
                      inference-zone findings are never baselined
    --races [SEED]    match the seeded adversarial corpus at two
                      BatchMatcher worker counts and compare result
                      fingerprints (scheduling-nondeterminism smoke test);
                      also re-runs with the SIMD kernel forced to scalar,
                      replays the corpus through the serving scheduler
                      with a model hot swap fired mid-run, and repeats the
                      swap run as a lock-witness lane (rank-checked
                      acquisitions, identical fingerprint); for the
                      default seed the fingerprints must also equal the
                      constants pinned in crates/lintkit/src/races.rs
    --kernels         print the SIMD kernel names this machine supports,
                      one per line (for CI loops over LHMM_KERNEL)

OPTIONS
    --root DIR        workspace root (default: ., walking up to Cargo.toml)
    --baseline FILE   baseline path (default: <root>/lint-baseline.txt)
";

fn main() -> ExitCode {
    let mut deny = false;
    let mut write_baseline = false;
    let mut do_races = false;
    let mut races_seed: u64 = races::DEFAULT_SEED;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--write-baseline" => write_baseline = true,
            "--races" => do_races = true,
            "--kernels" => {
                for k in lhmm_neural::kernel::supported_kernels() {
                    println!("{}", k.name());
                }
                return ExitCode::SUCCESS;
            }
            "--root" => root = args.next().map(PathBuf::from),
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => {
                if do_races {
                    if let Ok(seed) = other.parse::<u64>() {
                        races_seed = seed;
                        continue;
                    }
                }
                eprintln!("lhmm-lint: unknown argument `{other}`\n\n{HELP}");
                return ExitCode::from(2);
            }
        }
    }

    if do_races {
        return run_races_mode(races_seed);
    }

    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("lhmm-lint: no workspace root found (looked for Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };
    let baseline = baseline.unwrap_or_else(|| root.join("lint-baseline.txt"));

    let report = match engine::run(&root, &baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lhmm-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        return match engine::write_baseline(&report, &baseline) {
            Ok((written, skipped)) => {
                println!(
                    "lhmm-lint: baseline written to {} ({written} entries)",
                    baseline.display()
                );
                if skipped > 0 {
                    eprintln!(
                        "lhmm-lint: {skipped} inference-zone finding(s) NOT baselined — fix them"
                    );
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lhmm-lint: writing baseline failed: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut new = 0usize;
    for (f, excerpt) in report.new_findings() {
        new += 1;
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        if !excerpt.is_empty() {
            println!("    {excerpt}");
        }
    }
    println!(
        "lhmm-lint: {} file(s), {} new finding(s), {} baselined, {} waived{}",
        report.files,
        new,
        report.count_baselined(),
        report.count_waived(),
        if report.stale_baseline > 0 {
            format!(", {} stale baseline entr(ies)", report.stale_baseline)
        } else {
            String::new()
        }
    );
    let debt = report.inference_debt();
    if debt > 0 {
        eprintln!("lhmm-lint: {debt} waived/baselined finding(s) in the INFERENCE zone — must be zero");
    }
    if deny && (new > 0 || debt > 0) {
        eprintln!("lhmm-lint: failing (--deny)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_races_mode(seed: u64) -> ExitCode {
    let workers = (1usize, 4usize);
    let report = races::run_races(seed, workers);
    println!(
        "lhmm-lint --races: seed={:#x} cases={} workers={}/{} fingerprints={:016x}/{:016x} repeat={:016x} ch={:016x} scalar_kernel={:016x} swap={:016x}/{:016x} witness={:016x} ({}, {} locks)",
        report.seed,
        report.cases,
        report.worker_counts.0,
        report.worker_counts.1,
        report.fingerprints.0,
        report.fingerprints.1,
        report.repeat_fingerprint,
        report.ch_fingerprint,
        report.scalar_kernel_fingerprint,
        report.swap_fingerprints.0,
        report.swap_fingerprints.1,
        report.witness_fingerprint,
        if report.witness_active { "witness on" } else { "witness off" },
        report.witness_locks,
    );
    if !report.witness_ok() {
        eprintln!("lhmm-lint --races: lock witness compiled in but observed no acquisitions");
        return ExitCode::FAILURE;
    }
    if !report.deterministic() {
        eprintln!("lhmm-lint --races: RESULT FINGERPRINTS DIVERGED — worker scheduling leaked into results");
        return ExitCode::FAILURE;
    }
    if !report.matches_pin() {
        eprintln!(
            "lhmm-lint --races: fingerprints={:016x} swap={:016x} differ from the pinned {:016x} and swap={:016x} for the default seed; the pins in crates/lintkit/src/races.rs change only with an intended verdict change recorded in CHANGES.md",
            report.fingerprints.0,
            report.swap_fingerprints.0,
            races::PINNED_FINGERPRINT,
            races::PINNED_SWAP_FINGERPRINT,
        );
        return ExitCode::FAILURE;
    }
    println!("lhmm-lint --races: deterministic across worker counts, SP backends, kernels, and mid-corpus swaps (lock-witness lane included)");
    if report.seed == races::DEFAULT_SEED {
        println!("lhmm-lint --races: fingerprints equal the pinned constants");
    }
    ExitCode::SUCCESS
}

/// Walks up from the current directory to the first directory holding both
/// `Cargo.toml` and `crates/`.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
