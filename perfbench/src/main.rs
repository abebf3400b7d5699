//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke]`
//!
//! Prints the host block, a diagnostic line, and as the last line of
//! standard output the result object. Exits 1 when a correctness gate
//! fails, 2 on bad arguments or a run that could not report.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <offline_dense|offline_sparse|cluster_mixed> --seed <n> --seconds <s> --trace <0|1> [--smoke]");
            return ExitCode::from(2);
        }
    };
    // Traces land beside the runner, inside the checkout.
    let trace_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match perfbench::run(&args, &trace_dir) {
        Ok(report) => {
            println!("host {}", report.host);
            println!("diagnostic {}", report.diagnostic);
            println!("{}", report.result);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness gate failed: {}", report.diagnostic);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
