//! End-to-end benchmark of the `mems` simulation path.
//!
//! ```text
//! mems-e2e-bench --workload <tran_grid2d|op_cold_mesh3d|serve_sweep>
//!                --seed <n> --seconds <s> --trace <0|1>
//! mems-e2e-bench compare <result-set-dir-A> <result-set-dir-B>
//! ```
//!
//! A run prints one JSON line last: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. It also writes
//! a result-set file (host record, sample counts, tail percentiles)
//! and, when traced, a JSONL span file under `results/`. See
//! `README.md` beside this file for the workloads and metrics.

mod deck;
mod decks;
mod gen;
mod host;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One run's settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub results_dir: PathBuf,
    pub trace_path: PathBuf,
}

const WORKLOADS: [&str; 3] = ["tran_grid2d", "op_cold_mesh3d", "serve_sweep"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: mems-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       mems-e2e-bench compare <dir-A> <dir-B>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        return match report::compare(Path::new(a), Path::new(b)) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = it.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => {
                trace = match it.next().map(String::as_str) {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => return usage(),
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) || !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let results_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    if let Err(e) = std::fs::create_dir_all(&results_dir) {
        eprintln!("{}: {e}", results_dir.display());
        return ExitCode::FAILURE;
    }
    let tag = format!("{workload}-seed{seed}-trace{}", u8::from(trace));
    let cfg = Cfg {
        seed,
        seconds,
        trace,
        trace_path: results_dir.join(format!("{tag}.spans.jsonl")),
        results_dir: results_dir.clone(),
    };
    let host = host::Host::detect();
    let out = match workload.as_str() {
        "tran_grid2d" => decks::tran_grid2d(&cfg),
        "op_cold_mesh3d" => decks::op_cold_mesh3d(&cfg),
        _ => serve::serve_sweep(&cfg),
    };
    for f in &out.failures {
        eprintln!("failed: {f}");
    }
    if let Err(e) = report::check_catalogue(&out, trace) {
        eprintln!("{workload}: {e}");
        return ExitCode::FAILURE;
    }
    let file = results_dir.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(
        &file,
        report::result_file(&host, &workload, seed, trace, &out),
    ) {
        eprintln!("{}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&out));
    ExitCode::SUCCESS
}
