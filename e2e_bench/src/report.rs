//! Metric catalogue, the result line, result-set files, and the
//! compare command.

use crate::host::{esc, Host};
use crate::stats::{median, quantile, quartiles};
use mems_serve::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("first_result_p50_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not reach reports 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("parse_s", "s"),
    ("elab_s", "s"),
    ("devices", "count"),
    ("hdl_compile_s", "s"),
    ("assemble_s", "s"),
    ("assemble_n", "count"),
    ("stamps", "count"),
    ("newton_iters", "count"),
    ("rejected_steps", "count"),
    ("step_ctl_s", "s"),
    ("order_s", "s"),
    ("order_cache_hits", "count"),
    ("factor_cold_s", "s"),
    ("factor_cold_n", "count"),
    ("factor_nnz", "count"),
    ("refactor_s", "s"),
    ("refactor_n", "count"),
    ("solve_s", "s"),
    ("solve_n", "count"),
    ("fallbacks", "count"),
    ("submit_p50_s", "s"),
    ("artifact_hit_ratio", "ratio"),
    ("artifact_base_n", "count"),
    ("chunk_mean_s", "s"),
    ("rejected_n", "count"),
    ("store_bytes_written", "B"),
    ("spill_read_p50_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("span_coverage", "ratio"),
    ("assemble_share", "ratio"),
    ("refactor_share", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The catalogue metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Figures only the result-set file carries (tail percentiles,
    /// failure ratio) — too few samples, or zero by design, for the
    /// printed contract.
    pub extra: Vec<Metric>,
    /// First failure messages, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn extra(&mut self, name: &'static str, value: f64, samples: usize) {
        self.extra.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Counts one attempted op; `Err` marks it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(e);
            }
        }
    }
}

/// Op timings of an untraced run.
#[derive(Debug, Default)]
pub struct Ops {
    pub latency: Vec<f64>,
    pub first_result: Vec<f64>,
    /// Ops and result points completed per second, one rate per
    /// interval: per op for a single closed-loop client, per 1 s
    /// bucket of the window for concurrent clients. Their medians are
    /// the throughput metrics, which a short slow spell of the host
    /// then moves no more than it moves the latency medians.
    pub rates: Vec<f64>,
    pub point_rates: Vec<f64>,
    /// Plain totals over the window, for the result file.
    pub points: u64,
    pub window_s: f64,
}

/// Fills the end-to-end metrics.
pub fn end_to_end(out: &mut Outcome, setup: &[f64], ops: &Ops) {
    let n = ops.latency.len();
    out.set("setup_s", median(setup), setup.len());
    out.set("op_p50_s", median(&ops.latency), n);
    out.set("ops_per_s", median(&ops.rates), ops.rates.len());
    out.set(
        "first_result_p50_s",
        median(&ops.first_result),
        ops.first_result.len(),
    );
    out.set(
        "points_per_s",
        median(&ops.point_rates),
        ops.point_rates.len(),
    );
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    out.extra("op_p90_s", quantile(&ops.latency, 0.9), n);
    out.extra(
        "first_result_p90_s",
        quantile(&ops.first_result, 0.9),
        ops.first_result.len(),
    );
    out.extra("ops_per_s_mean", n as f64 / ops.window_s, n);
    out.extra("points_per_s_mean", ops.points as f64 / ops.window_s, n);
    let attempted = out.attempted.max(1) as f64;
    out.extra(
        "failed_ratio",
        out.failed as f64 / attempted,
        out.attempted as usize,
    );
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Checks that a run produced exactly the catalogue of its mode.
pub fn check_catalogue(out: &Outcome, trace: bool) -> Result<(), String> {
    let want: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    if got != want {
        return Err(format!(
            "metric set {got:?} differs from the catalogue {want:?}"
        ));
    }
    match out.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite", m.name)),
        None => Ok(()),
    }
}

/// The contract's last stdout line.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                unit_of(m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// The result-set file of one run: host record, run identity, every
/// metric with its sample count, and the extras.
pub fn result_file(host: &Host, workload: &str, seed: u64, trace: bool, out: &Outcome) -> String {
    let render = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
                    m.name,
                    num(m.value),
                    unit_of(m.name),
                    m.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    format!(
        "{{\"host\":{},\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"extra\":{{{}}},\"failures\":[{}]}}\n",
        host.to_json(),
        esc(workload),
        seed,
        trace,
        out.attempted,
        out.failed,
        render(&out.metrics),
        render(&out.extra),
        failures.join(",")
    )
}

/// A loaded result set: its host record and, per (workload, mode,
/// metric), the values of all its runs.
struct ResultSet {
    host: Host,
    values: BTreeMap<(String, String, String), Vec<f64>>,
}

fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut host: Option<Host> = None;
    let mut values: BTreeMap<(String, String, String), Vec<f64>> = BTreeMap::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let h = doc
            .get("host")
            .and_then(Host::from_json)
            .ok_or_else(|| format!("{}: no host record", path.display()))?;
        match &host {
            Some(first) if first.machine_key() != h.machine_key() => {
                return Err(format!(
                    "{}: host record differs within the set ({:?} vs {:?})",
                    path.display(),
                    first.machine_key(),
                    h.machine_key()
                ));
            }
            Some(_) => {}
            None => host = Some(h),
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        let mode = match doc.get("trace") {
            Some(Json::Bool(true)) => "trace",
            _ => "e2e",
        };
        for section in ["metrics", "extra"] {
            let Some(Json::Obj(members)) = doc.get(section) else {
                continue;
            };
            for (name, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values
                        .entry((workload.to_string(), mode.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(ResultSet {
        host: host.expect("a non-empty set has a host"),
        values,
    })
}

/// `compare A B`: per-metric median and quartiles of two result-set
/// directories, refused when their host records differ.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let (sa, sb) = (load_set(a)?, load_set(b)?);
    if sa.host.machine_key() != sb.host.machine_key() {
        return Err(format!(
            "refusing to compare: host records differ\n  {}: {}\n  {}: {}",
            a.display(),
            sa.host.to_json(),
            b.display(),
            sb.host.to_json()
        ));
    }
    let mut out = format!(
        "A = {} (rev {}{})\nB = {} (rev {}{})\n",
        a.display(),
        sa.host.git_rev,
        if sa.host.git_dirty { ", dirty" } else { "" },
        b.display(),
        sb.host.git_rev,
        if sb.host.git_dirty { ", dirty" } else { "" },
    );
    out.push_str(&format!(
        "{:<16} {:<5} {:<22} {:>5} {:>12} {:>12} {:>12} | {:>5} {:>12} {:>12} {:>12} | {:>8}\n",
        "workload", "mode", "metric", "nA", "q1A", "medA", "q3A", "nB", "q1B", "medB", "q3B", "B/A"
    ));
    for (key, va) in &sa.values {
        let Some(vb) = sb.values.get(key) else {
            continue;
        };
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let (ma, mb) = (median(va), median(vb));
        let q = |x: Option<(f64, f64)>, i: usize| {
            x.map_or("-".to_string(), |(q1, q3)| {
                format!("{:.6}", if i == 0 { q1 } else { q3 })
            })
        };
        out.push_str(&format!(
            "{:<16} {:<5} {:<22} {:>5} {:>12} {:>12.6} {:>12} | {:>5} {:>12} {:>12.6} {:>12} | {:>8.4}\n",
            key.0,
            key.1,
            key.2,
            va.len(),
            q(qa, 0),
            ma,
            q(qa, 1),
            vb.len(),
            q(qb, 0),
            mb,
            q(qb, 1),
            mb / ma
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(nproc: usize, rev: &str) -> Host {
        Host {
            nproc,
            factor_threads: "unset".into(),
            rustc: "rustc 1.0".into(),
            profile: "release".into(),
            git_rev: rev.into(),
            git_dirty: false,
        }
    }

    fn write_set(dir: &Path, h: &Host, value: f64) {
        std::fs::create_dir_all(dir).unwrap();
        let mut out = Outcome::default();
        out.record(Ok(()));
        out.set("op_p50_s", value, 3);
        std::fs::write(dir.join("run.json"), result_file(h, "w", 1, false, &out)).unwrap();
    }

    #[test]
    fn compare_prints_both_sides_and_refuses_other_hosts() {
        let root = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
        write_set(&a, &host(2, "aaa"), 1.0);
        write_set(&b, &host(2, "bbb"), 1.5);
        write_set(&c, &host(8, "aaa"), 1.0);
        let table = compare(&a, &b).unwrap();
        assert!(
            table.contains("op_p50_s") && table.contains("1.5000"),
            "{table}"
        );
        assert!(compare(&a, &c).unwrap_err().contains("host records differ"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome::default();
        out.record(Ok(()));
        out.set("setup_s", 0.5, 3);
        let doc = Json::parse(&result_line(&out)).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
