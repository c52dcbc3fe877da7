//! The two deck workloads: `tran_grid2d` (one pattern, thousands of
//! Newton iterations) and `op_cold_mesh3d` (a new pattern every op).
//! One op is one deck run, parse → results, on the calling thread.

use crate::deck::{self, counts, real_stats, result_bits, LayerSample, RunCounts};
use crate::gen::{self, GenDeck};
use crate::report::{end_to_end, Ops, Outcome};
use crate::stats::median;
use crate::trace::Recorder;
use crate::Cfg;
use mems_netlist::elab::{param_env, sim_options};
use mems_netlist::{AnalysisOutcome, Deck, DeckRun, Elaborator, ParamEnv};
use mems_spice::device::LoadKind;
use mems_spice::solver::{assemble, Workspace};
use std::collections::HashSet;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: u64 = 5;

/// Relative tolerance of the `.TRAN` probe against the reference,
/// scaled by the probe's peak. The two solver paths pivot in a
/// different order and so differ in rounding, and rounding can move an
/// LTE step decision, after which the waveforms agree to the
/// integrator's accuracy, not to the ulp.
pub const TRAN_REL_TOL: f64 = 1e-6;

/// Empties the process-wide ordering and symbolic caches, so the next
/// factor of any pattern starts cold as in a fresh `mems run`.
fn clear_caches() {
    mems_numerics::ordering::clear_cache();
    mems_numerics::supernodal::clear_symbolic_cache();
}

/// A deck workload: its op stream and output check.
trait DeckWorkload {
    /// The deck of op `k` (set-up ops use indices from `u64::MAX` down).
    fn deck(&mut self, k: u64) -> GenDeck;
    /// Every op runs on a never-seen pattern and on emptied ordering
    /// and symbolic caches, as a fresh `mems run` process would; the
    /// caches then also hold no memory from earlier ops, so the peak
    /// resident set does not grow with the number of ops a run fits.
    fn cold(&self) -> bool;
    fn check(&mut self, d: &GenDeck, run: &DeckRun) -> Result<(), String>;
    /// Devices in the elaborated circuit of `d`.
    fn devices(&mut self, d: &GenDeck) -> usize;
}

pub struct TranGrid {
    deck: GenDeck,
    reference: Result<(Vec<f64>, Vec<f64>), String>,
}

impl TranGrid {
    pub fn new(cfg: &Cfg) -> TranGrid {
        let deck = gen::tran_grid(cfg.seed, 22, 22);
        // Computed once per seed, outside timing, on the alternate
        // solver path (nested-dissection order, scalar LU).
        let reference = deck::run_plain(&gen::with_reference_solver(&deck.text))
            .and_then(|run| probe_trace(&run, &deck.probe));
        TranGrid { deck, reference }
    }
}

/// `(time, values)` of the deck's `.TRAN` probe.
pub fn probe_trace(run: &DeckRun, probe: &str) -> Result<(Vec<f64>, Vec<f64>), String> {
    run.outcomes
        .iter()
        .find_map(|(_, o)| match o {
            AnalysisOutcome::Tran(tr) => Some(tr),
            _ => None,
        })
        .and_then(|tr| Some((tr.time.clone(), tr.trace(probe)?)))
        .ok_or_else(|| format!("no `.TRAN` trace {probe}"))
}

/// Compares a probe waveform with the reference, interpolating the
/// reference where the two runs took different time steps.
pub fn check_against(
    got: &(Vec<f64>, Vec<f64>),
    reference: &(Vec<f64>, Vec<f64>),
) -> Result<(), String> {
    let (rt, rv) = reference;
    let (t, v) = got;
    if rt.len() < 2 || t.is_empty() || t.last() != rt.last() {
        return Err(format!(
            "waveform span differs: {} points to t={:?}, reference {} points to t={:?}",
            t.len(),
            t.last(),
            rt.len(),
            rt.last()
        ));
    }
    let peak = rv.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tol = TRAN_REL_TOL * peak.max(1e-12);
    for (&ti, &vi) in t.iter().zip(v) {
        let j = rt.partition_point(|&x| x < ti).clamp(1, rt.len() - 1);
        let (t0, t1) = (rt[j - 1], rt[j]);
        let w = if t1 > t0 {
            ((ti - t0) / (t1 - t0)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let r = rv[j - 1] + (rv[j] - rv[j - 1]) * w;
        let within = (vi - r).abs() <= tol;
        if !within {
            return Err(format!(
                "probe {vi:e} at t={ti:e} vs reference {r:e} (tol {tol:e})"
            ));
        }
    }
    Ok(())
}

impl DeckWorkload for TranGrid {
    fn deck(&mut self, _k: u64) -> GenDeck {
        self.deck.clone()
    }

    fn cold(&self) -> bool {
        false
    }

    fn check(&mut self, d: &GenDeck, run: &DeckRun) -> Result<(), String> {
        let reference = self
            .reference
            .as_ref()
            .map_err(|e| format!("reference failed: {e}"))?;
        check_against(&probe_trace(run, &d.probe)?, reference)
    }

    fn devices(&mut self, d: &GenDeck) -> usize {
        build_devices(&d.text).unwrap_or(0)
    }
}

fn build_devices(text: &str) -> Result<usize, String> {
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let elab = Elaborator::new(&deck).map_err(|e| e.to_string())?;
    let (ckt, _) = elab
        .build(&ParamEnv::new(), None)
        .map_err(|e| e.to_string())?;
    Ok(ckt.devices().len())
}

pub struct ColdMesh {
    seed: u64,
    g: usize,
    devices: usize,
}

impl ColdMesh {
    pub fn new(cfg: &Cfg) -> ColdMesh {
        ColdMesh {
            seed: cfg.seed,
            g: 14,
            devices: 0,
        }
    }
}

/// KCL check at a returned operating point: one assembly at `x` must
/// give `|F_k| ≤ reltol·row_scale_k + abstol_k` on every row.
pub fn check_op_residual(text: &str, x: &[f64]) -> Result<usize, String> {
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let elab = Elaborator::new(&deck).map_err(|e| e.to_string())?;
    let env = param_env(&deck, &ParamEnv::new()).map_err(|e| e.to_string())?;
    let sim = sim_options(&deck, &env).map_err(|e| e.to_string())?;
    let (mut ckt, _) = elab
        .build(&ParamEnv::new(), None)
        .map_err(|e| e.to_string())?;
    let layout = ckt.layout();
    if x.len() != layout.n_unknowns {
        return Err(format!(
            "{} unknowns returned, {} expected",
            x.len(),
            layout.n_unknowns
        ));
    }
    let n = layout.n_unknowns;
    let mut ws =
        Workspace::with_solver(n, sim.matrix, sim.ordering, sim.factor, sim.factor_threads);
    let kind = LoadKind::Dc {
        gmin: sim.gmin,
        source_scale: 1.0,
    };
    assemble(&mut ckt, &layout, kind, sim.gmin, x, &mut ws).map_err(|e| e.to_string())?;
    for k in 0..n {
        let tol = sim.reltol * ws.row_scale[k] + sim.abstol(layout.kinds[k]);
        let within = ws.resid[k].abs() <= tol;
        if !within {
            return Err(format!(
                "row {} residual {:e} over tolerance {tol:e}",
                layout.labels[k], ws.resid[k]
            ));
        }
    }
    Ok(ckt.devices().len())
}

impl DeckWorkload for ColdMesh {
    fn deck(&mut self, k: u64) -> GenDeck {
        gen::cold_mesh3d(gen::sub_seed(self.seed, k), self.g)
    }

    fn cold(&self) -> bool {
        true
    }

    fn check(&mut self, d: &GenDeck, run: &DeckRun) -> Result<(), String> {
        let x = run
            .outcomes
            .iter()
            .find_map(|(_, o)| match o {
                AnalysisOutcome::Op(op) => Some(&op.x),
                _ => None,
            })
            .ok_or("no operating point")?;
        self.devices = check_op_residual(&d.text, x)?;
        Ok(())
    }

    fn devices(&mut self, _d: &GenDeck) -> usize {
        self.devices
    }
}

/// Result points an op returns: waveform samples, or 1 per `.OP`.
fn points(run: &DeckRun) -> u64 {
    run.outcomes
        .iter()
        .map(|(_, o)| match o {
            AnalysisOutcome::Tran(tr) => tr.time.len() as u64,
            _ => 1,
        })
        .sum()
}

/// One untraced op: generation outside the clock, check after it.
fn plain_op<W: DeckWorkload>(
    w: &mut W,
    d: &GenDeck,
    seen: &mut HashSet<u64>,
) -> (f64, Result<DeckRun, String>) {
    let t0 = Instant::now();
    let run = deck::run_plain(&d.text);
    let latency = t0.elapsed().as_secs_f64();
    let checked = run.and_then(|run| {
        if w.cold() && !seen.insert(d.pattern_fp) {
            return Err("op repeated an earlier sparsity pattern".into());
        }
        w.check(d, &run)?;
        Ok(run)
    });
    (latency, checked)
}

fn run_deck_workload<W: DeckWorkload>(w: &mut W, cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let mut seen = HashSet::new();
    // Set-up: the untimed warm-up op, each time on empty caches.
    let mut setup = Vec::new();
    for j in 0..SETUP_REPS {
        let d = w.deck(u64::MAX - j);
        clear_caches();
        let (latency, result) = plain_op(w, &d, &mut seen);
        setup.push(latency);
        out.record(result.map(drop));
    }
    if cfg.trace {
        traced_pairs(w, cfg, &mut out, &mut seen);
        return out;
    }
    let mut ops = Ops::default();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let d = w.deck(k);
        k += 1;
        if w.cold() {
            clear_caches();
        }
        let (latency, result) = plain_op(w, &d, &mut seen);
        let pts = result.as_ref().map_or(0, points);
        ops.latency.push(latency);
        ops.first_result.push(latency);
        ops.rates.push(1.0 / latency);
        ops.point_rates.push(pts as f64 / latency);
        ops.points += pts;
        ops.window_s += latency;
        out.record(result.map(drop));
    }
    end_to_end(&mut out, &setup, &ops);
    out
}

/// The traced run: each op runs untraced, then traced, on the same
/// deck (caches emptied before each half of a cold workload). The
/// traced half must reproduce the untraced one bit for bit, with the
/// same Newton, rejection, factor, refactor and fallback counts.
fn traced_pairs<W: DeckWorkload>(w: &mut W, cfg: &Cfg, out: &mut Outcome, seen: &mut HashSet<u64>) {
    let mut rec = Recorder::new(Instant::now());
    let mut layers = LayerSample::default();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut totals = RunCounts::default();
    let (mut order_s, mut order_hits, mut factor_nnz, mut devices) = (0.0, 0u64, 0u64, 0u64);
    let mut traced_ops = 0u64;
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < cfg.seconds || k == 0 {
        let d = w.deck(k);
        if w.cold() {
            clear_caches();
        }
        let (latency, plain) = plain_op(w, &d, seen);
        plain_s.push(latency);
        if w.cold() {
            clear_caches();
        }
        let hits_before = mems_numerics::ordering::cache_stats().0;
        let traced = deck::run_traced(&d.text, d.n, &ParamEnv::new(), &mut rec, k);
        let hits = mems_numerics::ordering::cache_stats().0 - hits_before;
        k += 1;
        let result = match (&plain, traced) {
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(format!("traced run: {e}")),
            (Ok(p), Ok((t, sample))) => {
                traced_s.push(sample.op_s);
                traced_ops += 1;
                layers.add(&sample);
                let (cp, ct) = (counts(p), counts(&t));
                let st = real_stats(&t);
                order_s += st.order_us as f64 * 1e-6;
                order_hits += hits;
                factor_nnz += st.factor_nnz as u64;
                totals.newton_iters += ct.newton_iters;
                totals.rejected_steps += ct.rejected_steps;
                totals.fallbacks += ct.fallbacks;
                devices += w.devices(&d) as u64;
                if cp != ct {
                    Err(format!("traced counts {ct:?} differ from untraced {cp:?}"))
                } else if result_bits(p) != result_bits(&t) {
                    Err("traced results differ from untraced bits".into())
                } else {
                    w.check(&d, &t)
                }
            }
        };
        out.record(plain.map(drop));
        out.record(result);
    }
    let n = traced_ops.max(1) as f64;
    let per = |v: f64| v / n;
    let samples = traced_ops as usize;
    out.set("parse_s", per(layers.parse_s), samples);
    out.set("elab_s", per(layers.elab_s), samples);
    out.set("devices", per(devices as f64), samples);
    out.set("hdl_compile_s", 0.0, 0);
    out.set("assemble_s", per(layers.assemble_s), samples);
    out.set("assemble_n", per(layers.assemble_n as f64), samples);
    out.set("stamps", per(layers.stamps as f64), samples);
    out.set("newton_iters", per(totals.newton_iters as f64), samples);
    out.set("rejected_steps", per(totals.rejected_steps as f64), samples);
    out.set("step_ctl_s", per(layers.step_ctl_s), samples);
    out.set("order_s", per(order_s), samples);
    out.set("order_cache_hits", per(order_hits as f64), samples);
    out.set("factor_cold_s", per(layers.factor_cold_s), samples);
    out.set("factor_cold_n", per(layers.factor_cold_n as f64), samples);
    out.set("factor_nnz", per(factor_nnz as f64), samples);
    out.set("refactor_s", per(layers.refactor_s), samples);
    out.set("refactor_n", per(layers.refactor_n as f64), samples);
    out.set("solve_s", per(layers.solve_s), samples);
    out.set("solve_n", per(layers.solve_n as f64), samples);
    out.set("fallbacks", per(totals.fallbacks as f64), samples);
    for name in [
        "submit_p50_s",
        "artifact_hit_ratio",
        "artifact_base_n",
        "chunk_mean_s",
        "rejected_n",
        "store_bytes_written",
        "spill_read_p50_s",
    ] {
        out.set(name, 0.0, 0);
    }
    out.set(
        "trace_overhead_ratio",
        median(&traced_s) / median(&plain_s),
        samples,
    );
    out.set("span_coverage", layers.coverage(), samples);
    out.set("assemble_share", layers.assemble_s / layers.op_s, samples);
    out.set("refactor_share", layers.refactor_s / layers.op_s, samples);
    if let Err(e) = rec.write_jsonl(&cfg.trace_path) {
        out.record(Err(format!("writing {}: {e}", cfg.trace_path.display())));
    }
}

pub fn tran_grid2d(cfg: &Cfg) -> Outcome {
    run_deck_workload(&mut TranGrid::new(cfg), cfg)
}

pub fn op_cold_mesh3d(cfg: &Cfg) -> Outcome {
    run_deck_workload(&mut ColdMesh::new(cfg), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_x(run: &DeckRun) -> Vec<f64> {
        match &run.outcomes[0].1 {
            AnalysisOutcome::Op(op) => op.x.clone(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tran_check_counts_a_corrupted_waveform_as_failed() {
        let d = gen::tran_grid(5, 3, 4);
        let reference_run = deck::run_plain(&gen::with_reference_solver(&d.text)).unwrap();
        let reference = probe_trace(&reference_run, &d.probe).unwrap();
        let good = probe_trace(&deck::run_plain(&d.text).unwrap(), &d.probe).unwrap();
        let peak = good.1.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let mut bad = good.clone();
        let mid = bad.1.len() / 2;
        bad.1[mid] += 1e-3 * peak;
        let mut out = Outcome::default();
        out.record(check_against(&good, &reference));
        out.record(check_against(&bad, &reference));
        assert_eq!((out.attempted, out.failed), (2, 1), "{:?}", out.failures);
    }

    #[test]
    fn op_check_counts_a_corrupted_operating_point_as_failed() {
        let d = gen::cold_mesh3d(5, 4);
        let x = op_x(&deck::run_plain(&d.text).unwrap());
        let mut bad = x.clone();
        bad[x.len() / 2] += 1e-3;
        let mut out = Outcome::default();
        out.record(check_op_residual(&d.text, &x).map(drop));
        out.record(check_op_residual(&d.text, &bad).map(drop));
        assert_eq!((out.attempted, out.failed), (2, 1), "{:?}", out.failures);
    }

    #[test]
    fn traced_run_reproduces_the_untraced_one() {
        let d = gen::tran_grid(2, 3, 3);
        let plain = deck::run_plain(&d.text).unwrap();
        let mut rec = Recorder::new(Instant::now());
        let (traced, sample) =
            deck::run_traced(&d.text, d.n, &ParamEnv::new(), &mut rec, 0).unwrap();
        assert_eq!(result_bits(&plain), result_bits(&traced));
        assert_eq!(counts(&plain), counts(&traced));
        assert_eq!(sample.assemble_n, counts(&traced).newton_iters);
        assert!(sample.coverage() > 0.5 && sample.coverage() <= 1.0 + 1e-9);
    }
}
