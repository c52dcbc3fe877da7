//! One deck run, parse → results, through the library's public entry
//! points — untraced as `mems run` does it, or traced with the
//! matrix decorator installed in `RunCtx.ws`.

use crate::trace::{MatrixTrace, Recorder, TimedSystem};
use mems_netlist::elab::{param_env, sim_options};
use mems_netlist::{
    run_elaborated_ctx, AnalysisOutcome, Deck, DeckRun, Elaborator, ParamEnv, RunCtx,
};
use mems_spice::solver::Workspace;
use mems_spice::system::{DenseSystem, SolverStats};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The untraced op: what `mems run` does with a deck's text.
pub fn run_plain(text: &str) -> Result<DeckRun, String> {
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let elab = Elaborator::new(&deck).map_err(|e| e.to_string())?;
    run_elaborated_ctx(&elab, &ParamEnv::new(), &mut RunCtx::default()).map_err(|e| e.to_string())
}

/// Per-op layer figures from one traced run. Times in seconds.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub op_s: f64,
    pub parse_s: f64,
    pub elab_s: f64,
    pub assemble_s: f64,
    pub factor_cold_s: f64,
    pub refactor_s: f64,
    pub solve_s: f64,
    pub step_ctl_s: f64,
    pub assemble_n: u64,
    pub stamps: u64,
    pub factor_cold_n: u64,
    pub refactor_n: u64,
    pub solve_n: u64,
}

impl LayerSample {
    /// Self time of the seven traced layers over the op's wall time.
    pub fn coverage(&self) -> f64 {
        (self.parse_s
            + self.elab_s
            + self.assemble_s
            + self.factor_cold_s
            + self.refactor_s
            + self.solve_s
            + self.step_ctl_s)
            / self.op_s
    }

    pub fn add(&mut self, o: &LayerSample) {
        self.add_times(o, 1);
    }

    /// Adds `k` copies of `o`.
    pub fn add_times(&mut self, o: &LayerSample, k: u64) {
        let kf = k as f64;
        self.op_s += kf * o.op_s;
        self.parse_s += kf * o.parse_s;
        self.elab_s += kf * o.elab_s;
        self.assemble_s += kf * o.assemble_s;
        self.factor_cold_s += kf * o.factor_cold_s;
        self.refactor_s += kf * o.refactor_s;
        self.solve_s += kf * o.solve_s;
        self.step_ctl_s += kf * o.step_ctl_s;
        self.assemble_n += k * o.assemble_n;
        self.stamps += k * o.stamps;
        self.factor_cold_n += k * o.factor_cold_n;
        self.refactor_n += k * o.refactor_n;
        self.solve_n += k * o.solve_n;
    }
}

/// A run context whose real-system workspace carries the timing
/// decorator. `n` is the deck's unknown count: the decorated workspace
/// must be sized for it, or the first analysis would replace it (and
/// the decorator with it).
pub fn traced_ctx(
    deck: &Deck,
    overrides: &ParamEnv,
    n: usize,
    op: u64,
    parent: usize,
) -> Result<(RunCtx, Arc<Mutex<MatrixTrace>>), String> {
    let env = param_env(deck, overrides).map_err(|e| e.to_string())?;
    let sim = sim_options(deck, &env).map_err(|e| e.to_string())?;
    let mut ws =
        Workspace::with_solver(n, sim.matrix, sim.ordering, sim.factor, sim.factor_threads);
    let inner = std::mem::replace(&mut ws.sys, Box::new(DenseSystem::new(0)));
    let (timed, trace) = TimedSystem::wrap(inner, op, parent);
    ws.sys = Box::new(timed);
    let mut ctx = RunCtx::default();
    ctx.ws = Some(ws);
    Ok((ctx, trace))
}

/// Closes one `run_elaborated_ctx` call on a decorated context that
/// ran from `start` to `end`: moves its spans under `parent` and sums
/// them by layer. The circuit build (elaboration inside the run) ends
/// at the first assembly; what follows the last solve is result
/// collection. `op_s` is the call's wall time and `elab_s` its build.
pub fn collect(
    trace: &Mutex<MatrixTrace>,
    rec: &mut Recorder,
    start: Instant,
    end: Instant,
    parent: usize,
    op: u64,
) -> Result<LayerSample, String> {
    let mut t = trace
        .lock()
        .expect("trace lock is never held across a panic");
    let (Some(first_clear), Some(last_mark)) = (t.first_clear, t.last_mark) else {
        return Err("the analysis replaced the decorated workspace".into());
    };
    rec.push("netlist.build", start, first_clear, Some(parent), op);
    rec.push("netlist.output", last_mark, end, Some(parent), op);
    let first = rec.spans.len();
    t.drain_into(rec);
    let mut s = LayerSample {
        op_s: (end - start).as_secs_f64(),
        elab_s: (first_clear - start).as_secs_f64(),
        assemble_n: t.assemble_n,
        stamps: t.stamps,
        factor_cold_n: t.factor_cold_n,
        refactor_n: t.refactor_n,
        solve_n: t.solve_n,
        ..LayerSample::default()
    };
    for span in &rec.spans[first..] {
        let d = (span.end - span.start) as f64 * 1e-9;
        match span.name {
            "spice.assemble" => s.assemble_s += d,
            "numerics.factor_cold" => s.factor_cold_s += d,
            "numerics.refactor" => s.refactor_s += d,
            "numerics.solve" => s.solve_s += d,
            "spice.step_control" => s.step_ctl_s += d,
            _ => {}
        }
    }
    Ok(s)
}

/// The traced op: [`run_plain`] with the decorator installed.
pub fn run_traced(
    text: &str,
    n: usize,
    overrides: &ParamEnv,
    rec: &mut Recorder,
    op: u64,
) -> Result<(DeckRun, LayerSample), String> {
    let t0 = Instant::now();
    let op_span = rec.push("op", t0, t0, None, op);
    let deck = Deck::parse(text).map_err(|e| e.to_string())?;
    let t_parse = Instant::now();
    rec.push("netlist.parse", t0, t_parse, Some(op_span), op);
    let elab = Elaborator::new(&deck).map_err(|e| e.to_string())?;
    let t_elab = Instant::now();
    rec.push("netlist.elab", t_parse, t_elab, Some(op_span), op);

    let (mut ctx, trace) = traced_ctx(&deck, overrides, n, op, op_span)?;
    let run = run_elaborated_ctx(&elab, overrides, &mut ctx).map_err(|e| e.to_string())?;
    let t_end = Instant::now();
    let mut s = collect(&trace, rec, t_elab, t_end, op_span, op)?;
    rec.spans[op_span].end = rec.ns(t_end);
    s.op_s = (t_end - t0).as_secs_f64();
    s.parse_s = (t_parse - t0).as_secs_f64();
    s.elab_s += (t_elab - t_parse).as_secs_f64();
    Ok((run, s))
}

/// Counts a run reports about itself: Newton iterations and rejected
/// steps from the analyses, factor counters from the real system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub newton_iters: u64,
    pub rejected_steps: u64,
    pub factors: u64,
    pub refactors: u64,
    pub fallbacks: u64,
}

pub fn counts(run: &DeckRun) -> RunCounts {
    let mut c = RunCounts::default();
    for (_, outcome) in &run.outcomes {
        match outcome {
            AnalysisOutcome::Op(op) => c.newton_iters += op.iterations as u64,
            AnalysisOutcome::Tran(tr) => {
                c.newton_iters += tr.total_newton_iterations as u64;
                c.rejected_steps += tr.rejected_steps as u64;
            }
            _ => {}
        }
    }
    let st = real_stats(run);
    c.factors = st.factors;
    c.refactors = st.refactors;
    c.fallbacks = st.fallbacks;
    c
}

/// Solver statistics of the run's real (Newton/transient) system.
pub fn real_stats(run: &DeckRun) -> SolverStats {
    run.solver
        .iter()
        .find(|(label, _)| label == "real")
        .map(|(_, st)| *st)
        .unwrap_or_default()
}

/// Every number a run produced, as bit patterns: the traced run must
/// reproduce the untraced one exactly.
pub fn result_bits(run: &DeckRun) -> Vec<u64> {
    let mut bits = Vec::new();
    for (_, outcome) in &run.outcomes {
        match outcome {
            AnalysisOutcome::Op(op) => bits.extend(op.x.iter().map(|v| v.to_bits())),
            AnalysisOutcome::Tran(tr) => {
                bits.extend(tr.time.iter().map(|v| v.to_bits()));
                for row in &tr.samples {
                    bits.extend(row.iter().map(|v| v.to_bits()));
                }
            }
            AnalysisOutcome::Ac(_) | AnalysisOutcome::Dc { .. } => {}
        }
    }
    bits
}
