//! Rebuild-per-point references for the elaborate-once differential
//! tests: every analysis of every point runs on a circuit elaborated
//! from the parse tree, never on a parameter-patched one.

// Each test binary that declares `mod common` uses only some helpers.
#![allow(dead_code)]

use mems::netlist::ast::DcSweepVar;
use mems::netlist::elab::{param_env, sim_options};
use mems::netlist::{
    batch_points_with, extract_metrics, run_elaborated_ctx, warm_start_chain, AnalysisCard,
    AnalysisOutcome, BatchResult, CancelToken, Deck, DeckRun, Elaborator, ParamEnv, PointResult,
    Result, RunCtx,
};
use mems::spice::analysis::sweep::dc_sweep;
use mems::spice::solver::Workspace;
use mems::spice::SpiceError;

/// Runs the deck's analyses with every circuit built afresh: a new
/// [`RunCtx`] per call (so no cached circuit is patched), the assembly
/// workspace `ws` carried in and back out, and each `.DC` sweep
/// rebuilt per swept value.
///
/// # Errors
///
/// As [`run_elaborated_ctx`].
pub fn run_rebuilt(
    elab: &Elaborator<'_>,
    overrides: &ParamEnv,
    ws: &mut Option<Workspace>,
    op_guess: Option<Vec<f64>>,
) -> Result<DeckRun> {
    let mut ctx = RunCtx::default();
    ctx.ws = ws.take();
    ctx.op_guess = op_guess;
    let run = run_elaborated_ctx(elab, overrides, &mut ctx);
    *ws = ctx.ws.take();
    let mut run = run?;
    // A `.DC` sweep patches one circuit from value to value; redo it
    // with a fresh build per value.
    let deck = elab.deck();
    let sim = sim_options(deck, &param_env(deck, overrides)?)?;
    for (card, outcome) in &mut run.outcomes {
        let (AnalysisCard::Dc { sweep, .. }, AnalysisOutcome::Dc { result, .. }) = (card, outcome)
        else {
            continue;
        };
        let build = |v: f64| {
            let built = match sweep {
                DcSweepVar::Source(src) => elab.build(overrides, Some((src.as_str(), v))),
                DcSweepVar::Param(p) => {
                    let mut o = overrides.clone();
                    o.insert(p.clone(), v);
                    elab.build(&o, None)
                }
            };
            built
                .map(|(ckt, _)| ckt)
                .map_err(|e| SpiceError::Build(e.to_string()))
        };
        *result = dc_sweep(build, &result.values, &sim)?;
    }
    Ok(run)
}

/// The deck's `.STEP`/`.MC` batch with every point rebuilt through
/// [`run_rebuilt`]: the same point list and warm-start guesses as
/// `run_batch`, the points dealt round-robin to `threads` workers that
/// each carry one workspace from point to point.
pub fn run_batch_rebuilt(deck: &Deck, threads: usize) -> BatchResult {
    let elab = Elaborator::new(deck).expect("deck elaborates");
    let points = batch_points_with(&elab).expect("deck batches");
    let guesses = warm_start_chain(deck, &elab, &points, true, &CancelToken::new());
    let mut results: Vec<PointResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                let (points, guesses) = (&points, &guesses);
                scope.spawn(move || {
                    let elab = Elaborator::new(deck).expect("deck elaborates");
                    let mut ws = None;
                    points
                        .iter()
                        .skip(w)
                        .step_by(threads)
                        .map(|point| {
                            let overrides: ParamEnv = point.overrides.iter().cloned().collect();
                            let guess = guesses.as_ref().and_then(|g| g[point.index].clone());
                            let outcome = run_rebuilt(&elab, &overrides, &mut ws, guess)
                                .map(|run| extract_metrics(deck, &run))
                                .map_err(|e| e.to_string());
                            PointResult {
                                point: point.clone(),
                                outcome,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("worker finishes"))
            .collect()
    });
    results.sort_by_key(|r| r.point.index);
    BatchResult {
        points: results,
        threads_used: threads,
        cancelled: false,
    }
}

/// Asserts two batches report the same points with bit-identical
/// metrics (failures compared by message).
pub fn assert_batches_bit_identical(a: &BatchResult, b: &BatchResult, what: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{what}: point count");
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(p.point, q.point, "{what}");
        match (&p.outcome, &q.outcome) {
            (Ok(mp), Ok(mq)) => {
                assert_eq!(mp.len(), mq.len(), "{what}: metric count");
                for (x, y) in mp.iter().zip(mq) {
                    assert_eq!(x.name, y.name, "{what}");
                    assert_eq!(
                        x.value.to_bits(),
                        y.value.to_bits(),
                        "{what}: point {} {}: {:e} vs {:e}",
                        p.point.index,
                        x.name,
                        x.value,
                        y.value
                    );
                }
            }
            (ep, eq) => assert_eq!(ep, eq, "{what}: point {}", p.point.index),
        }
    }
}
