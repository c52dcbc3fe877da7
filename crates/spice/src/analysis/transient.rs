//! Transient analysis: implicit integration with Newton at each step,
//! adaptive step control by local-truncation-error estimation, and
//! waveform-breakpoint snapping.

use crate::circuit::Circuit;
use crate::device::{CommitKind, LoadKind};
use crate::error::{Result, SpiceError};
use crate::output::TranResult;
use crate::solver::{newton, SimOptions, Workspace};
use mems_numerics::ode::IntegrationMethod;

/// Options for a transient run.
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Stop time [s].
    pub t_stop: f64,
    /// Initial step (default `t_stop / 1000`).
    pub h_init: Option<f64>,
    /// Maximum step (default `t_stop / 50`).
    pub h_max: Option<f64>,
    /// Minimum step before giving up (default `t_stop × 1e-12`).
    pub h_min: Option<f64>,
    /// Integration method (default trapezoidal, as in SPICE).
    pub method: IntegrationMethod,
    /// Enable LTE-based step adaptation (default true). When false the
    /// engine marches at `h_init` (still snapping to breakpoints).
    pub adaptive: bool,
    /// LTE target relative to the convergence tolerances (default 50:
    /// the step error may be 50× looser than Newton's tolerance).
    pub lte_factor: f64,
}

impl TranOptions {
    /// Sensible defaults for a run to `t_stop`.
    pub fn new(t_stop: f64) -> Self {
        TranOptions {
            t_stop,
            h_init: None,
            h_max: None,
            h_min: None,
            method: IntegrationMethod::Trapezoidal,
            adaptive: true,
            lte_factor: 50.0,
        }
    }

    /// Fixed-step variant (useful for benchmarks and convergence
    /// studies).
    pub fn fixed_step(t_stop: f64, h: f64) -> Self {
        TranOptions {
            t_stop,
            h_init: Some(h),
            h_max: Some(h),
            h_min: Some(h * 1e-6),
            method: IntegrationMethod::Trapezoidal,
            adaptive: false,
            lte_factor: 50.0,
        }
    }
}

/// Runs a transient analysis: DC operating point at `t = 0`, then
/// steps to `t_stop`.
///
/// # Errors
///
/// - propagates DC convergence failures;
/// - [`SpiceError::StepUnderflow`] when step halving bottoms out;
/// - [`SpiceError::BadOptions`] for a non-positive horizon.
pub fn run(circuit: &mut Circuit, opts: &TranOptions, sim: &SimOptions) -> Result<TranResult> {
    run_in(circuit, opts, sim, None, &mut Workspace::new(0))
}

/// [`run`] over a caller-owned [`Workspace`] (see
/// [`dcop::solve_in`](super::dcop::solve_in) for the reuse contract),
/// with a Newton guess for the initial DC operating point (e.g. the
/// previous `.STEP` batch point's operating point — same topology,
/// nearby parameter values; a wrong-length guess is ignored and a bad
/// one only costs the usual homotopy fallbacks). The DC operating
/// point and every transient step share the workspace, so the sparse
/// backend analyzes the Jacobian structure once for the whole run.
///
/// # Errors
///
/// As [`run`].
pub fn run_in(
    circuit: &mut Circuit,
    opts: &TranOptions,
    sim: &SimOptions,
    op_guess: Option<&[f64]>,
    ws: &mut Workspace,
) -> Result<TranResult> {
    // `!(x > 0.0)` (rather than `x <= 0.0`) also rejects a NaN horizon.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(opts.t_stop > 0.0) {
        return Err(SpiceError::BadOptions(format!(
            "t_stop must be positive, got {}",
            opts.t_stop
        )));
    }
    let h_init = opts.h_init.unwrap_or(opts.t_stop / 1000.0);
    let h_max = opts.h_max.unwrap_or(opts.t_stop / 50.0).max(h_init);
    let h_min = opts.h_min.unwrap_or(opts.t_stop * 1e-12);

    // Breakpoints (sorted, deduplicated, strictly inside the horizon).
    let mut breakpoints: Vec<f64> = circuit
        .devices()
        .iter()
        .flat_map(|d| d.breakpoints(opts.t_stop))
        .filter(|t| *t > 0.0 && *t < opts.t_stop)
        .collect();
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() < 1e-15);

    // Operating point at t = 0 (also commits device histories).
    let op = super::dcop::solve_in(circuit, sim, op_guess, ws)?;
    let layout = op.layout.clone();

    let mut result = TranResult {
        time: vec![0.0],
        labels: layout.labels.clone(),
        samples: vec![op.x.clone()],
        total_newton_iterations: op.iterations,
        rejected_steps: 0,
    };

    let mut t = 0.0f64;
    let mut x = op.x.clone();
    let mut x_prev: Option<(f64, Vec<f64>)> = None; // (h_prev, solution before x)
    let mut h = h_init.min(h_max);
    let mut bp_idx = 0usize;
    let trace = std::env::var_os("MEMS_SPICE_TRACE").is_some();
    let mut loop_count = 0u64;
    // Restart integration with backward Euler on the first step and
    // after every breakpoint: trapezoidal needs a consistent
    // derivative history, and a waveform corner invalidates it (the
    // classic TR "ringing" failure).
    let mut be_restart = true;

    while t < opts.t_stop * (1.0 - 1e-12) {
        loop_count += 1;
        if trace && loop_count.is_multiple_of(1000) {
            eprintln!(
                "[tran] loop {loop_count}: t = {t:.9e}, h = {h:.3e}, accepted {}, rejected {}",
                result.time.len(),
                result.rejected_steps
            );
        }
        // Snap to the next breakpoint or the horizon.
        let mut h_attempt = h.min(h_max);
        let next_bp = breakpoints.get(bp_idx).copied().unwrap_or(f64::INFINITY);
        let limit = next_bp.min(opts.t_stop);
        let mut snapped = false;
        if t + h_attempt >= limit - 1e-15 * limit.abs().max(1.0) {
            h_attempt = limit - t;
            snapped = true;
        }
        if h_attempt < h_min {
            // Forced tiny step onto a breakpoint is fine; anything else
            // means the controller collapsed.
            if !snapped {
                return Err(SpiceError::StepUnderflow {
                    time: t,
                    h: h_attempt,
                });
            }
        }

        let t_new = t + h_attempt;
        let method = if be_restart {
            IntegrationMethod::BackwardEuler
        } else {
            opts.method
        };
        let kind = LoadKind::Transient {
            t: t_new,
            h: h_attempt,
            method,
        };
        let solve = newton(circuit, &layout, kind, sim.gmin, sim, &x, ws);
        match solve {
            Ok(out) => {
                result.total_newton_iterations += out.iterations;
                // LTE estimate: compare with the linear predictor.
                if opts.adaptive {
                    if let Some((h_prev, ref xp)) = x_prev {
                        let mut worst: f64 = 0.0;
                        for k in 0..layout.n_unknowns {
                            let slope = (x[k] - xp[k]) / h_prev;
                            let pred = x[k] + slope * h_attempt;
                            let tol = opts.lte_factor
                                * (sim.reltol * x[k].abs().max(out.x[k].abs())
                                    + sim.abstol(layout.kinds[k]));
                            let err = (out.x[k] - pred).abs() / tol;
                            worst = worst.max(err);
                        }
                        if worst > 1.0 && h_attempt > h_min && !snapped {
                            // Reject and retry with a smaller step.
                            result.rejected_steps += 1;
                            let order = opts.method.order() as f64;
                            let shrink = (1.0 / worst).powf(1.0 / (order + 1.0)).clamp(0.1, 0.9);
                            h = (h_attempt * shrink).max(h_min);
                            continue;
                        }
                        // Accepted: adapt the next step.
                        let order = opts.method.order() as f64;
                        let grow = if worst > 0.0 {
                            (1.0 / worst).powf(1.0 / (order + 1.0)).min(2.0)
                        } else {
                            2.0
                        };
                        h = (h_attempt * grow.max(0.5) * 0.9).clamp(h_min, h_max);
                    } else {
                        h = (h_attempt * 1.5).clamp(h_min, h_max);
                    }
                }
                // Commit.
                for dev in circuit.devices_mut() {
                    dev.commit(
                        &out.x,
                        &layout,
                        CommitKind {
                            is_dc: false,
                            h: h_attempt,
                        },
                    );
                }
                x_prev = Some((h_attempt, x.clone()));
                x = out.x;
                t = t_new;
                be_restart = false;
                if snapped && (t - next_bp).abs() < 1e-15 * next_bp.abs().max(1.0) {
                    bp_idx += 1;
                    // Restart small, with BE, after a slope discontinuity.
                    h = h_init.min(h_max);
                    x_prev = None;
                    be_restart = true;
                }
                result.time.push(t);
                result.samples.push(x.clone());
            }
            Err(SpiceError::NoConvergence { .. }) | Err(SpiceError::Device { .. }) => {
                result.rejected_steps += 1;
                let h_new = h_attempt / 4.0;
                if h_new < h_min {
                    return Err(SpiceError::StepUnderflow { time: t, h: h_new });
                }
                h = h_new;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::mechanical::{Damper, Mass, Spring};
    use crate::devices::passive::{Capacitor, Resistor};
    use crate::devices::sources::{CurrentSource, VoltageSource};
    use crate::wave::Waveform;

    #[test]
    fn rc_step_response_matches_analytic() {
        // R = 1 kΩ, C = 1 µF, step 1 V at t = 0 through PWL ramp.
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new(
            "v1",
            a,
            g,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1.0)]),
        ))
        .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
        let tau = 1e-3;
        let opts = TranOptions::new(5.0 * tau);
        let res = run(&mut c, &opts, &SimOptions::default()).unwrap();
        let vb = res.node_trace("b").unwrap();
        let t_end = *res.time.last().unwrap();
        let expect = 1.0 - (-t_end / tau).exp();
        let got = *vb.last().unwrap();
        assert!(
            (got - expect).abs() < 2e-3,
            "v(b) at {t_end}: {got} vs {expect}"
        );
        // Also check a mid-trace point against the analytic solution.
        let mid = res.time.len() / 2;
        let tm = res.time[mid];
        if tm > 2e-6 {
            let em = 1.0 - (-(tm - 1e-6) / tau).exp();
            assert!(
                (vb[mid] - em).abs() < 5e-3,
                "v(b) at {tm}: {} vs {em}",
                vb[mid]
            );
        }
    }

    #[test]
    fn resonator_rings_at_natural_frequency() {
        // Table 4 resonator: m = 1e-4 kg, k = 200 N/m, α = 40e-3 →
        // f0 ≈ 225 Hz, ζ ≈ 0.14 (under-damped).
        let mut c = Circuit::new();
        let v = c.mnode("vel").unwrap();
        let g = c.ground();
        c.add(Mass::new("m1", v, g, 1e-4)).unwrap();
        c.add(Spring::new("k1", v, g, 200.0)).unwrap();
        c.add(Damper::new("d1", v, g, 40e-3)).unwrap();
        // Force step of 1 µN.
        c.add(CurrentSource::new(
            "f1",
            g,
            v,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-5, 1e-6)]),
        ))
        .unwrap();
        let opts = TranOptions::new(60e-3);
        let res = run(&mut c, &opts, &SimOptions::default()).unwrap();
        // Displacement = spring force / k; spring force is i(k1,0).
        let f_spring = res.trace("i(k1,0)").unwrap();
        let x: Vec<f64> = f_spring.iter().map(|f| f / 200.0).collect();
        // Static deflection 1µN/200 = 5e-9 m.
        let settled = mems_numerics::stats::settled_value(&x, 0.1);
        assert!(
            (settled - 5e-9).abs() < 5e-10,
            "settled displacement {settled}"
        );
        // Ring frequency ≈ damped natural frequency.
        let f_est = mems_numerics::stats::crossing_frequency(&res.time, &x).expect("oscillates");
        let wn = (200.0f64 / 1e-4).sqrt();
        let zeta = 40e-3 / (2.0 * (200.0f64 * 1e-4).sqrt());
        let fd = wn * (1.0 - zeta * zeta).sqrt() / (2.0 * std::f64::consts::PI);
        assert!(
            (f_est - fd).abs() < fd * 0.05,
            "rings at {f_est} Hz, expected {fd}"
        );
        // Peak overshoot exists (under-damped).
        let peak = x.iter().fold(0.0f64, |m, v| m.max(*v));
        assert!(peak > settled * 1.3, "peak {peak} vs settled {settled}");
    }

    #[test]
    fn fixed_step_equals_adaptive_for_linear_rc() {
        let build = || {
            let mut c = Circuit::new();
            let a = c.enode("a").unwrap();
            let b = c.enode("b").unwrap();
            let g = c.ground();
            c.add(VoltageSource::new(
                "v1",
                a,
                g,
                Waveform::Sin {
                    offset: 0.0,
                    ampl: 1.0,
                    freq: 100.0,
                    delay: 0.0,
                    theta: 0.0,
                },
            ))
            .unwrap();
            c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
            c.add(Capacitor::new("c1", b, g, 1e-6)).unwrap();
            c
        };
        let sim = SimOptions::default();
        let mut c1 = build();
        let r1 = run(&mut c1, &TranOptions::fixed_step(0.02, 2e-5), &sim).unwrap();
        let mut c2 = build();
        let r2 = run(&mut c2, &TranOptions::new(0.02), &sim).unwrap();
        let (_, y1) = r1.resample("v(b)", 200).unwrap();
        let (_, y2) = r2.resample("v(b)", 200).unwrap();
        let diff = mems_numerics::stats::max_abs_diff(&y1, &y2);
        assert!(diff < 5e-3, "fixed vs adaptive diverge: {diff}");
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new(
            "v1",
            a,
            g,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 3e-3,
                rise: 1e-3,
                fall: 1e-3,
                width: 2e-3,
                period: 0.0,
            },
        ))
        .unwrap();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        let res = run(&mut c, &TranOptions::new(10e-3), &SimOptions::default()).unwrap();
        for bp in [3e-3, 4e-3, 6e-3, 7e-3] {
            assert!(
                res.time.iter().any(|t| (t - bp).abs() < 1e-12),
                "breakpoint {bp} missed"
            );
        }
    }

    #[test]
    fn rejects_bad_horizon() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1.0)).unwrap();
        assert!(matches!(
            run(&mut c, &TranOptions::new(0.0), &SimOptions::default()),
            Err(SpiceError::BadOptions(_))
        ));
    }
}
