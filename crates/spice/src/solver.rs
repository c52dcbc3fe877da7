//! Shared Newton–Raphson machinery.
//!
//! Every analysis formulates `F(x) = 0` over the unknown vector and
//! iterates `J·Δ = −F`. Convergence uses SPICE-style mixed criteria:
//! per-unknown update tolerances (with per-kind absolute floors) and
//! residual tolerances scaled by the magnitude of the terms that were
//! summed into each row.

use crate::circuit::{Circuit, UnknownKind, UnknownLayout};
use crate::device::{LoadCtx, LoadKind};
use crate::error::{Result, SpiceError};
use crate::system::{FactorKind, FillOrdering, MatrixBackend, SolverPolicy, SystemMatrix};
use mems_hdl::Nature;

/// Global simulator options (tolerances, iteration budgets).
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Relative tolerance on unknown updates and residuals.
    pub reltol: f64,
    /// Absolute tolerance for electrical node voltages [V].
    pub abstol_voltage: f64,
    /// Absolute tolerance for non-electrical across quantities
    /// (velocities m/s, pressures Pa, …).
    pub abstol_across: f64,
    /// Absolute tolerance for internal unknowns (currents A, forces N).
    pub abstol_internal: f64,
    /// Newton iteration budget per solve.
    pub max_iter: usize,
    /// Leak conductance from every node to ground.
    pub gmin: f64,
    /// Maximum per-iteration update magnitude (Newton damping); `0`
    /// disables limiting.
    pub max_step: f64,
    /// Linear-algebra backend (deck option `sparse=0/1`; `Auto`
    /// switches to sparse at
    /// [`AUTO_SPARSE_THRESHOLD`](crate::system::AUTO_SPARSE_THRESHOLD)
    /// unknowns).
    pub matrix: MatrixBackend,
    /// Fill-reducing column ordering for the sparse backend (deck
    /// option `order=nd|amd|natural|auto`; `Auto` by default).
    /// Ignored by the dense backend.
    pub ordering: FillOrdering,
    /// Numeric factorization path for the sparse backend (deck option
    /// `factor=auto|scalar|super`; `Auto` switches to the supernodal
    /// engine at
    /// [`SUPERNODAL_AUTO_THRESHOLD`](crate::system::SUPERNODAL_AUTO_THRESHOLD)
    /// unknowns). Ignored by the dense backend.
    pub factor: FactorKind,
    /// Worker threads for the supernodal factorization (deck option
    /// `factor_threads=<n>`; `0` = auto, see
    /// [`mems_numerics::par::resolve_factor_threads`]).
    pub factor_threads: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            reltol: 1e-6,
            abstol_voltage: 1e-9,
            abstol_across: 1e-12,
            abstol_internal: 1e-12,
            max_iter: 100,
            gmin: 1e-12,
            max_step: 0.0,
            matrix: MatrixBackend::Auto,
            ordering: FillOrdering::default(),
            factor: FactorKind::default(),
            factor_threads: 0,
        }
    }
}

impl SimOptions {
    /// Absolute tolerance for one unknown kind.
    pub fn abstol(&self, kind: UnknownKind) -> f64 {
        match kind {
            UnknownKind::NodeAcross(Nature::Electrical) => self.abstol_voltage,
            UnknownKind::NodeAcross(_) => self.abstol_across,
            UnknownKind::Internal => self.abstol_internal,
        }
    }

    /// The solver policy these options select.
    pub fn solver_policy(&self) -> SolverPolicy {
        SolverPolicy {
            backend: self.matrix,
            ordering: self.ordering,
            factor: self.factor,
            factor_threads: self.factor_threads,
        }
    }
}

/// Reusable assembly storage (avoids reallocating each iteration —
/// and, on the sparse backend, carries the sparsity pattern and
/// symbolic factorization across Newton iterations, transient steps,
/// analyses, and batch points with identical structure).
pub struct Workspace {
    /// System (Jacobian) matrix behind the backend-agnostic trait.
    pub sys: Box<dyn SystemMatrix<f64>>,
    /// Residual vector.
    pub resid: Vec<f64>,
    /// Row scales (sums of |terms| per row).
    pub row_scale: Vec<f64>,
    policy: SolverPolicy,
}

impl Workspace {
    /// Allocates a workspace for `n` unknowns under the default solver
    /// policy.
    pub fn new(n: usize) -> Self {
        Self::from_policy(n, SolverPolicy::default())
    }

    /// Allocates a workspace with the full solver policy: backend,
    /// sparse ordering, numeric factorization path, and thread budget
    /// (the [`SimOptions::matrix`]/[`SimOptions::ordering`]/
    /// [`SimOptions::factor`]/[`SimOptions::factor_threads`] tuple).
    pub fn with_solver(
        n: usize,
        backend: MatrixBackend,
        ordering: FillOrdering,
        factor: FactorKind,
        factor_threads: usize,
    ) -> Self {
        Self::from_policy(
            n,
            SolverPolicy {
                backend,
                ordering,
                factor,
                factor_threads,
            },
        )
    }

    fn from_policy(n: usize, policy: SolverPolicy) -> Self {
        Workspace {
            sys: policy.build(n),
            resid: vec![0.0; n],
            row_scale: vec![0.0; n],
            policy,
        }
    }

    /// Unknown count the workspace is sized for.
    pub fn n(&self) -> usize {
        self.sys.n()
    }

    /// Re-targets the workspace to `n` unknowns under the solver policy
    /// of `sim`, keeping all cached structure (sparsity pattern, column
    /// ordering, symbolic factorization) when the current system still
    /// fits (see [`SolverPolicy::fits`]). This is the reuse hook for
    /// sweeps and `.STEP`/`.MC` batches: same topology → same layout →
    /// the expensive analysis happens once.
    pub fn ensure_solver(&mut self, n: usize, sim: &SimOptions) {
        let want = sim.solver_policy();
        if !self.policy.fits(self.sys.n(), n, &want) {
            *self = Workspace::from_policy(n, want);
        }
    }
}

/// Assembles `F` and `J` at iterate `x`.
///
/// # Errors
///
/// Propagates device evaluation failures.
pub fn assemble(
    circuit: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    x: &[f64],
    ws: &mut Workspace,
) -> Result<()> {
    ws.sys.clear();
    ws.resid.iter_mut().for_each(|v| *v = 0.0);
    ws.row_scale.iter_mut().for_each(|v| *v = 0.0);
    {
        let mut ctx = LoadCtx::new(
            kind,
            layout,
            x,
            ws.sys.as_mut(),
            &mut ws.resid,
            &mut ws.row_scale,
        );
        for dev in circuit.devices_mut() {
            dev.load(&mut ctx)?;
        }
    }
    // gmin leak on node rows keeps floating nodes solvable.
    if gmin > 0.0 {
        for (k, kind) in layout.kinds.iter().enumerate() {
            if matches!(kind, UnknownKind::NodeAcross(_)) {
                ws.resid[k] += gmin * x[k];
                ws.sys.add(k, k, gmin);
            }
        }
    }
    Ok(())
}

/// Newton solve outcome.
#[derive(Debug, Clone)]
pub struct NewtonOutcome {
    /// The converged solution.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
}

/// Runs the Newton iteration from `x0`.
///
/// # Errors
///
/// - [`SpiceError::NoConvergence`] when the budget is exhausted;
/// - [`SpiceError::Singular`] from the linear solver;
/// - device errors from assembly.
pub fn newton(
    circuit: &mut Circuit,
    layout: &UnknownLayout,
    kind: LoadKind,
    gmin: f64,
    opts: &SimOptions,
    x0: &[f64],
    ws: &mut Workspace,
) -> Result<NewtonOutcome> {
    let n = layout.n_unknowns;
    let mut x = x0.to_vec();
    for it in 0..opts.max_iter {
        assemble(circuit, layout, kind, gmin, &x, ws)?;
        if !ws.sys.all_finite() {
            return Err(SpiceError::Device {
                device: "<assembly>".into(),
                detail: "non-finite Jacobian entry".into(),
            });
        }
        if let Some(k) = ws.resid.iter().position(|f| !f.is_finite()) {
            return Err(SpiceError::Device {
                device: "<assembly>".into(),
                detail: format!("non-finite residual in row {}", layout.labels[k]),
            });
        }
        ws.sys.factor().map_err(|e| {
            SpiceError::Singular(format!(
                "{e} (unknowns: {})",
                worst_rows(layout, &ws.row_scale)
            ))
        })?;
        let neg_f: Vec<f64> = ws.resid.iter().map(|f| -f).collect();
        let mut delta = ws.sys.solve(&neg_f)?;

        // Optional damping.
        if opts.max_step > 0.0 {
            let worst = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
            if worst > opts.max_step {
                let k = opts.max_step / worst;
                delta.iter_mut().for_each(|d| *d *= k);
            }
        }

        // Both criteria are written as `<= tol`, so a NaN update or
        // residual never passes.
        let mut converged = true;
        for k in 0..n {
            let x_new = x[k] + delta[k];
            let tol = opts.reltol * x[k].abs().max(x_new.abs()) + opts.abstol(layout.kinds[k]);
            converged &= delta[k].abs() <= tol;
            x[k] = x_new;
        }
        // Residual criterion on the *pre-update* residual: a row must
        // be small relative to the terms that built it.
        converged = converged
            && (0..n).all(|k| {
                ws.resid[k].abs() <= opts.reltol * ws.row_scale[k] + opts.abstol(layout.kinds[k])
            });
        if converged {
            return Ok(NewtonOutcome {
                x,
                iterations: it + 1,
            });
        }
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton".into(),
        detail: format!("{} iterations exhausted", opts.max_iter),
    })
}

fn worst_rows(layout: &UnknownLayout, row_scale: &[f64]) -> String {
    let mut idx: Vec<usize> = (0..row_scale.len()).collect();
    idx.sort_by(|&a, &b| row_scale[a].total_cmp(&row_scale[b]));
    idx.iter()
        .take(3)
        .map(|&i| layout.labels[i].as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::devices::controlled::ProductVccs;
    use crate::devices::passive::Resistor;
    use crate::devices::sources::{CurrentSource, VoltageSource};
    use crate::wave::Waveform;

    fn dc_kind() -> LoadKind {
        LoadKind::Dc {
            gmin: 0.0,
            source_scale: 1.0,
        }
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(VoltageSource::new("v1", a, g, Waveform::Dc(10.0)))
            .unwrap();
        c.add(Resistor::new("r1", a, b, 1e3)).unwrap();
        c.add(Resistor::new("r2", b, g, 3e3)).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        )
        .unwrap();
        let va = layout.node_value(&out.x, a);
        let vb = layout.node_value(&out.x, b);
        assert!((va - 10.0).abs() < 1e-9);
        assert!((vb - 7.5).abs() < 1e-8);
        // Branch current of the source: −10 V across 4 kΩ total.
        let j = out.x[2];
        assert!((j + 2.5e-3).abs() < 1e-9, "source current {j}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(CurrentSource::new("i1", g, a, Waveform::Dc(1e-3)))
            .unwrap();
        c.add(Resistor::new("r1", a, g, 2e3)).unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &[0.0],
            &mut ws,
        )
        .unwrap();
        // 1 mA pushed into node a across 2 kΩ → 2 V (gmin shifts ~nV).
        assert!((out.x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn nonlinear_product_source_converges() {
        // i = k·v·v with a 1 A pull-up: v² = 1/k → v = sqrt(1/k).
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let g = c.ground();
        c.add(CurrentSource::new("i1", g, a, Waveform::Dc(1.0)))
            .unwrap();
        c.add(ProductVccs::new("q1", a, g, a, g, a, g, 0.25))
            .unwrap();
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            opts.gmin,
            &opts,
            &[1.0],
            &mut ws,
        )
        .unwrap();
        assert!((out.x[0] - 2.0).abs() < 1e-9, "v = {}", out.x[0]);
        assert!(out.iterations < 20);
    }

    #[test]
    fn floating_node_is_singular_without_gmin() {
        let mut c = Circuit::new();
        let a = c.enode("a").unwrap();
        let b = c.enode("b").unwrap();
        let g = c.ground();
        c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        // b floats.
        let _ = b;
        let layout = c.layout();
        let mut ws = Workspace::new(layout.n_unknowns);
        let opts = SimOptions::default();
        let err = newton(
            &mut c,
            &layout,
            dc_kind(),
            0.0,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        );
        assert!(matches!(err, Err(SpiceError::Singular(_))));
        // With gmin it solves (b pulled to 0).
        let out = newton(
            &mut c,
            &layout,
            dc_kind(),
            1e-12,
            &opts,
            &vec![0.0; layout.n_unknowns],
            &mut ws,
        )
        .unwrap();
        assert_eq!(out.x[1], 0.0);
    }

    /// `SIN(0 1 1e308)` evaluates `sin(inf · 0)` = NaN at `t = 0`.
    fn nan_source_circuit(parallel_source: bool) -> Circuit {
        let mut c = Circuit::new();
        let a = c.enode("in").unwrap();
        let g = c.ground();
        let sin = Waveform::Sin {
            offset: 0.0,
            ampl: 1.0,
            freq: 1e308,
            delay: 0.0,
            theta: 0.0,
        };
        c.add(VoltageSource::new("v1", a, g, sin)).unwrap();
        if parallel_source {
            c.add(VoltageSource::new("v2", a, g, Waveform::Dc(1.0)))
                .unwrap();
        } else {
            c.add(Resistor::new("r1", a, g, 1e3)).unwrap();
        }
        c
    }

    #[test]
    fn nan_residual_fails_the_operating_point() {
        for parallel_source in [false, true] {
            let mut c = nan_source_circuit(parallel_source);
            let err = crate::analysis::dcop::solve(&mut c, &SimOptions::default())
                .expect_err("a NaN source must not converge");
            assert!(
                err.to_string()
                    .contains("non-finite residual in row i(v1,0)"),
                "{err}"
            );
        }
    }

    #[test]
    fn nan_residual_fails_the_transient() {
        let mut c = nan_source_circuit(false);
        let opts = crate::analysis::transient::TranOptions::new(3e-3);
        let err = crate::analysis::transient::run(&mut c, &opts, &SimOptions::default())
            .expect_err("a NaN source must not produce a waveform");
        assert!(err.to_string().contains("non-finite residual"), "{err}");
    }

    #[test]
    fn worst_rows_orders_nan_scales_last() {
        let mut c = Circuit::new();
        for name in ["a", "b", "c"] {
            c.enode(name).unwrap();
        }
        let layout = c.layout();
        assert_eq!(
            worst_rows(&layout, &[f64::NAN, 2.0, 1.0]),
            "v(c), v(b), v(a)"
        );
    }
}
