//! The dual-number interpreter for compiled models.
//!
//! One generic tree-walking evaluator covers every analysis:
//!
//! - **DC / transient** use [`DualReal`]: a value plus a real gradient
//!   with one entry per circuit unknown, giving the Newton Jacobian
//!   row contributions directly (forward-mode AD).
//! - **AC** uses [`DualComplex`]: the value part is the DC operating
//!   point, the gradient is complex, and `ddt`/`integ` multiply
//!   gradients by `jω` / `1/(jω)` — producing the exact small-signal
//!   linearization of the behavioral model.
//!
//! The enclosing simulator implements [`EvalEnv`] to supply across
//! quantities and receive contributions/residuals.
//!
//! Instances run on the bytecode VM ([`crate::bytecode`]); this tree
//! walk is the reference it is tested against, called directly by the
//! differential tests and the evaluator benchmarks.

use crate::ast::{BinOp, UnOp};
use crate::compile::{fold_binop, Builtin, CExpr, CStmt, CompiledModel};
use crate::error::{HdlError, Result};
use mems_numerics::ode::{DiffFormula, IntegFormula, IntegrationMethod};
use mems_numerics::pwl::Pwl1;
use mems_numerics::Complex64;

/// A scalar with a (dense) gradient over the circuit unknowns.
// `len` is the gradient dimension; an "empty" AD scalar has no meaning.
#[allow(clippy::len_without_is_empty)]
pub trait AdScalar: Clone + std::fmt::Debug {
    /// Gradient entry type.
    type Grad: Copy;

    /// A constant with `n` zero gradient entries.
    fn constant(v: f64, n: usize) -> Self;
    /// The value part.
    fn value(&self) -> f64;
    /// Gradient length.
    fn len(&self) -> usize;
    /// Element-wise addition.
    fn add(&self, o: &Self) -> Self;
    /// Element-wise subtraction.
    fn sub(&self, o: &Self) -> Self;
    /// Product rule.
    fn mul(&self, o: &Self) -> Self;
    /// Quotient rule.
    fn div(&self, o: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;
    /// Unary chain rule: result value `f`, gradient `df·∇self`.
    fn chain(&self, f: f64, df: f64) -> Self;
    /// Binary chain rule: value `f`, gradient `dfa·∇a + dfb·∇b`.
    fn chain2(f: f64, dfa: f64, a: &Self, dfb: f64, b: &Self) -> Self;
    /// Returns `true` when the value and all gradients are finite.
    fn is_finite(&self) -> bool;
    /// AC semantics of `ddt`: op value 0, gradients scaled by `jω`.
    ///
    /// Only meaningful for the complex dual; the real dual returns a
    /// zero constant (it never runs the AC analysis).
    fn ac_ddt(&self, omega: f64) -> Self;
    /// AC semantics of `integ`: op value `y0`, gradients scaled by
    /// `1/(jω)`.
    fn ac_integ(&self, omega: f64, y0: f64) -> Self;

    // In-place variants used by the bytecode VM in
    // [`crate::bytecode`]: semantically identical to the allocating
    // methods above (same operations in the same order, so results
    // are bit-identical), but reusing the receiver's gradient buffer.
    // The defaults delegate to the allocating methods; [`DualReal`]
    // and [`DualComplex`] override them.

    /// `self = constant(v)` reusing the gradient buffer.
    fn set_constant(&mut self, v: f64) {
        *self = Self::constant(v, self.len());
    }
    /// `self = self + o` in place.
    fn add_assign(&mut self, o: &Self) {
        *self = self.add(o);
    }
    /// `self = self − o` in place.
    fn sub_assign(&mut self, o: &Self) {
        *self = self.sub(o);
    }
    /// `self = self · o` in place (product rule).
    fn mul_assign(&mut self, o: &Self) {
        *self = self.mul(o);
    }
    /// `self = self / o` in place (quotient rule).
    fn div_assign(&mut self, o: &Self) {
        *self = self.div(o);
    }
    /// `self = −self` in place.
    fn neg_assign(&mut self) {
        *self = self.neg();
    }
    /// `self = self.chain(f, df)` in place.
    fn chain_assign(&mut self, f: f64, df: f64) {
        *self = self.chain(f, df);
    }
    /// `self = chain2(f, dfa, self, dfb, b)` in place.
    fn chain2_assign(&mut self, f: f64, dfa: f64, dfb: f64, b: &Self) {
        *self = Self::chain2(f, dfa, self, dfb, b);
    }
    /// `self = self.ac_ddt(omega)` in place.
    fn ac_ddt_assign(&mut self, omega: f64) {
        *self = self.ac_ddt(omega);
    }
    /// `self = self.ac_integ(omega, y0)` in place.
    fn ac_integ_assign(&mut self, omega: f64, y0: f64) {
        *self = self.ac_integ(omega, y0);
    }
}

/// Real-valued dual: value + gradient per unknown.
#[derive(Debug, Clone, PartialEq)]
pub struct DualReal {
    /// Value.
    pub v: f64,
    /// Gradient entries.
    pub g: Vec<f64>,
}

impl DualReal {
    /// A seeded variable: value `v`, unit gradient at `slot`.
    pub fn variable(v: f64, n: usize, slot: usize) -> Self {
        let mut g = vec![0.0; n];
        g[slot] = 1.0;
        DualReal { v, g }
    }
}

impl AdScalar for DualReal {
    type Grad = f64;

    fn constant(v: f64, n: usize) -> Self {
        DualReal { v, g: vec![0.0; n] }
    }

    fn value(&self) -> f64 {
        self.v
    }

    fn len(&self) -> usize {
        self.g.len()
    }

    fn add(&self, o: &Self) -> Self {
        DualReal {
            v: self.v + o.v,
            g: self.g.iter().zip(&o.g).map(|(a, b)| a + b).collect(),
        }
    }

    fn sub(&self, o: &Self) -> Self {
        DualReal {
            v: self.v - o.v,
            g: self.g.iter().zip(&o.g).map(|(a, b)| a - b).collect(),
        }
    }

    fn mul(&self, o: &Self) -> Self {
        DualReal {
            v: self.v * o.v,
            g: self
                .g
                .iter()
                .zip(&o.g)
                .map(|(a, b)| a * o.v + b * self.v)
                .collect(),
        }
    }

    fn div(&self, o: &Self) -> Self {
        let inv = 1.0 / o.v;
        let v = self.v * inv;
        DualReal {
            v,
            g: self
                .g
                .iter()
                .zip(&o.g)
                .map(|(a, b)| (a - v * b) * inv)
                .collect(),
        }
    }

    fn neg(&self) -> Self {
        DualReal {
            v: -self.v,
            g: self.g.iter().map(|a| -a).collect(),
        }
    }

    fn chain(&self, f: f64, df: f64) -> Self {
        DualReal {
            v: f,
            g: self.g.iter().map(|a| df * a).collect(),
        }
    }

    fn chain2(f: f64, dfa: f64, a: &Self, dfb: f64, b: &Self) -> Self {
        DualReal {
            v: f,
            g: a.g
                .iter()
                .zip(&b.g)
                .map(|(x, y)| dfa * x + dfb * y)
                .collect(),
        }
    }

    fn is_finite(&self) -> bool {
        self.v.is_finite() && self.g.iter().all(|x| x.is_finite())
    }

    fn ac_ddt(&self, _omega: f64) -> Self {
        DualReal::constant(0.0, self.len())
    }

    fn ac_integ(&self, _omega: f64, y0: f64) -> Self {
        DualReal::constant(y0, self.len())
    }

    fn set_constant(&mut self, v: f64) {
        self.v = v;
        self.g.fill(0.0);
    }

    fn add_assign(&mut self, o: &Self) {
        self.v += o.v;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a += b;
        }
    }

    fn sub_assign(&mut self, o: &Self) {
        self.v -= o.v;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a -= b;
        }
    }

    fn mul_assign(&mut self, o: &Self) {
        // Gradients first: the product rule reads the pre-update value.
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a = *a * o.v + *b * self.v;
        }
        self.v *= o.v;
    }

    fn div_assign(&mut self, o: &Self) {
        let inv = 1.0 / o.v;
        let v = self.v * inv;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a = (*a - v * *b) * inv;
        }
        self.v = v;
    }

    fn neg_assign(&mut self) {
        self.v = -self.v;
        for a in &mut self.g {
            *a = -*a;
        }
    }

    fn chain_assign(&mut self, f: f64, df: f64) {
        self.v = f;
        for a in &mut self.g {
            *a *= df;
        }
    }

    fn chain2_assign(&mut self, f: f64, dfa: f64, dfb: f64, b: &Self) {
        self.v = f;
        for (x, y) in self.g.iter_mut().zip(&b.g) {
            *x = dfa * *x + dfb * *y;
        }
    }

    fn ac_ddt_assign(&mut self, _omega: f64) {
        self.set_constant(0.0);
    }

    fn ac_integ_assign(&mut self, _omega: f64, y0: f64) {
        self.set_constant(y0);
    }
}

/// Complex-gradient dual for AC small-signal analysis: the value is
/// the (real) DC operating point, the gradient carries phasors.
#[derive(Debug, Clone, PartialEq)]
pub struct DualComplex {
    /// Operating-point value.
    pub v: f64,
    /// Complex gradient entries.
    pub g: Vec<Complex64>,
}

impl DualComplex {
    /// A seeded variable: op value `v`, unit gradient at `slot`.
    pub fn variable(v: f64, n: usize, slot: usize) -> Self {
        let mut g = vec![Complex64::ZERO; n];
        g[slot] = Complex64::ONE;
        DualComplex { v, g }
    }

    /// Multiplies every gradient entry by a complex factor (used by
    /// the AC `ddt`/`integ` rules), with an explicit result value.
    pub fn scale_grads(&self, value: f64, k: Complex64) -> Self {
        DualComplex {
            v: value,
            g: self.g.iter().map(|z| *z * k).collect(),
        }
    }
}

impl AdScalar for DualComplex {
    type Grad = Complex64;

    fn constant(v: f64, n: usize) -> Self {
        DualComplex {
            v,
            g: vec![Complex64::ZERO; n],
        }
    }

    fn value(&self) -> f64 {
        self.v
    }

    fn len(&self) -> usize {
        self.g.len()
    }

    fn add(&self, o: &Self) -> Self {
        DualComplex {
            v: self.v + o.v,
            g: self.g.iter().zip(&o.g).map(|(a, b)| *a + *b).collect(),
        }
    }

    fn sub(&self, o: &Self) -> Self {
        DualComplex {
            v: self.v - o.v,
            g: self.g.iter().zip(&o.g).map(|(a, b)| *a - *b).collect(),
        }
    }

    fn mul(&self, o: &Self) -> Self {
        // First-order (small-signal) product rule around the op point.
        DualComplex {
            v: self.v * o.v,
            g: self
                .g
                .iter()
                .zip(&o.g)
                .map(|(a, b)| *a * o.v + *b * self.v)
                .collect(),
        }
    }

    fn div(&self, o: &Self) -> Self {
        let inv = 1.0 / o.v;
        let v = self.v * inv;
        DualComplex {
            v,
            g: self
                .g
                .iter()
                .zip(&o.g)
                .map(|(a, b)| (*a - *b * v) * inv)
                .collect(),
        }
    }

    fn neg(&self) -> Self {
        DualComplex {
            v: -self.v,
            g: self.g.iter().map(|a| -*a).collect(),
        }
    }

    fn chain(&self, f: f64, df: f64) -> Self {
        DualComplex {
            v: f,
            g: self.g.iter().map(|a| *a * df).collect(),
        }
    }

    fn chain2(f: f64, dfa: f64, a: &Self, dfb: f64, b: &Self) -> Self {
        DualComplex {
            v: f,
            g: a.g
                .iter()
                .zip(&b.g)
                .map(|(x, y)| *x * dfa + *y * dfb)
                .collect(),
        }
    }

    fn is_finite(&self) -> bool {
        self.v.is_finite() && self.g.iter().all(|z| z.is_finite())
    }

    fn ac_ddt(&self, omega: f64) -> Self {
        self.scale_grads(0.0, Complex64::new(0.0, omega))
    }

    fn ac_integ(&self, omega: f64, y0: f64) -> Self {
        self.scale_grads(y0, Complex64::new(0.0, omega).recip())
    }

    fn set_constant(&mut self, v: f64) {
        self.v = v;
        self.g.fill(Complex64::ZERO);
    }

    fn add_assign(&mut self, o: &Self) {
        self.v += o.v;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a += *b;
        }
    }

    fn sub_assign(&mut self, o: &Self) {
        self.v -= o.v;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a -= *b;
        }
    }

    fn mul_assign(&mut self, o: &Self) {
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a = *a * o.v + *b * self.v;
        }
        self.v *= o.v;
    }

    fn div_assign(&mut self, o: &Self) {
        let inv = 1.0 / o.v;
        let v = self.v * inv;
        for (a, b) in self.g.iter_mut().zip(&o.g) {
            *a = (*a - *b * v) * inv;
        }
        self.v = v;
    }

    fn neg_assign(&mut self) {
        self.v = -self.v;
        for a in &mut self.g {
            *a = -*a;
        }
    }

    fn chain_assign(&mut self, f: f64, df: f64) {
        self.v = f;
        for a in &mut self.g {
            *a = *a * df;
        }
    }

    fn chain2_assign(&mut self, f: f64, dfa: f64, dfb: f64, b: &Self) {
        self.v = f;
        for (x, y) in self.g.iter_mut().zip(&b.g) {
            *x = *x * dfa + *y * dfb;
        }
    }

    fn ac_ddt_assign(&mut self, omega: f64) {
        let k = Complex64::new(0.0, omega);
        self.v = 0.0;
        for z in &mut self.g {
            *z *= k;
        }
    }

    fn ac_integ_assign(&mut self, omega: f64, y0: f64) {
        let k = Complex64::new(0.0, omega).recip();
        self.v = y0;
        for z in &mut self.g {
            *z *= k;
        }
    }
}

/// Interface the enclosing simulator implements to host a model
/// evaluation pass.
pub trait EvalEnv<S: AdScalar> {
    /// Number of gradient entries (circuit unknowns seen by this
    /// instance: its pins' node unknowns plus its extra unknowns).
    fn n_grad(&self) -> usize;
    /// Across quantity of the branch with the given slot.
    fn across(&self, branch: usize) -> S;
    /// Value of the extra unknown with the given index.
    fn unknown(&self, index: usize) -> S;
    /// Receives a through contribution into a branch.
    fn contribute(&mut self, branch: usize, value: S);
    /// Receives an implicit-equation residual.
    fn residual(&mut self, index: usize, value: S);
    /// Receives a `REPORT` diagnostic.
    fn report(&mut self, message: &str);
}

/// Per-site `ddt` history.
#[derive(Debug, Clone, Copy, Default)]
pub struct DdtHistory {
    /// Previous argument value.
    pub x_prev: f64,
    /// Previous derivative value.
    pub dx_prev: f64,
    /// Argument value one step before `x_prev` (Gear-2).
    pub x_prev2: f64,
    /// Previous step size.
    pub h_prev: f64,
    /// Whether at least one point has been committed.
    pub primed: bool,
    /// Whether at least two points have been committed.
    pub primed2: bool,
}

/// Per-site `integ` history.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntegHistory {
    /// Committed integral value.
    pub y_prev: f64,
    /// Committed integrand value.
    pub x_prev: f64,
    /// Whether the site has been initialized (IC applied).
    pub primed: bool,
}

/// Mutable run-time storage of one model instance.
#[derive(Debug, Clone, Default)]
pub struct InstanceState {
    /// Committed values of `STATE` objects (by object slot).
    pub committed: Vec<f64>,
    /// `ddt` site histories.
    pub ddt_sites: Vec<DdtHistory>,
    /// `integ` site histories.
    pub integ_sites: Vec<IntegHistory>,
    /// Scratch: object values of the latest evaluation pass.
    pub scratch_objects: Vec<f64>,
    /// Scratch: `(x, dx/dt)` of the latest pass per ddt site.
    pub scratch_ddt: Vec<(f64, f64)>,
    /// Scratch: `(y, x)` of the latest pass per integ site.
    pub scratch_integ: Vec<(f64, f64)>,
    /// Reports emitted during the latest pass.
    pub reports: Vec<String>,
}

impl InstanceState {
    /// Allocates storage for a model.
    pub fn for_model(model: &CompiledModel) -> Self {
        InstanceState {
            committed: vec![0.0; model.objects.len()],
            ddt_sites: vec![DdtHistory::default(); model.n_ddt_sites],
            integ_sites: vec![IntegHistory::default(); model.n_integ_sites],
            scratch_objects: vec![0.0; model.objects.len()],
            scratch_ddt: vec![(0.0, 0.0); model.n_ddt_sites],
            scratch_integ: vec![(0.0, 0.0); model.n_integ_sites],
            reports: Vec::new(),
        }
    }

    /// Accepts the latest transient evaluation as the new history
    /// (call after the Newton loop converges and the step passes LTE).
    pub fn commit_transient(&mut self, h: f64) {
        for (site, scratch) in self.ddt_sites.iter_mut().zip(&self.scratch_ddt) {
            site.x_prev2 = site.x_prev;
            site.primed2 = site.primed;
            site.x_prev = scratch.0;
            site.dx_prev = scratch.1;
            site.h_prev = h;
            site.primed = true;
        }
        for (site, scratch) in self.integ_sites.iter_mut().zip(&self.scratch_integ) {
            site.y_prev = scratch.0;
            site.x_prev = scratch.1;
            site.primed = true;
        }
        self.committed.copy_from_slice(&self.scratch_objects);
    }

    /// Accepts a converged DC solution as consistent initial history:
    /// derivatives are zero at the operating point, integrals sit at
    /// their initial conditions.
    pub fn commit_dc(&mut self) {
        for (site, scratch) in self.ddt_sites.iter_mut().zip(&self.scratch_ddt) {
            site.x_prev = scratch.0;
            site.dx_prev = 0.0;
            site.x_prev2 = scratch.0;
            site.h_prev = 0.0;
            site.primed = true;
            site.primed2 = false;
        }
        for (site, scratch) in self.integ_sites.iter_mut().zip(&self.scratch_integ) {
            site.y_prev = scratch.0;
            site.x_prev = scratch.1;
            site.primed = true;
        }
        self.committed.copy_from_slice(&self.scratch_objects);
    }
}

/// Which analysis the evaluator is running.
#[derive(Debug, Clone, Copy)]
pub enum Analysis {
    /// DC operating point: `ddt → 0`, `integ → IC` (or committed value).
    Dc,
    /// Transient step at time `t` with step `h` and an implicit method.
    Transient {
        /// Absolute time of the new point.
        t: f64,
        /// Step size.
        h: f64,
        /// Integration method.
        method: IntegrationMethod,
    },
    /// Small-signal AC at angular frequency `omega`.
    Ac {
        /// Angular frequency [rad/s].
        omega: f64,
    },
}

/// Evaluates one analysis pass of a compiled model.
///
/// `generics` are the bound parameter values, `init_values` the object
/// values produced by the `init` program (NaN = not set), `tables` the
/// elaborated PWL tables.
///
/// # Errors
///
/// Returns [`HdlError::Eval`] on non-finite intermediate values,
/// failed assertions, or reads of never-assigned variables.
#[allow(clippy::too_many_arguments)]
pub fn run_pass<S: AdScalar>(
    model: &CompiledModel,
    analysis: Analysis,
    generics: &[f64],
    init_values: &[Option<f64>],
    tables: &[Pwl1],
    state: &mut InstanceState,
    env: &mut dyn EvalEnv<S>,
) -> Result<()> {
    let n = env.n_grad();
    let program = match analysis {
        Analysis::Dc => &model.dc_program,
        Analysis::Transient { .. } => &model.tran_program,
        Analysis::Ac { .. } => &model.ac_program,
    };
    // Object slot initialization.
    let mut slots: Vec<Option<S>> = Vec::with_capacity(model.objects.len());
    for (i, obj) in model.objects.iter().enumerate() {
        use crate::ast::ObjectKind::*;
        let slot = match obj.kind {
            Constant | Variable => init_values[i].map(|v| S::constant(v, n)),
            State => Some(S::constant(state.committed[i], n)),
            Unknown => Some(env.unknown(obj.unknown_index.expect("unknown has index"))),
        };
        slots.push(slot);
    }
    state.reports.clear();
    let mut ev = Evaluator {
        model,
        analysis,
        generics,
        tables,
        state,
        slots,
        env,
        n,
    };
    ev.run_block(program)?;
    // Record object values for commit.
    for (i, slot) in ev.slots.iter().enumerate() {
        if let Some(s) = slot {
            ev.state.scratch_objects[i] = s.value();
        }
    }
    Ok(())
}

struct Evaluator<'a, S: AdScalar> {
    model: &'a CompiledModel,
    analysis: Analysis,
    generics: &'a [f64],
    tables: &'a [Pwl1],
    state: &'a mut InstanceState,
    slots: Vec<Option<S>>,
    env: &'a mut dyn EvalEnv<S>,
    n: usize,
}

impl<'a, S: AdScalar> Evaluator<'a, S> {
    fn run_block(&mut self, stmts: &[CStmt]) -> Result<()> {
        for stmt in stmts {
            match stmt {
                CStmt::Assign { object, value } => {
                    let v = self.eval(value)?;
                    self.slots[*object] = Some(v);
                }
                CStmt::Contribute { branch, value } => {
                    let v = self.eval(value)?;
                    if !v.is_finite() {
                        return Err(HdlError::Eval(format!(
                            "non-finite contribution in model `{}`",
                            self.model.name
                        )));
                    }
                    self.env.contribute(*branch, v);
                }
                CStmt::If { arms, otherwise } => {
                    let mut taken = false;
                    for (cond, body) in arms {
                        if self.eval(cond)?.value() != 0.0 {
                            self.run_block(body)?;
                            taken = true;
                            break;
                        }
                    }
                    if !taken {
                        self.run_block(otherwise)?;
                    }
                }
                CStmt::Assert { cond, message } => {
                    if self.eval(cond)?.value() == 0.0 {
                        return Err(HdlError::Eval(format!(
                            "assertion failed in model `{}`: {message}",
                            self.model.name
                        )));
                    }
                }
                CStmt::Report { message } => {
                    self.state.reports.push(message.clone());
                    self.env.report(message);
                }
                CStmt::Residual { index, lhs, rhs } => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    self.env.residual(*index, l.sub(&r));
                }
            }
        }
        Ok(())
    }

    fn eval(&mut self, e: &CExpr) -> Result<S> {
        Ok(match e {
            CExpr::Const(v) => S::constant(*v, self.n),
            CExpr::Generic(i) => S::constant(self.generics[*i], self.n),
            CExpr::Object(i) => match &self.slots[*i] {
                Some(s) => s.clone(),
                None => {
                    return Err(HdlError::Eval(format!(
                        "read of unassigned variable `{}` in model `{}`",
                        self.model.objects[*i].name, self.model.name
                    )))
                }
            },
            CExpr::Across(b) => self.env.across(*b),
            CExpr::Time => {
                let t = match self.analysis {
                    Analysis::Transient { t, .. } => t,
                    _ => 0.0,
                };
                S::constant(t, self.n)
            }
            CExpr::Unary(op, inner) => {
                let x = self.eval(inner)?;
                match op {
                    UnOp::Neg => x.neg(),
                    UnOp::Not => S::constant(f64::from(x.value() == 0.0), self.n),
                }
            }
            CExpr::Binary(op, a, b) => {
                let x = self.eval(a)?;
                let y = self.eval(b)?;
                self.binary(*op, &x, &y)
            }
            CExpr::Call(builtin, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.builtin(*builtin, &vals)?
            }
            CExpr::Ddt { site, arg } => {
                let x = self.eval(arg)?;
                self.ddt(*site, &x)
            }
            CExpr::Integ { site, arg, ic } => {
                let x = self.eval(arg)?;
                self.integ(*site, &x, *ic)
            }
            CExpr::Table { site, arg } => {
                let x = self.eval(arg)?;
                let table = &self.tables[*site];
                let f = table.eval(x.value());
                let df = table.deriv(x.value());
                x.chain(f, df)
            }
        })
    }

    fn binary(&self, op: BinOp, a: &S, b: &S) -> S {
        match op {
            BinOp::Add => a.add(b),
            BinOp::Sub => a.sub(b),
            BinOp::Mul => a.mul(b),
            BinOp::Div => a.div(b),
            BinOp::Pow => pow_impl(a, b, self.n),
            _ => {
                // Boolean-valued: constant 0/1, zero gradient.
                S::constant(fold_binop(op, a.value(), b.value()), self.n)
            }
        }
    }

    fn builtin(&self, b: Builtin, args: &[S]) -> Result<S> {
        let a0 = &args[0];
        let v0 = a0.value();
        Ok(match b {
            Builtin::Atan2 => {
                let y = v0;
                let x = args[1].value();
                let denom = x * x + y * y;
                S::chain2(y.atan2(x), x / denom, a0, -y / denom, &args[1])
            }
            Builtin::Pow => pow_impl(a0, &args[1], self.n),
            Builtin::Min => {
                if v0 <= args[1].value() {
                    a0.clone()
                } else {
                    args[1].clone()
                }
            }
            Builtin::Max => {
                if v0 >= args[1].value() {
                    a0.clone()
                } else {
                    args[1].clone()
                }
            }
            Builtin::Sgn | Builtin::Floor | Builtin::Ceil => {
                let (f, _) = chain_coeffs(b, v0);
                S::constant(f, self.n)
            }
            Builtin::Limit => {
                let (lo, hi) = (args[1].value(), args[2].value());
                if v0 < lo {
                    args[1].clone()
                } else if v0 > hi {
                    args[2].clone()
                } else {
                    a0.clone()
                }
            }
            _ => {
                let (f, df) = chain_coeffs(b, v0);
                a0.chain(f, df)
            }
        })
    }

    fn ddt(&mut self, site: usize, x: &S) -> S {
        match plan_ddt(self.analysis, &self.state.ddt_sites[site], x.value()) {
            DdtPlan::DcZero => {
                self.state.scratch_ddt[site] = (x.value(), 0.0);
                S::constant(0.0, self.n)
            }
            DdtPlan::Chain { f, df } => {
                self.state.scratch_ddt[site] = (x.value(), f);
                x.chain(f, df)
            }
            DdtPlan::Ac { omega } => x.ac_ddt(omega),
        }
    }

    fn integ(&mut self, site: usize, x: &S, ic: f64) -> S {
        match plan_integ(self.analysis, &self.state.integ_sites[site], x.value(), ic) {
            IntegPlan::DcConst { y } => {
                self.state.scratch_integ[site] = (y, x.value());
                S::constant(y, self.n)
            }
            IntegPlan::Chain { f, gain } => {
                self.state.scratch_integ[site] = (f, x.value());
                x.chain(f, gain)
            }
            IntegPlan::Ac { omega, y0 } => x.ac_integ(omega, y0),
        }
    }
}

/// What a `ddt` call site must do under the current analysis: shared
/// by the tree-walking evaluator and the bytecode VM so the two
/// produce bit-identical numerics.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DdtPlan {
    /// DC: result is the zero constant.
    DcZero,
    /// Transient: `out = chain(f, df)` of the argument.
    Chain {
        /// Result value (`d/dt` of the argument under the formula).
        f: f64,
        /// Jacobian gain (`∂(ddt x)/∂x`).
        df: f64,
    },
    /// AC: gradients scale by `jω`, value 0.
    Ac {
        /// Angular frequency.
        omega: f64,
    },
}

/// Computes the [`DdtPlan`] of a site from its committed history and
/// the argument value `xv`.
pub(crate) fn plan_ddt(analysis: Analysis, hist: &DdtHistory, xv: f64) -> DdtPlan {
    match analysis {
        Analysis::Dc => DdtPlan::DcZero,
        Analysis::Transient { h, method, .. } => {
            // A site with no committed history yet differentiates
            // against an implicit flat start (BE from x itself → 0
            // at the very first evaluation is wrong; instead treat
            // the pre-step value as x_prev = committed or current).
            let (x_prev, dx_prev, x_prev2, h_prev, have2) = if hist.primed {
                (
                    hist.x_prev,
                    hist.dx_prev,
                    hist.x_prev2,
                    hist.h_prev,
                    hist.primed2,
                )
            } else {
                (xv, 0.0, xv, h, false)
            };
            let effective = match method {
                IntegrationMethod::Trapezoidal if !hist.primed => IntegrationMethod::BackwardEuler,
                m => m,
            };
            let f = DiffFormula::new(effective, h, x_prev, dx_prev, x_prev2, h_prev, have2);
            DdtPlan::Chain {
                f: f.ddt(xv),
                df: f.c0,
            }
        }
        Analysis::Ac { omega } => DdtPlan::Ac { omega },
    }
}

/// What an `integ` call site must do under the current analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntegPlan {
    /// DC: result is the committed integral (or the IC).
    DcConst {
        /// Constant result value.
        y: f64,
    },
    /// Transient: `out = chain(f, gain)` of the integrand.
    Chain {
        /// Result value (the integral at the step end).
        f: f64,
        /// Jacobian gain (`∂(integ x)/∂x`).
        gain: f64,
    },
    /// AC: gradients scale by `1/(jω)`, value `y0`.
    Ac {
        /// Angular frequency.
        omega: f64,
        /// Operating-point value of the integral.
        y0: f64,
    },
}

/// Computes the [`IntegPlan`] of a site from its committed history,
/// the integrand value `xv`, and the initial condition `ic`.
pub(crate) fn plan_integ(analysis: Analysis, hist: &IntegHistory, xv: f64, ic: f64) -> IntegPlan {
    match analysis {
        Analysis::Dc => IntegPlan::DcConst {
            y: if hist.primed { hist.y_prev } else { ic },
        },
        Analysis::Transient { h, method, .. } => {
            let (y_prev, x_prev) = if hist.primed {
                (hist.y_prev, hist.x_prev)
            } else {
                (ic, xv)
            };
            let f = IntegFormula::new(method, h, y_prev, x_prev);
            IntegPlan::Chain {
                f: f.integ(xv),
                gain: f.gain,
            }
        }
        Analysis::Ac { omega } => IntegPlan::Ac {
            omega,
            y0: if hist.primed { hist.y_prev } else { ic },
        },
    }
}

/// `(value, derivative)` of the chain-rule builtins at `v0`. `Sgn`,
/// `Floor`, and `Ceil` report derivative 0 (they evaluate to
/// gradient-free constants); the selection builtins (`Min`/`Max`/
/// `Limit`) and the two-sided `Atan2`/`Pow` are not chain-shaped and
/// must not be routed here.
pub(crate) fn chain_coeffs(b: Builtin, v0: f64) -> (f64, f64) {
    match b {
        Builtin::Abs => (v0.abs(), if v0 < 0.0 { -1.0 } else { 1.0 }),
        Builtin::Sqrt => {
            let s = v0.sqrt();
            (s, 0.5 / s)
        }
        Builtin::Exp => {
            let e = v0.exp();
            (e, e)
        }
        Builtin::Ln => (v0.ln(), 1.0 / v0),
        Builtin::Log10 => (v0.log10(), 1.0 / (v0 * std::f64::consts::LN_10)),
        Builtin::Sin => (v0.sin(), v0.cos()),
        Builtin::Cos => (v0.cos(), -v0.sin()),
        Builtin::Tan => {
            let t = v0.tan();
            (t, 1.0 + t * t)
        }
        Builtin::Asin => (v0.asin(), 1.0 / (1.0 - v0 * v0).sqrt()),
        Builtin::Acos => (v0.acos(), -1.0 / (1.0 - v0 * v0).sqrt()),
        Builtin::Atan => (v0.atan(), 1.0 / (1.0 + v0 * v0)),
        Builtin::Sinh => (v0.sinh(), v0.cosh()),
        Builtin::Cosh => (v0.cosh(), v0.sinh()),
        Builtin::Tanh => {
            let t = v0.tanh();
            (t, 1.0 - t * t)
        }
        Builtin::Sgn => (
            if v0 > 0.0 {
                1.0
            } else if v0 < 0.0 {
                -1.0
            } else {
                0.0
            },
            0.0,
        ),
        Builtin::Floor => (v0.floor(), 0.0),
        Builtin::Ceil => (v0.ceil(), 0.0),
        Builtin::Atan2 | Builtin::Pow | Builtin::Min | Builtin::Max | Builtin::Limit => {
            unreachable!("{b:?} is not a chain-rule builtin")
        }
    }
}

/// `a ** b` with dual arithmetic (guards the log term at `a ≤ 0`).
pub(crate) fn pow_impl<S: AdScalar>(a: &S, b: &S, _n: usize) -> S {
    let (f, dfa, dfb) = pow_coeffs(a.value(), b.value());
    S::chain2(f, dfa, a, dfb, b)
}

/// `(value, ∂/∂a, ∂/∂b)` of `a ** b` — the scalar core of
/// [`pow_impl`], shared with the bytecode VM.
pub(crate) fn pow_coeffs(x: f64, y: f64) -> (f64, f64, f64) {
    let f = x.powf(y);
    let dfa = if x == 0.0 { 0.0 } else { y * x.powf(y - 1.0) };
    let dfb = if x > 0.0 { f * x.ln() } else { 0.0 };
    (f, dfa, dfb)
}
