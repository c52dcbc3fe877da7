//! Compiled (resolved, slot-indexed) model representation.
//!
//! [`crate::sema`] lowers the name-based AST into this form once; the
//! evaluator in [`crate::eval`] then interprets it with dual-number
//! arithmetic every Newton iteration without any name lookups.

use crate::ast::{BinOp, ObjectKind, UnOp};
use crate::error::{HdlError, Result};
use crate::nature::Nature;
use crate::span::Span;

/// Built-in scalar functions available in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `abs(x)`
    Abs,
    /// `sqrt(x)`
    Sqrt,
    /// `exp(x)`
    Exp,
    /// `ln(x)`
    Ln,
    /// `log10(x)`
    Log10,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `tan(x)`
    Tan,
    /// `asin(x)`
    Asin,
    /// `acos(x)`
    Acos,
    /// `atan(x)`
    Atan,
    /// `atan2(y, x)`
    Atan2,
    /// `sinh(x)`
    Sinh,
    /// `cosh(x)`
    Cosh,
    /// `tanh(x)`
    Tanh,
    /// `pow(x, y)` (same as `x ** y`)
    Pow,
    /// `min(x, y)`
    Min,
    /// `max(x, y)`
    Max,
    /// `sgn(x)`
    Sgn,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `limit(x, lo, hi)` — clamp with unit pass-through slope inside.
    Limit,
}

impl Builtin {
    /// Resolves a function name; returns the builtin and its arity.
    pub fn lookup(name: &str) -> Option<(Builtin, usize)> {
        Some(match name {
            "abs" => (Builtin::Abs, 1),
            "sqrt" => (Builtin::Sqrt, 1),
            "exp" => (Builtin::Exp, 1),
            "ln" | "log" => (Builtin::Ln, 1),
            "log10" => (Builtin::Log10, 1),
            "sin" => (Builtin::Sin, 1),
            "cos" => (Builtin::Cos, 1),
            "tan" => (Builtin::Tan, 1),
            "asin" => (Builtin::Asin, 1),
            "acos" => (Builtin::Acos, 1),
            "atan" => (Builtin::Atan, 1),
            "atan2" => (Builtin::Atan2, 2),
            "sinh" => (Builtin::Sinh, 1),
            "cosh" => (Builtin::Cosh, 1),
            "tanh" => (Builtin::Tanh, 1),
            "pow" => (Builtin::Pow, 2),
            "min" => (Builtin::Min, 2),
            "max" => (Builtin::Max, 2),
            "sgn" | "sign" => (Builtin::Sgn, 1),
            "floor" => (Builtin::Floor, 1),
            "ceil" => (Builtin::Ceil, 1),
            "limit" => (Builtin::Limit, 3),
            _ => return None,
        })
    }
}

/// Resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// Literal.
    Const(f64),
    /// Generic parameter by slot.
    Generic(usize),
    /// Declared object (variable/state/constant/unknown) by slot.
    Object(usize),
    /// Across quantity of a branch by slot.
    Across(usize),
    /// Simulation time (0 in dc/ac).
    Time,
    /// Unary operation.
    Unary(UnOp, Box<CExpr>),
    /// Binary operation.
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Builtin function call.
    Call(Builtin, Vec<CExpr>),
    /// Time derivative call site.
    Ddt {
        /// History slot.
        site: usize,
        /// Differentiated expression.
        arg: Box<CExpr>,
    },
    /// Time integral call site.
    Integ {
        /// History slot.
        site: usize,
        /// Integrand.
        arg: Box<CExpr>,
        /// Initial condition, folded at elaboration (defaults to 0).
        ic: f64,
    },
    /// Piecewise-linear table lookup call site (`table1d`).
    Table {
        /// Table slot (breakpoints folded at elaboration).
        site: usize,
        /// Lookup abscissa.
        arg: Box<CExpr>,
    },
}

/// Resolved statement.
#[derive(Debug, Clone, PartialEq)]
pub enum CStmt {
    /// Object assignment.
    Assign {
        /// Target object slot.
        object: usize,
        /// Value.
        value: CExpr,
    },
    /// Through-quantity contribution into a branch.
    Contribute {
        /// Branch slot.
        branch: usize,
        /// Contribution value.
        value: CExpr,
    },
    /// Conditional.
    If {
        /// `(condition, body)` arms.
        arms: Vec<(CExpr, Vec<CStmt>)>,
        /// Fallback body.
        otherwise: Vec<CStmt>,
    },
    /// Run-time assertion.
    Assert {
        /// Condition that must evaluate nonzero.
        cond: CExpr,
        /// Failure message.
        message: String,
    },
    /// Diagnostic message.
    Report {
        /// Message text.
        message: String,
    },
    /// Implicit-equation residual `lhs − rhs`.
    Residual {
        /// Residual row (pairs with the unknown of the same index).
        index: usize,
        /// Left side.
        lhs: CExpr,
        /// Right side.
        rhs: CExpr,
    },
}

/// A generic parameter slot.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericInfo {
    /// Name (lowercased).
    pub name: String,
    /// Folded default value, when declared.
    pub default: Option<f64>,
}

/// A pin slot.
#[derive(Debug, Clone, PartialEq)]
pub struct PinInfo {
    /// Name (lowercased).
    pub name: String,
    /// Resolved nature.
    pub nature: Nature,
}

/// A branch slot: an ordered pin pair sharing a nature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Positive pin slot.
    pub pin_a: usize,
    /// Negative pin slot.
    pub pin_b: usize,
    /// Nature of both pins.
    pub nature: Nature,
}

/// A declared object slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    /// Name (lowercased).
    pub name: String,
    /// Declaration kind.
    pub kind: ObjectKind,
    /// Declaration initializer (unfolded; may reference generics).
    pub init: Option<CExpr>,
    /// For `Unknown` objects: index among the unknowns.
    pub unknown_index: Option<usize>,
}

/// Table breakpoints captured at compile time (folded at elaboration).
#[derive(Debug, Clone, PartialEq)]
pub struct TableSpec {
    /// `(x, y)` breakpoint expressions (constant-foldable).
    pub breakpoints: Vec<(CExpr, CExpr)>,
    /// Source span of the `table1d` call (for diagnostics).
    pub span: Span,
}

/// A fully resolved, analysis-ready model.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    /// Entity name.
    pub name: String,
    /// Architecture name.
    pub arch: String,
    /// Generic slots.
    pub generics: Vec<GenericInfo>,
    /// Pin slots.
    pub pins: Vec<PinInfo>,
    /// Branch slots (all distinct `[a, b]` pairs in the source).
    pub branches: Vec<BranchInfo>,
    /// Object slots.
    pub objects: Vec<ObjectInfo>,
    /// Number of `UNKNOWN` objects (extra scalar unknowns).
    pub n_unknowns: usize,
    /// Number of `ddt` call sites.
    pub n_ddt_sites: usize,
    /// Number of `integ` call sites.
    pub n_integ_sites: usize,
    /// Table specifications (one per `table1d` call site).
    pub tables: Vec<TableSpec>,
    /// One-time initialization program.
    pub init_program: Vec<CStmt>,
    /// DC program (falls back to the transient program when the source
    /// declares no explicit `dc` block).
    pub dc_program: Vec<CStmt>,
    /// AC program (same fallback rule).
    pub ac_program: Vec<CStmt>,
    /// Transient program.
    pub tran_program: Vec<CStmt>,
}

impl CompiledModel {
    /// Looks up a pin slot by name.
    pub fn pin_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.pins.iter().position(|p| p.name == lower)
    }

    /// Looks up a generic slot by name.
    pub fn generic_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.generics.iter().position(|g| g.name == lower)
    }
}

/// Folds an expression to a plain number: literals, generics bound to
/// `generics`, and objects already holding a value in `objects`, under
/// pure operators and builtins. Indices past either slice are errors,
/// so `fold(e, &[], &[])` folds literal-only subtrees.
///
/// # Errors
///
/// [`HdlError::Elab`] when an object has no value yet, and for
/// run-time quantities (branches, time, `ddt`/`integ`/`table1d`).
pub fn fold(expr: &CExpr, generics: &[f64], objects: &[Option<f64>]) -> Result<f64> {
    let not_constant = || HdlError::Elab(format!("not a constant expression: {expr:?}"));
    Ok(match expr {
        CExpr::Const(v) => *v,
        CExpr::Generic(i) => *generics.get(*i).ok_or_else(not_constant)?,
        CExpr::Object(i) => objects.get(*i).copied().flatten().ok_or_else(|| {
            HdlError::Elab("initializer references an object with no value yet".into())
        })?,
        CExpr::Unary(UnOp::Neg, e) => -fold(e, generics, objects)?,
        CExpr::Unary(UnOp::Not, e) => f64::from(fold(e, generics, objects)? == 0.0),
        CExpr::Binary(op, a, b) => fold_binop(
            *op,
            fold(a, generics, objects)?,
            fold(b, generics, objects)?,
        ),
        CExpr::Call(b, args) => {
            let vals: Vec<f64> = args
                .iter()
                .map(|a| fold(a, generics, objects))
                .collect::<Result<_>>()?;
            fold_builtin(*b, &vals)
        }
        _ => return Err(not_constant()),
    })
}

/// Evaluates a binary operator on plain numbers (booleans as 0/1).
pub fn fold_binop(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Pow => x.powf(y),
        BinOp::Eq => f64::from(x == y),
        BinOp::Ne => f64::from(x != y),
        BinOp::Lt => f64::from(x < y),
        BinOp::Le => f64::from(x <= y),
        BinOp::Gt => f64::from(x > y),
        BinOp::Ge => f64::from(x >= y),
        BinOp::And => f64::from(x != 0.0 && y != 0.0),
        BinOp::Or => f64::from(x != 0.0 || y != 0.0),
    }
}

/// Evaluates a builtin on plain numbers.
///
/// Matches the runtime (dual-number) evaluator's value semantics
/// operator by operator — including the comparison-based `min`/`max`/
/// `limit` selection, which differs from `f64::min`/`f64::clamp` on
/// NaN operands (NaN comparisons are false, so the *second* operand
/// wins for `min`/`max` and a NaN input passes through `limit`) and
/// never panics on an inverted `limit` window. The bytecode
/// compiler's constant folding relies on this equality.
pub fn fold_builtin(b: Builtin, a: &[f64]) -> f64 {
    match b {
        Builtin::Abs => a[0].abs(),
        Builtin::Sqrt => a[0].sqrt(),
        Builtin::Exp => a[0].exp(),
        Builtin::Ln => a[0].ln(),
        Builtin::Log10 => a[0].log10(),
        Builtin::Sin => a[0].sin(),
        Builtin::Cos => a[0].cos(),
        Builtin::Tan => a[0].tan(),
        Builtin::Asin => a[0].asin(),
        Builtin::Acos => a[0].acos(),
        Builtin::Atan => a[0].atan(),
        Builtin::Atan2 => a[0].atan2(a[1]),
        Builtin::Sinh => a[0].sinh(),
        Builtin::Cosh => a[0].cosh(),
        Builtin::Tanh => a[0].tanh(),
        Builtin::Pow => a[0].powf(a[1]),
        Builtin::Min => {
            if a[0] <= a[1] {
                a[0]
            } else {
                a[1]
            }
        }
        Builtin::Max => {
            if a[0] >= a[1] {
                a[0]
            } else {
                a[1]
            }
        }
        Builtin::Sgn => {
            if a[0] > 0.0 {
                1.0
            } else if a[0] < 0.0 {
                -1.0
            } else {
                0.0
            }
        }
        Builtin::Floor => a[0].floor(),
        Builtin::Ceil => a[0].ceil(),
        Builtin::Limit => {
            if a[0] < a[1] {
                a[1]
            } else if a[0] > a[2] {
                a[2]
            } else {
                a[0]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_lookup() {
        assert_eq!(Builtin::lookup("sqrt"), Some((Builtin::Sqrt, 1)));
        assert_eq!(Builtin::lookup("atan2"), Some((Builtin::Atan2, 2)));
        assert_eq!(Builtin::lookup("limit"), Some((Builtin::Limit, 3)));
        assert_eq!(Builtin::lookup("log"), Some((Builtin::Ln, 1)));
        assert_eq!(Builtin::lookup("nosuch"), None);
    }

    #[test]
    fn fold_binds_generics() {
        // 2·g0 + sqrt(g1)
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Binary(
                BinOp::Mul,
                Box::new(CExpr::Const(2.0)),
                Box::new(CExpr::Generic(0)),
            )),
            Box::new(CExpr::Call(Builtin::Sqrt, vec![CExpr::Generic(1)])),
        );
        assert_eq!(fold(&e, &[3.0, 16.0], &[]).unwrap(), 10.0);
    }

    #[test]
    fn fold_rejects_runtime_quantities() {
        let err = fold(&CExpr::Across(0), &[], &[]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "elaboration error: not a constant expression: Across(0)"
        );
        assert!(fold(&CExpr::Time, &[], &[]).is_err());
        // Out-of-range slots are errors, never panics.
        assert!(fold(&CExpr::Generic(0), &[], &[]).is_err());
        assert!(fold(&CExpr::Object(0), &[], &[]).is_err());
    }

    #[test]
    fn fold_reads_objects_that_hold_a_value() {
        let e = CExpr::Binary(
            BinOp::Mul,
            Box::new(CExpr::Object(0)),
            Box::new(CExpr::Generic(0)),
        );
        assert_eq!(fold(&e, &[3.0], &[Some(2.0)]).unwrap(), 6.0);
        let err = fold(&e, &[3.0], &[None]).unwrap_err();
        assert!(
            err.to_string()
                .contains("initializer references an object with no value yet"),
            "{err}"
        );
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(fold_binop(BinOp::Pow, 2.0, 10.0), 1024.0);
        assert_eq!(fold_binop(BinOp::Le, 1.0, 1.0), 1.0);
        assert_eq!(fold_binop(BinOp::And, 1.0, 0.0), 0.0);
        assert_eq!(fold_binop(BinOp::Or, 0.0, 2.0), 1.0);
        assert_eq!(fold_binop(BinOp::Ne, 1.0, 2.0), 1.0);
    }

    #[test]
    fn builtin_semantics() {
        assert_eq!(fold_builtin(Builtin::Sgn, &[-3.0]), -1.0);
        assert_eq!(fold_builtin(Builtin::Sgn, &[0.0]), 0.0);
        assert_eq!(fold_builtin(Builtin::Limit, &[5.0, -1.0, 1.0]), 1.0);
        assert_eq!(fold_builtin(Builtin::Min, &[2.0, -2.0]), -2.0);
        assert!(
            (fold_builtin(Builtin::Atan2, &[1.0, 1.0]) - std::f64::consts::FRAC_PI_4).abs() < 1e-15
        );
    }

    #[test]
    fn binop_division_edge_cases() {
        // Division never errors at fold time: IEEE semantics flow
        // through exactly as the runtime evaluator computes them.
        assert_eq!(fold_binop(BinOp::Div, 1.0, 0.0), f64::INFINITY);
        assert_eq!(fold_binop(BinOp::Div, -1.0, 0.0), f64::NEG_INFINITY);
        assert!(fold_binop(BinOp::Div, 0.0, 0.0).is_nan());
        assert_eq!(fold_binop(BinOp::Pow, 0.0, -1.0), f64::INFINITY);
    }

    #[test]
    fn binop_nan_propagation() {
        let nan = f64::NAN;
        assert!(fold_binop(BinOp::Add, nan, 1.0).is_nan());
        assert!(fold_binop(BinOp::Mul, nan, 0.0).is_nan());
        // Comparisons with NaN are false → 0.0 …
        assert_eq!(fold_binop(BinOp::Lt, nan, 1.0), 0.0);
        assert_eq!(fold_binop(BinOp::Ge, nan, 1.0), 0.0);
        assert_eq!(fold_binop(BinOp::Eq, nan, nan), 0.0);
        // … except `!=`, which is true for NaN.
        assert_eq!(fold_binop(BinOp::Ne, nan, nan), 1.0);
        // Logical operators treat NaN as truthy (NaN != 0.0), exactly
        // like the runtime evaluator's zero test.
        assert_eq!(fold_binop(BinOp::And, nan, 1.0), 1.0);
        assert_eq!(fold_binop(BinOp::Or, nan, 0.0), 1.0);
    }

    #[test]
    fn builtin_domain_errors_yield_nan_not_panics() {
        assert!(fold_builtin(Builtin::Sqrt, &[-1.0]).is_nan());
        assert!(fold_builtin(Builtin::Ln, &[-1.0]).is_nan());
        assert_eq!(fold_builtin(Builtin::Ln, &[0.0]), f64::NEG_INFINITY);
        assert!(fold_builtin(Builtin::Asin, &[2.0]).is_nan());
        assert!(fold_builtin(Builtin::Acos, &[-2.0]).is_nan());
        assert_eq!(fold_builtin(Builtin::Log10, &[0.0]), f64::NEG_INFINITY);
    }

    #[test]
    fn selection_builtins_match_runtime_on_nan() {
        // The runtime evaluator selects by comparison (`v0 <= v1`,
        // `v0 >= v1`): a NaN first operand fails the comparison and
        // the *second* operand wins — unlike `f64::min`/`f64::max`,
        // which prefer the non-NaN argument symmetrically.
        let nan = f64::NAN;
        assert_eq!(fold_builtin(Builtin::Min, &[nan, 1.0]), 1.0);
        assert!(fold_builtin(Builtin::Min, &[1.0, nan]).is_nan());
        assert_eq!(fold_builtin(Builtin::Max, &[nan, -1.0]), -1.0);
        assert!(fold_builtin(Builtin::Max, &[-1.0, nan]).is_nan());
        // `limit` passes NaN through (both guards compare false) and
        // tolerates an inverted window without panicking (`clamp`
        // would abort the process on lo > hi).
        assert!(fold_builtin(Builtin::Limit, &[nan, -1.0, 1.0]).is_nan());
        assert_eq!(fold_builtin(Builtin::Limit, &[0.5, 1.0, -1.0]), 1.0);
        assert_eq!(fold_builtin(Builtin::Limit, &[-0.5, -1.0, 1.0]), -0.5);
    }

    #[test]
    fn fold_propagates_nan_through_trees() {
        // sqrt(g0 − 2) with g0 = 1 → NaN, and NaN flows through the
        // enclosing arithmetic instead of erroring.
        let e = CExpr::Binary(
            BinOp::Add,
            Box::new(CExpr::Call(
                Builtin::Sqrt,
                vec![CExpr::Binary(
                    BinOp::Sub,
                    Box::new(CExpr::Generic(0)),
                    Box::new(CExpr::Const(2.0)),
                )],
            )),
            Box::new(CExpr::Const(1.0)),
        );
        assert!(fold(&e, &[1.0], &[]).unwrap().is_nan());
        assert_eq!(fold(&e, &[6.0], &[]).unwrap(), 3.0);
    }
}
