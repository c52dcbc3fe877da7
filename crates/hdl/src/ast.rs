//! Abstract syntax tree of the HDL-A subset.
//!
//! The tree is name-based (resolution happens in [`crate::sema`]) so
//! it can also serve as the target of programmatic model *generation*:
//! the energy methodology in `mems-core` and the PXT code generator
//! build these nodes directly and render them with [`crate::print`].

use crate::span::Span;

/// A parsed compilation unit: entities and architectures in source
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Entity declarations.
    pub entities: Vec<Entity>,
    /// Architecture bodies.
    pub architectures: Vec<Architecture>,
}

impl Module {
    /// Finds an entity by (lowercased) name.
    pub fn entity(&self, name: &str) -> Option<&Entity> {
        self.entities.iter().find(|e| e.name == name)
    }

    /// Finds an architecture of `entity`, optionally by name.
    pub fn architecture(&self, entity: &str, arch: Option<&str>) -> Option<&Architecture> {
        self.architectures
            .iter()
            .find(|a| a.entity == entity && arch.is_none_or(|n| a.name == n))
    }
}

/// `ENTITY name IS GENERIC (…); PIN (…); END ENTITY name;`
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Entity name (lowercased).
    pub name: String,
    /// Generic parameters in declaration order.
    pub generics: Vec<GenericDecl>,
    /// Pins in declaration order.
    pub pins: Vec<PinDecl>,
    /// Source span of the declaration.
    pub span: Span,
}

/// One generic parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct GenericDecl {
    /// Parameter name (lowercased).
    pub name: String,
    /// Optional default value expression (must be constant).
    pub default: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// One pin with its nature name (resolved in sema).
#[derive(Debug, Clone, PartialEq)]
pub struct PinDecl {
    /// Pin name (lowercased).
    pub name: String,
    /// Nature name as written (e.g. `electrical`, `mechanical1`).
    pub nature: String,
    /// Source span.
    pub span: Span,
}

/// `ARCHITECTURE name OF entity IS decls BEGIN relation END;`
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    /// Architecture name (lowercased).
    pub name: String,
    /// Name of the entity this body implements.
    pub entity: String,
    /// Object declarations (variables, states, constants, unknowns).
    pub decls: Vec<ObjectDecl>,
    /// The relation section.
    pub relation: Relation,
    /// Source span.
    pub span: Span,
}

/// Kinds of declared objects in an architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    /// Plain variable; recomputed in every evaluation pass.
    Variable,
    /// State variable; keeps its value across time steps (readable
    /// before assignment, yielding the previous value).
    State,
    /// Named constant; must have an initializer.
    Constant,
    /// Extra scalar unknown solved by the enclosing simulator via
    /// `EQUATION` residuals (the paper's implicit "equation block").
    Unknown,
}

/// One object declaration line (possibly declaring several names).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectDecl {
    /// Kind of object.
    pub kind: ObjectKind,
    /// Declared names (lowercased).
    pub names: Vec<String>,
    /// Optional initializer (required for constants).
    pub init: Option<Expr>,
    /// Source span.
    pub span: Span,
}

/// The `RELATION … END RELATION;` section.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Procedural and equation blocks in source order.
    pub blocks: Vec<Block>,
}

/// Analysis contexts a block can be bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ctx {
    /// One-time elaboration (constant set-up).
    Init,
    /// DC operating point.
    Dc,
    /// Small-signal AC.
    Ac,
    /// Time-domain transient.
    Transient,
}

impl Ctx {
    /// Parses a context name.
    pub fn from_name(s: &str) -> Option<Ctx> {
        Some(match s {
            "init" => Ctx::Init,
            "dc" => Ctx::Dc,
            "ac" => Ctx::Ac,
            "transient" | "tran" => Ctx::Transient,
            _ => return None,
        })
    }

    /// Canonical source spelling.
    pub fn name(self) -> &'static str {
        match self {
            Ctx::Init => "init",
            Ctx::Dc => "dc",
            Ctx::Ac => "ac",
            Ctx::Transient => "transient",
        }
    }
}

/// A block inside `RELATION`.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// `PROCEDURAL FOR ctx, … => stmts`
    Procedural {
        /// Contexts this block participates in.
        contexts: Vec<Ctx>,
        /// Statements.
        stmts: Vec<Stmt>,
        /// Source span of the header.
        span: Span,
    },
    /// `EQUATION FOR ctx, … => lhs == rhs; …`
    Equation {
        /// Contexts this block participates in.
        contexts: Vec<Ctx>,
        /// Implicit equations (`lhs == rhs`).
        equations: Vec<EquationStmt>,
        /// Source span of the header.
        span: Span,
    },
}

/// One implicit equation `lhs == rhs;`.
#[derive(Debug, Clone, PartialEq)]
pub struct EquationStmt {
    /// Left-hand side.
    pub lhs: Expr,
    /// Right-hand side.
    pub rhs: Expr,
    /// Source span.
    pub span: Span,
}

/// Procedural statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `name := expr;`
    Assign {
        /// Target object name.
        target: String,
        /// Value expression.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `[a, b].q %= expr;`
    Contribute {
        /// Branch the contribution flows through.
        branch: BranchRef,
        /// Contribution expression.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// `IF c THEN … ELSIF c THEN … ELSE … END IF;`
    If {
        /// `(condition, body)` pairs: the IF arm plus each ELSIF arm.
        arms: Vec<(Expr, Vec<Stmt>)>,
        /// ELSE body (empty when absent).
        otherwise: Vec<Stmt>,
        /// Source span.
        span: Span,
    },
    /// `ASSERT cond REPORT "msg";` — run-time validity check (the
    /// paper: "the validity of boundary conditions may be verified in
    /// these models during run-time").
    Assert {
        /// Condition that must hold.
        cond: Expr,
        /// Message reported on failure.
        message: String,
        /// Source span.
        span: Span,
    },
    /// `REPORT "msg";` — diagnostic print.
    Report {
        /// Message text.
        message: String,
        /// Source span.
        span: Span,
    },
}

/// A branch between two pins with a quantity accessor, `[a, b].q`.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchRef {
    /// First (positive) pin name.
    pub pin_a: String,
    /// Second (negative) pin name.
    pub pin_b: String,
    /// Quantity name (`v`, `i`, `tv`, `f`, …).
    pub quantity: String,
    /// Source span.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// Binary operators (arithmetic, comparison, logic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `**`
    Pow,
    /// `=` / `==`
    Eq,
    /// `/=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// Returns `true` for comparison or logical operators (whose
    /// results are boolean-valued 0/1 with zero derivative).
    pub fn is_boolean(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64, Span),
    /// Boolean literal.
    Bool(bool, Span),
    /// Identifier (generic, variable, state, constant, or unknown).
    Ident(String, Span),
    /// Branch quantity read, `[a, b].v`.
    Branch(BranchRef),
    /// Function call (builtins only; `integ`, `ddt`, math, `table1d`).
    Call {
        /// Function name (lowercased).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source span.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source span.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source span.
        span: Span,
    },
}

impl Expr {
    /// The source span of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Num(_, s) | Expr::Bool(_, s) | Expr::Ident(_, s) => *s,
            Expr::Branch(b) => b.span,
            Expr::Call { span, .. } | Expr::Unary { span, .. } | Expr::Binary { span, .. } => *span,
        }
    }

    /// Node count of the longest root-to-leaf path.
    pub(crate) fn height(&self) -> usize {
        1 + match self {
            Expr::Num(..) | Expr::Bool(..) | Expr::Ident(..) | Expr::Branch(_) => 0,
            Expr::Call { args, .. } => args.iter().map(Expr::height).max().unwrap_or(0),
            Expr::Unary { expr, .. } => expr.height(),
            Expr::Binary { lhs, rhs, .. } => lhs.height().max(rhs.height()),
        }
    }

    /// Convenience constructor: numeric literal without position.
    pub fn num(v: f64) -> Expr {
        Expr::Num(v, Span::default())
    }

    /// Convenience constructor: identifier without position.
    pub fn ident(name: &str) -> Expr {
        Expr::Ident(name.to_ascii_lowercase(), Span::default())
    }

    /// Convenience constructor: binary node without position.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span: Span::default(),
        }
    }

    /// Convenience constructor: `lhs + rhs`.
    // These are static constructors on an AST type, not arithmetic on
    // values — the `ops` traits don't fit (no `self`, span-less).
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }

    /// Convenience constructor: `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }

    /// Convenience constructor: `lhs * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }

    /// Convenience constructor: `lhs / rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, lhs, rhs)
    }

    /// Convenience constructor: unary negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(e),
            span: Span::default(),
        }
    }

    /// Convenience constructor: function call without position.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.to_ascii_lowercase(),
            args,
            span: Span::default(),
        }
    }

    /// Structural equality ignoring spans (used by golden tests and
    /// the symbolic simplifier).
    pub fn structurally_eq(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Num(a, _), Expr::Num(b, _)) => a == b || (a.is_nan() && b.is_nan()),
            (Expr::Bool(a, _), Expr::Bool(b, _)) => a == b,
            (Expr::Ident(a, _), Expr::Ident(b, _)) => a == b,
            (Expr::Branch(a), Expr::Branch(b)) => {
                a.pin_a == b.pin_a && a.pin_b == b.pin_b && a.quantity == b.quantity
            }
            (
                Expr::Call {
                    name: n1, args: a1, ..
                },
                Expr::Call {
                    name: n2, args: a2, ..
                },
            ) => {
                n1 == n2
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2).all(|(x, y)| x.structurally_eq(y))
            }
            (
                Expr::Unary {
                    op: o1, expr: e1, ..
                },
                Expr::Unary {
                    op: o2, expr: e2, ..
                },
            ) => o1 == o2 && e1.structurally_eq(e2),
            (
                Expr::Binary {
                    op: o1,
                    lhs: l1,
                    rhs: r1,
                    ..
                },
                Expr::Binary {
                    op: o2,
                    lhs: l2,
                    rhs: r2,
                    ..
                },
            ) => o1 == o2 && l1.structurally_eq(l2) && r1.structurally_eq(r2),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_round_trip() {
        for c in [Ctx::Init, Ctx::Dc, Ctx::Ac, Ctx::Transient] {
            assert_eq!(Ctx::from_name(c.name()), Some(c));
        }
        assert_eq!(Ctx::from_name("tran"), Some(Ctx::Transient));
        assert_eq!(Ctx::from_name("nope"), None);
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let e = Expr::mul(Expr::ident("A"), Expr::num(2.0));
        match &e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => match lhs.as_ref() {
                Expr::Ident(n, _) => assert_eq!(n, "a"),
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn structural_equality_ignores_spans() {
        let a = Expr::Num(1.0, Span::new(0, 1));
        let b = Expr::Num(1.0, Span::new(5, 6));
        assert!(a.structurally_eq(&b));
        assert!(!a.structurally_eq(&Expr::num(2.0)));
        let c1 = Expr::call("sin", vec![Expr::ident("x")]);
        let c2 = Expr::call("SIN", vec![Expr::ident("X")]);
        assert!(c1.structurally_eq(&c2));
    }

    #[test]
    fn boolean_operator_classification() {
        assert!(BinOp::Lt.is_boolean());
        assert!(BinOp::And.is_boolean());
        assert!(!BinOp::Add.is_boolean());
        assert!(!BinOp::Pow.is_boolean());
    }

    #[test]
    fn module_lookup() {
        let m = Module {
            entities: vec![Entity {
                name: "eletran".into(),
                generics: vec![],
                pins: vec![],
                span: Span::default(),
            }],
            architectures: vec![Architecture {
                name: "a".into(),
                entity: "eletran".into(),
                decls: vec![],
                relation: Relation::default(),
                span: Span::default(),
            }],
        };
        assert!(m.entity("eletran").is_some());
        assert!(m.architecture("eletran", None).is_some());
        assert!(m.architecture("eletran", Some("a")).is_some());
        assert!(m.architecture("eletran", Some("b")).is_none());
        assert!(m.entity("nope").is_none());
    }
}
