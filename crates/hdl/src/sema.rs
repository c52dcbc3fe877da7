//! Semantic analysis: resolves the name-based AST into a
//! [`CompiledModel`] with slot indices, checking natures, name
//! collisions, context legality and equation/unknown pairing.

use crate::ast::{self, Block, Ctx, Expr, ObjectKind, Stmt};
use crate::compile::{
    fold, BranchInfo, Builtin, CExpr, CStmt, CompiledModel, GenericInfo, ObjectInfo, PinInfo,
    TableSpec,
};
use crate::error::{HdlError, Result};
use crate::nature::{Nature, QuantityKind};
use crate::span::Span;
use std::collections::HashMap;

/// Compiles one entity/architecture pair from a parsed module.
///
/// `arch` selects among multiple architectures; `None` picks the first
/// one declared for the entity.
///
/// # Errors
///
/// Returns [`HdlError::Sema`] for resolution and legality failures.
pub fn compile(module: &ast::Module, entity: &str, arch: Option<&str>) -> Result<CompiledModel> {
    let entity_name = entity.to_ascii_lowercase();
    let ent = module.entity(&entity_name).ok_or_else(|| HdlError::Sema {
        message: format!("no entity named `{entity_name}`"),
        span: Span::default(),
    })?;
    let arch = module
        .architecture(&entity_name, arch)
        .ok_or_else(|| HdlError::Sema {
            message: format!("no architecture for entity `{entity_name}`"),
            span: ent.span,
        })?;

    let mut ctx = Lowering::new(ent, arch)?;
    ctx.lower_relation(&arch.relation)?;
    ctx.finish()
}

struct Lowering<'a> {
    ent: &'a ast::Entity,
    arch: &'a ast::Architecture,
    generics: Vec<GenericInfo>,
    generic_slots: HashMap<String, usize>,
    pins: Vec<PinInfo>,
    pin_slots: HashMap<String, usize>,
    objects: Vec<ObjectInfo>,
    object_slots: HashMap<String, usize>,
    branches: Vec<BranchInfo>,
    n_unknowns: usize,
    n_ddt: usize,
    n_integ: usize,
    tables: Vec<TableSpec>,
    init_program: Vec<CStmt>,
    dc_program: Vec<CStmt>,
    ac_program: Vec<CStmt>,
    tran_program: Vec<CStmt>,
    has_dc_block: bool,
    has_ac_block: bool,
    /// Residual counters per context (dc, ac, transient).
    residuals: [usize; 3],
}

impl<'a> Lowering<'a> {
    fn new(ent: &'a ast::Entity, arch: &'a ast::Architecture) -> Result<Self> {
        let mut l = Lowering {
            ent,
            arch,
            generics: Vec::new(),
            generic_slots: HashMap::new(),
            pins: Vec::new(),
            pin_slots: HashMap::new(),
            objects: Vec::new(),
            object_slots: HashMap::new(),
            branches: Vec::new(),
            n_unknowns: 0,
            n_ddt: 0,
            n_integ: 0,
            tables: Vec::new(),
            init_program: Vec::new(),
            dc_program: Vec::new(),
            ac_program: Vec::new(),
            tran_program: Vec::new(),
            has_dc_block: false,
            has_ac_block: false,
            residuals: [0; 3],
        };
        l.declare_interface()?;
        l.declare_objects()?;
        Ok(l)
    }

    fn err(message: String, span: Span) -> HdlError {
        HdlError::Sema { message, span }
    }

    fn declare_interface(&mut self) -> Result<()> {
        for g in &self.ent.generics {
            if self.generic_slots.contains_key(&g.name) {
                return Err(Self::err(format!("duplicate generic `{}`", g.name), g.span));
            }
            let default = match &g.default {
                Some(e) => {
                    let ce = self.lower_const_expr(e)?;
                    Some(fold(&ce, &[], &[]).map_err(|_| {
                        Self::err(
                            format!("default of generic `{}` must be constant", g.name),
                            e.span(),
                        )
                    })?)
                }
                None => None,
            };
            self.generic_slots
                .insert(g.name.clone(), self.generics.len());
            self.generics.push(GenericInfo {
                name: g.name.clone(),
                default,
            });
        }
        for p in &self.ent.pins {
            if self.pin_slots.contains_key(&p.name) {
                return Err(Self::err(format!("duplicate pin `{}`", p.name), p.span));
            }
            let nature = Nature::from_name(&p.nature)
                .ok_or_else(|| Self::err(format!("unknown nature `{}`", p.nature), p.span))?;
            self.pin_slots.insert(p.name.clone(), self.pins.len());
            self.pins.push(PinInfo {
                name: p.name.clone(),
                nature,
            });
        }
        Ok(())
    }

    fn declare_objects(&mut self) -> Result<()> {
        for d in &self.arch.decls {
            for name in &d.names {
                if self.object_slots.contains_key(name) {
                    return Err(Self::err(format!("duplicate object `{name}`"), d.span));
                }
                if self.generic_slots.contains_key(name) {
                    return Err(Self::err(
                        format!("object `{name}` shadows a generic of the same name"),
                        d.span,
                    ));
                }
                if d.kind == ObjectKind::Constant && d.init.is_none() {
                    return Err(Self::err(
                        format!("constant `{name}` needs an initializer"),
                        d.span,
                    ));
                }
                let unknown_index = if d.kind == ObjectKind::Unknown {
                    let idx = self.n_unknowns;
                    self.n_unknowns += 1;
                    Some(idx)
                } else {
                    None
                };
                self.object_slots.insert(name.clone(), self.objects.len());
                self.objects.push(ObjectInfo {
                    name: name.clone(),
                    kind: d.kind,
                    init: None, // filled below, after all names are visible
                    unknown_index,
                });
            }
        }
        // Second pass: lower initializers (may reference generics and
        // previously declared constants).
        for d in &self.arch.decls {
            if let Some(init) = &d.init {
                let ce = self.lower_expr(init, ExprPos::DeclInit)?;
                for name in &d.names {
                    let slot = self.object_slots[name];
                    self.objects[slot].init = Some(ce.clone());
                }
            }
        }
        Ok(())
    }

    fn branch_slot(&mut self, b: &ast::BranchRef) -> Result<(usize, QuantityKind)> {
        let pa = *self
            .pin_slots
            .get(&b.pin_a)
            .ok_or_else(|| Self::err(format!("unknown pin `{}`", b.pin_a), b.span))?;
        let pb = *self
            .pin_slots
            .get(&b.pin_b)
            .ok_or_else(|| Self::err(format!("unknown pin `{}`", b.pin_b), b.span))?;
        if pa == pb {
            return Err(Self::err(
                format!("branch pins must differ, got `[{0}, {0}]`", b.pin_a),
                b.span,
            ));
        }
        let na = self.pins[pa].nature;
        let nb = self.pins[pb].nature;
        if na != nb {
            return Err(Self::err(
                format!(
                    "branch `[{}, {}]` mixes natures {na} and {nb}",
                    b.pin_a, b.pin_b
                ),
                b.span,
            ));
        }
        let kind = na.quantity_kind(&b.quantity).ok_or_else(|| {
            Self::err(
                format!(
                    "`{}` is not a quantity of nature {na} (expected `{}` or `{}`)",
                    b.quantity,
                    na.across_quantity(),
                    na.through_quantity()
                ),
                b.span,
            )
        })?;
        let slot = self
            .branches
            .iter()
            .position(|info| info.pin_a == pa && info.pin_b == pb)
            .unwrap_or_else(|| {
                self.branches.push(BranchInfo {
                    pin_a: pa,
                    pin_b: pb,
                    nature: na,
                });
                self.branches.len() - 1
            });
        Ok((slot, kind))
    }

    fn lower_const_expr(&mut self, e: &Expr) -> Result<CExpr> {
        self.lower_expr(e, ExprPos::ConstOnly)
    }

    fn lower_expr(&mut self, e: &Expr, pos: ExprPos) -> Result<CExpr> {
        Ok(match e {
            Expr::Num(v, _) => CExpr::Const(*v),
            Expr::Bool(b, _) => CExpr::Const(f64::from(*b)),
            Expr::Ident(name, span) => {
                if let Some(&slot) = self.object_slots.get(name) {
                    if pos == ExprPos::ConstOnly {
                        return Err(Self::err(
                            format!("`{name}` is not allowed in a constant expression"),
                            *span,
                        ));
                    }
                    CExpr::Object(slot)
                } else if let Some(&slot) = self.generic_slots.get(name) {
                    CExpr::Generic(slot)
                } else if name == "pi" {
                    CExpr::Const(std::f64::consts::PI)
                } else if name == "time" {
                    if pos != ExprPos::Runtime {
                        return Err(Self::err(
                            "`time` is only available in procedural contexts".into(),
                            *span,
                        ));
                    }
                    CExpr::Time
                } else {
                    return Err(Self::err(format!("unknown identifier `{name}`"), *span));
                }
            }
            Expr::Branch(b) => {
                if pos != ExprPos::Runtime {
                    return Err(Self::err(
                        "branch quantities are only available in procedural contexts".into(),
                        b.span,
                    ));
                }
                let (slot, kind) = self.branch_slot(b)?;
                if kind != QuantityKind::Across {
                    return Err(Self::err(
                        format!(
                            "through quantity `{}` cannot be read; only across \
                             quantities appear in expressions",
                            b.quantity
                        ),
                        b.span,
                    ));
                }
                CExpr::Across(slot)
            }
            Expr::Unary { op, expr, .. } => {
                CExpr::Unary(*op, Box::new(self.lower_expr(expr, pos)?))
            }
            Expr::Binary { op, lhs, rhs, .. } => CExpr::Binary(
                *op,
                Box::new(self.lower_expr(lhs, pos)?),
                Box::new(self.lower_expr(rhs, pos)?),
            ),
            Expr::Call { name, args, span } => self.lower_call(name, args, *span, pos)?,
        })
    }

    fn lower_call(&mut self, name: &str, args: &[Expr], span: Span, pos: ExprPos) -> Result<CExpr> {
        match name {
            "ddt" => {
                if pos != ExprPos::Runtime {
                    return Err(Self::err("`ddt` needs a procedural context".into(), span));
                }
                if args.len() != 1 {
                    return Err(Self::err("`ddt` takes exactly one argument".into(), span));
                }
                let site = self.n_ddt;
                self.n_ddt += 1;
                Ok(CExpr::Ddt {
                    site,
                    arg: Box::new(self.lower_expr(&args[0], pos)?),
                })
            }
            "integ" => {
                if pos != ExprPos::Runtime {
                    return Err(Self::err("`integ` needs a procedural context".into(), span));
                }
                if args.is_empty() || args.len() > 2 {
                    return Err(Self::err(
                        "`integ` takes one argument plus an optional initial condition".into(),
                        span,
                    ));
                }
                let ic = if args.len() == 2 {
                    let ce = self.lower_expr(&args[1], ExprPos::DeclInit)?;
                    // Folded against generic defaults is not possible yet;
                    // require it to be generic-free or constant: fold with
                    // zeros placeholder rejected — instead fold at
                    // elaboration. Keep the expression if constant-only.
                    fold(&ce, &vec![f64::NAN; self.generics.len()], &[]).map_err(|_| {
                        Self::err(
                            "`integ` initial condition must be a constant expression".into(),
                            args[1].span(),
                        )
                    })?
                } else {
                    0.0
                };
                if ic.is_nan() {
                    return Err(Self::err(
                        "`integ` initial condition may not reference generics".into(),
                        args[1].span(),
                    ));
                }
                let site = self.n_integ;
                self.n_integ += 1;
                Ok(CExpr::Integ {
                    site,
                    arg: Box::new(self.lower_expr(&args[0], pos)?),
                    ic,
                })
            }
            "table1d" => {
                if pos != ExprPos::Runtime {
                    return Err(Self::err(
                        "`table1d` needs a procedural context".into(),
                        span,
                    ));
                }
                if args.len() < 5 || args.len().is_multiple_of(2) {
                    return Err(Self::err(
                        "`table1d(x, x0, y0, x1, y1, …)` needs an abscissa plus at \
                         least two breakpoint pairs"
                            .into(),
                        span,
                    ));
                }
                let arg = Box::new(self.lower_expr(&args[0], pos)?);
                let mut breakpoints = Vec::new();
                for pair in args[1..].chunks(2) {
                    let x = self.lower_expr(&pair[0], ExprPos::DeclInit)?;
                    let y = self.lower_expr(&pair[1], ExprPos::DeclInit)?;
                    breakpoints.push((x, y));
                }
                let site = self.tables.len();
                self.tables.push(TableSpec { breakpoints, span });
                Ok(CExpr::Table { site, arg })
            }
            "now" => {
                if !args.is_empty() {
                    return Err(Self::err("`now` takes no arguments".into(), span));
                }
                if pos != ExprPos::Runtime {
                    return Err(Self::err("`now` needs a procedural context".into(), span));
                }
                Ok(CExpr::Time)
            }
            _ => {
                let (builtin, arity) = Builtin::lookup(name)
                    .ok_or_else(|| Self::err(format!("unknown function `{name}`"), span))?;
                if args.len() != arity {
                    return Err(Self::err(
                        format!("`{name}` takes {arity} argument(s), got {}", args.len()),
                        span,
                    ));
                }
                let mut cargs = Vec::with_capacity(args.len());
                for a in args {
                    cargs.push(self.lower_expr(a, pos)?);
                }
                Ok(CExpr::Call(builtin, cargs))
            }
        }
    }

    fn lower_relation(&mut self, relation: &ast::Relation) -> Result<()> {
        for block in &relation.blocks {
            match block {
                Block::Procedural {
                    contexts,
                    stmts,
                    span,
                } => {
                    let is_init = contexts.contains(&Ctx::Init);
                    if is_init && contexts.len() > 1 {
                        return Err(Self::err(
                            "`init` cannot be combined with other contexts".into(),
                            *span,
                        ));
                    }
                    let lowered = self.lower_stmts(stmts, is_init)?;
                    if is_init {
                        self.init_program.extend(lowered);
                    } else {
                        for ctx in contexts {
                            match ctx {
                                Ctx::Dc => {
                                    self.has_dc_block = true;
                                    self.dc_program.extend(lowered.iter().cloned());
                                }
                                Ctx::Ac => {
                                    self.has_ac_block = true;
                                    self.ac_program.extend(lowered.iter().cloned());
                                }
                                Ctx::Transient => self.tran_program.extend(lowered.iter().cloned()),
                                Ctx::Init => unreachable!("checked above"),
                            }
                        }
                    }
                }
                Block::Equation {
                    contexts,
                    equations,
                    span,
                } => {
                    if contexts.contains(&Ctx::Init) {
                        return Err(Self::err(
                            "equation blocks cannot run in `init`".into(),
                            *span,
                        ));
                    }
                    // Lower each equation once so `integ`/`ddt` call
                    // sites are shared across the contexts of this
                    // block (one history slot per textual call site).
                    let mut lowered = Vec::with_capacity(equations.len());
                    for eq in equations {
                        lowered.push((
                            self.lower_expr(&eq.lhs, ExprPos::Runtime)?,
                            self.lower_expr(&eq.rhs, ExprPos::Runtime)?,
                            eq.span,
                        ));
                    }
                    for ctx in contexts {
                        let ctx_idx = match ctx {
                            Ctx::Dc => 0,
                            Ctx::Ac => 1,
                            Ctx::Transient => 2,
                            Ctx::Init => unreachable!("checked above"),
                        };
                        for (lhs, rhs, eq_span) in &lowered {
                            let index = self.residuals[ctx_idx];
                            self.residuals[ctx_idx] += 1;
                            if index >= self.n_unknowns {
                                return Err(Self::err(
                                    format!(
                                        "more equations than UNKNOWN objects \
                                         ({}) in context `{}`",
                                        self.n_unknowns,
                                        ctx.name()
                                    ),
                                    *eq_span,
                                ));
                            }
                            let stmt = CStmt::Residual {
                                index,
                                lhs: lhs.clone(),
                                rhs: rhs.clone(),
                            };
                            match ctx {
                                Ctx::Dc => {
                                    self.has_dc_block = true;
                                    self.dc_program.push(stmt);
                                }
                                Ctx::Ac => {
                                    self.has_ac_block = true;
                                    self.ac_program.push(stmt);
                                }
                                Ctx::Transient => self.tran_program.push(stmt),
                                Ctx::Init => unreachable!("checked above"),
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &[Stmt], init_ctx: bool) -> Result<Vec<CStmt>> {
        let pos = if init_ctx {
            ExprPos::InitBlock
        } else {
            ExprPos::Runtime
        };
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(match s {
                Stmt::Assign {
                    target,
                    value,
                    span,
                } => {
                    let slot = *self
                        .object_slots
                        .get(target)
                        .ok_or_else(|| Self::err(format!("unknown object `{target}`"), *span))?;
                    match self.objects[slot].kind {
                        ObjectKind::Variable | ObjectKind::State => {}
                        ObjectKind::Constant => {
                            return Err(Self::err(
                                format!("cannot assign to constant `{target}`"),
                                *span,
                            ))
                        }
                        ObjectKind::Unknown => {
                            return Err(Self::err(
                                format!(
                                    "cannot assign to unknown `{target}`; constrain it \
                                     with an EQUATION block instead"
                                ),
                                *span,
                            ))
                        }
                    }
                    CStmt::Assign {
                        object: slot,
                        value: self.lower_expr(value, pos)?,
                    }
                }
                Stmt::Contribute {
                    branch,
                    value,
                    span,
                } => {
                    if init_ctx {
                        return Err(Self::err(
                            "contributions are not allowed in `init`".into(),
                            *span,
                        ));
                    }
                    let (slot, kind) = self.branch_slot(branch)?;
                    if kind != QuantityKind::Through {
                        return Err(Self::err(
                            format!(
                                "only through quantities can be contributed; `{}` is \
                                 the across quantity of {}",
                                branch.quantity, self.branches[slot].nature
                            ),
                            *span,
                        ));
                    }
                    CStmt::Contribute {
                        branch: slot,
                        value: self.lower_expr(value, pos)?,
                    }
                }
                Stmt::If {
                    arms, otherwise, ..
                } => {
                    let mut carms = Vec::with_capacity(arms.len());
                    for (cond, body) in arms {
                        carms.push((
                            self.lower_expr(cond, pos)?,
                            self.lower_stmts(body, init_ctx)?,
                        ));
                    }
                    CStmt::If {
                        arms: carms,
                        otherwise: self.lower_stmts(otherwise, init_ctx)?,
                    }
                }
                Stmt::Assert { cond, message, .. } => CStmt::Assert {
                    cond: self.lower_expr(cond, pos)?,
                    message: message.clone(),
                },
                Stmt::Report { message, .. } => CStmt::Report {
                    message: message.clone(),
                },
            });
        }
        Ok(out)
    }

    fn finish(self) -> Result<CompiledModel> {
        // Equation/unknown pairing: every non-init context that has any
        // program content must provide one residual per unknown.
        if self.n_unknowns > 0 {
            for (idx, name) in [(0, "dc"), (1, "ac"), (2, "transient")] {
                let provided = self.residuals[idx];
                // dc/ac may fall back to the transient program.
                let effective = if provided == 0 && !self.context_has_blocks(idx) {
                    self.residuals[2]
                } else {
                    provided
                };
                if effective != self.n_unknowns {
                    return Err(Self::err(
                        format!(
                            "context `{name}` provides {effective} equation(s) for \
                             {} unknown(s)",
                            self.n_unknowns
                        ),
                        self.arch.span,
                    ));
                }
            }
        }

        let mut dc_program = self.dc_program;
        let mut ac_program = self.ac_program;
        // Fallback rule: contexts without explicit blocks reuse the
        // transient program (ddt→0 / integ→IC give DC semantics; the
        // AC evaluator maps ddt→jω).
        if !self.has_dc_block {
            dc_program = self.tran_program.clone();
        }
        if !self.has_ac_block {
            ac_program = self.tran_program.clone();
        }

        Ok(CompiledModel {
            name: self.ent.name.clone(),
            arch: self.arch.name.clone(),
            generics: self.generics,
            pins: self.pins,
            branches: self.branches,
            objects: self.objects,
            n_unknowns: self.n_unknowns,
            n_ddt_sites: self.n_ddt,
            n_integ_sites: self.n_integ,
            tables: self.tables,
            init_program: self.init_program,
            dc_program,
            ac_program,
            tran_program: self.tran_program,
        })
    }

    fn context_has_blocks(&self, ctx_idx: usize) -> bool {
        match ctx_idx {
            0 => self.has_dc_block,
            1 => self.has_ac_block,
            _ => true,
        }
    }
}

/// Where an expression appears, for legality checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprPos {
    /// Fully constant (generic defaults).
    ConstOnly,
    /// Declaration initializers: generics and constants, no run-time
    /// quantities.
    DeclInit,
    /// `init` block: like `DeclInit` but may also read variables.
    InitBlock,
    /// Procedural dc/ac/transient code: everything allowed.
    Runtime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const LISTING1: &str = r#"
ENTITY eletran IS
 GENERIC (A, d, er : analog);
 PIN (a, b : electrical; c, d : mechanical1);
END ENTITY eletran;
ARCHITECTURE a OF eletran IS
VARIABLE e0, x : analog;
STATE V, S : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      e0 := 8.8542e-12;
    PROCEDURAL FOR ac, transient =>
      V := [a, b].v;
      S := [c, d].tv;
      x := integ(S);
      [a, b].i %= e0*er*A/(d + x)*ddt(V);
      [c, d].f %= -e0*er*A*V*V/(2.0*(d+x)*(d+x));
  END RELATION;
END ARCHITECTURE a;
"#;

    fn compile_src(src: &str, entity: &str) -> Result<CompiledModel> {
        compile(&parse(src).unwrap(), entity, None)
    }

    #[test]
    fn compiles_listing1() {
        let m = compile_src(LISTING1, "eletran").unwrap();
        assert_eq!(m.name, "eletran");
        assert_eq!(m.generics.len(), 3);
        assert_eq!(m.pins.len(), 4);
        assert_eq!(m.pins[2].nature, Nature::MechanicalTranslation);
        assert_eq!(m.branches.len(), 2);
        assert_eq!(m.objects.len(), 4);
        assert_eq!(m.n_ddt_sites, 1);
        assert_eq!(m.n_integ_sites, 1);
        assert_eq!(m.n_unknowns, 0);
        assert_eq!(m.init_program.len(), 1);
        // ac and transient share the same five statements.
        assert_eq!(m.ac_program.len(), 5);
        assert_eq!(m.tran_program.len(), 5);
        // No explicit dc block → fallback to transient program.
        assert_eq!(m.dc_program, m.tran_program);
    }

    #[test]
    fn generic_default_may_not_read_another_generic() {
        // Folded before any generic is bound: an error, not a panic.
        let src = r#"
ENTITY x IS
  GENERIC (a : analog := 1.0; b : analog := a);
  PIN (p, q : electrical);
END ENTITY x;
ARCHITECTURE y OF x IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= b * [p, q].v;
  END RELATION;
END ARCHITECTURE y;
"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(
            err.to_string()
                .contains("default of generic `b` must be constant"),
            "{err}"
        );
    }

    #[test]
    fn generic_and_pin_namespaces_are_separate() {
        // Listing 1 itself uses `d` as both a generic and a pin.
        let m = compile_src(LISTING1, "eletran").unwrap();
        assert!(m.generic_index("d").is_some());
        assert!(m.pin_index("d").is_some());
    }

    #[test]
    fn rejects_unknown_nature() {
        let src = "ENTITY x IS PIN (p, q : warp); END ENTITY x;
                   ARCHITECTURE a OF x IS BEGIN RELATION END RELATION; END ARCHITECTURE a;";
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("unknown nature"));
    }

    #[test]
    fn rejects_reading_through_quantity() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      y := [p, q].i;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("cannot be read"));
    }

    #[test]
    fn rejects_contributing_across_quantity() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [p, q].v %= 1.0;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("through quantities"));
    }

    #[test]
    fn rejects_nature_mismatch_in_branch() {
        let src = r#"
ENTITY x IS PIN (p : electrical; m : mechanical1); END ENTITY x;
ARCHITECTURE a OF x IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      [p, m].i %= 1.0;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("mixes natures"));
    }

    #[test]
    fn rejects_wrong_quantity_for_nature() {
        let src = r#"
ENTITY x IS PIN (c, d : mechanical1); END ENTITY x;
ARCHITECTURE a OF x IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      y := [c, d].v;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("not a quantity"));
    }

    #[test]
    fn rejects_assignment_to_constant_and_unknown() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
CONSTANT c : analog := 1.0;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      c := 2.0;
  END RELATION;
END ARCHITECTURE a;"#;
        assert!(compile_src(src, "x")
            .unwrap_err()
            .to_string()
            .contains("constant"));
    }

    #[test]
    fn unknown_needs_matching_equations() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
UNKNOWN u : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= u;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("equation"));
    }

    #[test]
    fn equation_blocks_pair_with_unknowns() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
UNKNOWN u : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= u;
    EQUATION FOR dc, ac, transient =>
      u * u + u == [p, q].v;
  END RELATION;
END ARCHITECTURE a;"#;
        let m = compile_src(src, "x").unwrap();
        assert_eq!(m.n_unknowns, 1);
        assert!(matches!(
            m.dc_program.last(),
            Some(CStmt::Residual { index: 0, .. })
        ));
    }

    #[test]
    fn contributions_forbidden_in_init() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      [p, q].i %= 1.0;
  END RELATION;
END ARCHITECTURE a;"#;
        let err = compile_src(src, "x").unwrap_err();
        assert!(err.to_string().contains("init"));
    }

    #[test]
    fn ddt_forbidden_in_init() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR init =>
      y := ddt(1.0);
  END RELATION;
END ARCHITECTURE a;"#;
        assert!(compile_src(src, "x").is_err());
    }

    #[test]
    fn table1d_requires_constant_breakpoints() {
        let src = r#"
ENTITY x IS GENERIC (g : analog); PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= table1d([p, q].v, 0.0, 0.0, 1.0, g);
  END RELATION;
END ARCHITECTURE a;"#;
        // Breakpoints may reference generics (folded at elaboration).
        let m = compile_src(src, "x").unwrap();
        assert_eq!(m.tables.len(), 1);
        // But not branch quantities.
        let bad = src.replace("1.0, g", "1.0, [p, q].v");
        assert!(compile_src(&bad, "x").is_err());
    }

    #[test]
    fn pi_and_time_resolve() {
        let src = r#"
ENTITY x IS PIN (p, q : electrical); END ENTITY x;
ARCHITECTURE a OF x IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      y := sin(2.0 * pi * time);
      [p, q].i %= y;
  END RELATION;
END ARCHITECTURE a;"#;
        let m = compile_src(src, "x").unwrap();
        assert_eq!(m.tran_program.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let src = "ENTITY x IS GENERIC (g, g : analog); END ENTITY x;
                   ARCHITECTURE a OF x IS BEGIN RELATION END RELATION; END ARCHITECTURE a;";
        assert!(compile_src(src, "x")
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn missing_entity_reports_cleanly() {
        let err = compile_src(
            "ENTITY y IS END ENTITY y;
            ARCHITECTURE a OF y IS BEGIN RELATION END RELATION; END ARCHITECTURE a;",
            "zz",
        )
        .unwrap_err();
        assert!(err.to_string().contains("no entity"));
    }
}
