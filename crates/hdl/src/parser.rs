//! Recursive-descent parser for the HDL-A subset.
//!
//! Grammar (informally; keywords case-insensitive):
//!
//! ```text
//! module      := (entity | architecture)*
//! entity      := ENTITY id IS [GENERIC ( groups );] [PIN ( pin_groups );]
//!                END [ENTITY] [id] ;
//! groups      := group (; group)*          group := id (, id)* : ANALOG [:= expr]
//! pin_groups  := pgroup (; pgroup)*        pgroup := id (, id)* : id
//! architecture:= ARCHITECTURE id OF id IS decl* BEGIN relation END [ARCHITECTURE] [id] ;
//! decl        := (VARIABLE|STATE|CONSTANT|UNKNOWN) id (, id)* : ANALOG [:= expr] ;
//! relation    := RELATION block* END RELATION ;
//! block       := PROCEDURAL FOR ctxs => stmt*
//!              | EQUATION  FOR ctxs => (expr == expr ;)*
//! stmt        := id := expr ;
//!              | branch %= expr ;
//!              | IF expr THEN stmt* (ELSIF expr THEN stmt*)* [ELSE stmt*] END IF ;
//!              | ASSERT expr [REPORT string] ;
//!              | REPORT string ;
//! branch      := [ id , id ] . id
//! expr        := or-level precedence climbing, `**` right-assoc
//! ```

use crate::ast::*;
use crate::error::{HdlError, Result};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword as Kw, Token, TokenKind as Tk};

/// Deepest nesting the parser accepts, counted in expression levels
/// (parentheses, calls, unary operators, operator chains) plus
/// enclosing `IF` statements. Every later pass walks the tree
/// recursively, so this also bounds their stack use.
const MAX_DEPTH: usize = 256;

/// Parses a full module (any number of entities and architectures).
///
/// # Errors
///
/// Returns [`HdlError::Lex`] or [`HdlError::Parse`] with a source span
/// on malformed input.
pub fn parse(src: &str) -> Result<Module> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut module = Module::default();
    loop {
        match p.peek() {
            Tk::Eof => return Ok(module),
            Tk::Keyword(Kw::Entity) => module.entities.push(p.entity()?),
            Tk::Keyword(Kw::Architecture) => module.architectures.push(p.architecture()?),
            other => return Err(p.error(format!("expected ENTITY or ARCHITECTURE, found {other}"))),
        }
    }
}

/// Parses a single expression (used by tests and the symbolic layer).
///
/// # Errors
///
/// Returns a parse error unless the whole input is one expression.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect(Tk::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting, bounded by [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tk {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tk {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: String) -> HdlError {
        HdlError::Parse {
            message,
            span: self.span(),
        }
    }

    fn expect(&mut self, kind: Tk) -> Result<Token> {
        if *self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<Token> {
        self.expect(Tk::Keyword(kw))
    }

    fn eat(&mut self, kind: &Tk) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&Tk::Keyword(kw))
    }

    /// Enters one nesting level; the caller restores `depth` on exit.
    fn nest(&mut self) -> Result<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn ident(&mut self) -> Result<(String, Span)> {
        match self.peek().clone() {
            Tk::Ident(s) => {
                let sp = self.span();
                self.bump();
                Ok((s, sp))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    // ---------------------------------------------------------- entity

    fn entity(&mut self) -> Result<Entity> {
        let start = self.span();
        self.expect_kw(Kw::Entity)?;
        let (name, _) = self.ident()?;
        self.expect_kw(Kw::Is)?;
        let mut generics = Vec::new();
        let mut pins = Vec::new();
        if self.eat_kw(Kw::Generic) {
            self.expect(Tk::LParen)?;
            loop {
                generics.extend(self.generic_group()?);
                if !self.eat(&Tk::Semicolon) {
                    break;
                }
                // Allow trailing semicolon before `)`.
                if *self.peek() == Tk::RParen {
                    break;
                }
            }
            self.expect(Tk::RParen)?;
            self.expect(Tk::Semicolon)?;
        }
        if self.eat_kw(Kw::Pin) {
            self.expect(Tk::LParen)?;
            loop {
                pins.extend(self.pin_group()?);
                if !self.eat(&Tk::Semicolon) {
                    break;
                }
                if *self.peek() == Tk::RParen {
                    break;
                }
            }
            self.expect(Tk::RParen)?;
            self.expect(Tk::Semicolon)?;
        }
        self.expect_kw(Kw::End)?;
        self.eat_kw(Kw::Entity);
        if let Tk::Ident(trailer) = self.peek().clone() {
            if trailer != name {
                return Err(self.error(format!(
                    "END ENTITY name `{trailer}` does not match `{name}`"
                )));
            }
            self.bump();
        }
        self.expect(Tk::Semicolon)?;
        Ok(Entity {
            name,
            generics,
            pins,
            span: start.merge(self.prev_span()),
        })
    }

    fn generic_group(&mut self) -> Result<Vec<GenericDecl>> {
        let mut names = Vec::new();
        loop {
            let (n, sp) = self.ident()?;
            names.push((n, sp));
            if !self.eat(&Tk::Comma) {
                break;
            }
        }
        self.expect(Tk::Colon)?;
        self.expect_kw(Kw::Analog)?;
        let default = if self.eat(&Tk::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(names
            .into_iter()
            .map(|(name, span)| GenericDecl {
                name,
                default: default.clone(),
                span,
            })
            .collect())
    }

    fn pin_group(&mut self) -> Result<Vec<PinDecl>> {
        let mut names = Vec::new();
        loop {
            let (n, sp) = self.ident()?;
            names.push((n, sp));
            if !self.eat(&Tk::Comma) {
                break;
            }
        }
        self.expect(Tk::Colon)?;
        let (nature, _) = self.ident()?;
        Ok(names
            .into_iter()
            .map(|(name, span)| PinDecl {
                name,
                nature: nature.clone(),
                span,
            })
            .collect())
    }

    // ---------------------------------------------------- architecture

    fn architecture(&mut self) -> Result<Architecture> {
        let start = self.span();
        self.expect_kw(Kw::Architecture)?;
        let (name, _) = self.ident()?;
        self.expect_kw(Kw::Of)?;
        let (entity, _) = self.ident()?;
        self.expect_kw(Kw::Is)?;
        let mut decls = Vec::new();
        loop {
            let kind = match self.peek() {
                Tk::Keyword(Kw::Variable) => ObjectKind::Variable,
                Tk::Keyword(Kw::State) => ObjectKind::State,
                Tk::Keyword(Kw::Constant) => ObjectKind::Constant,
                Tk::Keyword(Kw::Unknown) => ObjectKind::Unknown,
                _ => break,
            };
            let dstart = self.span();
            self.bump();
            let mut names = Vec::new();
            loop {
                let (n, _) = self.ident()?;
                names.push(n);
                if !self.eat(&Tk::Comma) {
                    break;
                }
            }
            self.expect(Tk::Colon)?;
            self.expect_kw(Kw::Analog)?;
            let init = if self.eat(&Tk::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(Tk::Semicolon)?;
            decls.push(ObjectDecl {
                kind,
                names,
                init,
                span: dstart.merge(self.prev_span()),
            });
        }
        self.expect_kw(Kw::Begin)?;
        let relation = self.relation()?;
        self.expect_kw(Kw::End)?;
        self.eat_kw(Kw::Architecture);
        if let Tk::Ident(trailer) = self.peek().clone() {
            if trailer != name {
                return Err(self.error(format!(
                    "END ARCHITECTURE name `{trailer}` does not match `{name}`"
                )));
            }
            self.bump();
        }
        self.expect(Tk::Semicolon)?;
        Ok(Architecture {
            name,
            entity,
            decls,
            relation,
            span: start.merge(self.prev_span()),
        })
    }

    fn relation(&mut self) -> Result<Relation> {
        self.expect_kw(Kw::Relation)?;
        let mut blocks = Vec::new();
        loop {
            match self.peek() {
                Tk::Keyword(Kw::Procedural) => {
                    let span = self.span();
                    self.bump();
                    self.expect_kw(Kw::For)?;
                    let contexts = self.context_list()?;
                    self.expect(Tk::Arrow)?;
                    let stmts = self.stmts_until_block_end()?;
                    blocks.push(Block::Procedural {
                        contexts,
                        stmts,
                        span,
                    });
                }
                Tk::Keyword(Kw::Equation) => {
                    let span = self.span();
                    self.bump();
                    self.expect_kw(Kw::For)?;
                    let contexts = self.context_list()?;
                    self.expect(Tk::Arrow)?;
                    let mut equations = Vec::new();
                    while !matches!(
                        self.peek(),
                        Tk::Keyword(Kw::Procedural)
                            | Tk::Keyword(Kw::Equation)
                            | Tk::Keyword(Kw::End)
                    ) {
                        let estart = self.span();
                        let lhs = self.expr()?;
                        self.expect(Tk::EqEq)?;
                        let rhs = self.expr()?;
                        self.expect(Tk::Semicolon)?;
                        equations.push(EquationStmt {
                            lhs,
                            rhs,
                            span: estart.merge(self.prev_span()),
                        });
                    }
                    blocks.push(Block::Equation {
                        contexts,
                        equations,
                        span,
                    });
                }
                _ => break,
            }
        }
        self.expect_kw(Kw::End)?;
        self.expect_kw(Kw::Relation)?;
        self.expect(Tk::Semicolon)?;
        Ok(Relation { blocks })
    }

    fn context_list(&mut self) -> Result<Vec<Ctx>> {
        let mut ctxs = Vec::new();
        loop {
            let (name, sp) = self.ident()?;
            let ctx = Ctx::from_name(&name).ok_or_else(|| HdlError::Parse {
                message: format!(
                    "unknown analysis context `{name}` (expected init, dc, ac, transient)"
                ),
                span: sp,
            })?;
            ctxs.push(ctx);
            if !self.eat(&Tk::Comma) {
                break;
            }
        }
        Ok(ctxs)
    }

    fn stmts_until_block_end(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        while !matches!(
            self.peek(),
            Tk::Keyword(Kw::Procedural)
                | Tk::Keyword(Kw::Equation)
                | Tk::Keyword(Kw::End)
                | Tk::Keyword(Kw::Elsif)
                | Tk::Keyword(Kw::Else)
        ) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        match self.peek().clone() {
            Tk::Ident(name) => {
                self.bump();
                self.expect(Tk::Assign)?;
                let value = self.expr()?;
                self.expect(Tk::Semicolon)?;
                Ok(Stmt::Assign {
                    target: name,
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            Tk::LBracket => {
                let branch = self.branch_ref()?;
                self.expect(Tk::Contribute)?;
                let value = self.expr()?;
                self.expect(Tk::Semicolon)?;
                Ok(Stmt::Contribute {
                    branch,
                    value,
                    span: start.merge(self.prev_span()),
                })
            }
            Tk::Keyword(Kw::If) => self.if_stmt(),
            Tk::Keyword(Kw::Assert) => {
                self.bump();
                let cond = self.expr()?;
                let message = if self.eat_kw(Kw::Report) {
                    match self.peek().clone() {
                        Tk::Str(s) => {
                            self.bump();
                            s
                        }
                        other => return Err(self.error(format!("expected string, found {other}"))),
                    }
                } else {
                    "assertion failed".to_string()
                };
                self.expect(Tk::Semicolon)?;
                Ok(Stmt::Assert {
                    cond,
                    message,
                    span: start.merge(self.prev_span()),
                })
            }
            Tk::Keyword(Kw::Report) => {
                self.bump();
                let message = match self.peek().clone() {
                    Tk::Str(s) => {
                        self.bump();
                        s
                    }
                    other => return Err(self.error(format!("expected string, found {other}"))),
                };
                self.expect(Tk::Semicolon)?;
                Ok(Stmt::Report {
                    message,
                    span: start.merge(self.prev_span()),
                })
            }
            other => Err(self.error(format!("expected a statement, found {other}"))),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        self.nest()?;
        self.expect_kw(Kw::If)?;
        let mut arms = Vec::new();
        let cond = self.expr()?;
        self.expect_kw(Kw::Then)?;
        let body = self.stmts_until_block_end()?;
        arms.push((cond, body));
        let mut otherwise = Vec::new();
        loop {
            if self.eat_kw(Kw::Elsif) {
                let c = self.expr()?;
                self.expect_kw(Kw::Then)?;
                let b = self.stmts_until_block_end()?;
                arms.push((c, b));
            } else if self.eat_kw(Kw::Else) {
                otherwise = self.stmts_until_block_end()?;
                break;
            } else {
                break;
            }
        }
        self.expect_kw(Kw::End)?;
        self.expect_kw(Kw::If)?;
        self.expect(Tk::Semicolon)?;
        self.depth -= 1;
        Ok(Stmt::If {
            arms,
            otherwise,
            span: start.merge(self.prev_span()),
        })
    }

    fn branch_ref(&mut self) -> Result<BranchRef> {
        let start = self.span();
        self.expect(Tk::LBracket)?;
        let (pin_a, _) = self.ident()?;
        self.expect(Tk::Comma)?;
        let (pin_b, _) = self.ident()?;
        self.expect(Tk::RBracket)?;
        self.expect(Tk::Dot)?;
        let (quantity, _) = self.ident()?;
        Ok(BranchRef {
            pin_a,
            pin_b,
            quantity,
            span: start.merge(self.prev_span()),
        })
    }

    // ------------------------------------------------------ expressions

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    /// Parses a left-associative chain `operand (op operand)*`, where
    /// `op` maps the lookahead to an operator. A chain builds a tree as
    /// deep as it is long, so its height counts against [`MAX_DEPTH`]
    /// on top of the current nesting.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr>,
        op: fn(&Tk) -> Option<BinOp>,
    ) -> Result<Expr> {
        let mut lhs = operand(self)?;
        let mut height = None;
        while let Some(op) = op(self.peek()) {
            self.bump();
            let rhs = operand(self)?;
            let h = height.unwrap_or_else(|| lhs.height()).max(rhs.height()) + 1;
            height = Some(h);
            if self.depth + h > MAX_DEPTH {
                return Err(HdlError::Parse {
                    message: format!("nesting deeper than {MAX_DEPTH} levels"),
                    span: rhs.span(),
                });
            }
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.chain(Self::and_expr, |t| {
            (*t == Tk::Keyword(Kw::Or)).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.chain(Self::not_expr, |t| {
            (*t == Tk::Keyword(Kw::And)).then_some(BinOp::And)
        })
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if *self.peek() == Tk::Keyword(Kw::Not) {
            let start = self.span();
            self.bump();
            self.nest()?;
            let e = self.not_expr()?;
            self.depth -= 1;
            let span = start.merge(e.span());
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
                span,
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // NB: `==` is reserved for EQUATION statements; inside
        // expressions equality is VHDL-style `=`.
        let op = match self.peek() {
            Tk::Eq => BinOp::Eq,
            Tk::NotEq => BinOp::Ne,
            Tk::Lt => BinOp::Lt,
            Tk::Le => BinOp::Le,
            Tk::Gt => BinOp::Gt,
            Tk::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        let span = lhs.span().merge(rhs.span());
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        })
    }

    fn additive(&mut self) -> Result<Expr> {
        self.chain(Self::multiplicative, |t| match t {
            Tk::Plus => Some(BinOp::Add),
            Tk::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        self.chain(Self::unary, |t| match t {
            Tk::Star => Some(BinOp::Mul),
            Tk::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    fn unary(&mut self) -> Result<Expr> {
        self.nest()?;
        let e = self.signed();
        self.depth -= 1;
        e
    }

    fn signed(&mut self) -> Result<Expr> {
        match self.peek() {
            Tk::Minus => {
                let start = self.span();
                self.bump();
                let e = self.unary()?;
                let span = start.merge(e.span());
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                    span,
                })
            }
            Tk::Plus => {
                self.bump();
                self.unary()
            }
            _ => self.power(),
        }
    }

    fn power(&mut self) -> Result<Expr> {
        let base = self.primary()?;
        if self.eat(&Tk::StarStar) {
            // Right associative: 2**3**2 = 2**(3**2).
            let exp = self.unary()?;
            let span = base.span().merge(exp.span());
            return Ok(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
                span,
            });
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Expr> {
        let start = self.span();
        match self.peek().clone() {
            Tk::Number(n) => {
                self.bump();
                Ok(Expr::Num(n, start))
            }
            Tk::Keyword(Kw::True) => {
                self.bump();
                Ok(Expr::Bool(true, start))
            }
            Tk::Keyword(Kw::False) => {
                self.bump();
                Ok(Expr::Bool(false, start))
            }
            Tk::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tk::RParen)?;
                Ok(e)
            }
            Tk::LBracket => Ok(Expr::Branch(self.branch_ref()?)),
            Tk::Ident(name) => {
                if *self.peek2() == Tk::LParen {
                    self.bump();
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tk::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tk::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tk::RParen)?;
                    Ok(Expr::Call {
                        name,
                        args,
                        span: start.merge(self.prev_span()),
                    })
                } else {
                    self.bump();
                    Ok(Expr::Ident(name, start))
                }
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Listing 1, verbatim up to whitespace.
    pub const LISTING1: &str = r#"
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

    #[test]
    fn parses_listing1_verbatim() {
        let m = parse(LISTING1).unwrap();
        assert_eq!(m.entities.len(), 1);
        assert_eq!(m.architectures.len(), 1);
        let e = &m.entities[0];
        assert_eq!(e.name, "eletran");
        assert_eq!(
            e.generics
                .iter()
                .map(|g| g.name.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "d", "er"]
        );
        assert_eq!(e.pins.len(), 4);
        assert_eq!(e.pins[0].nature, "electrical");
        assert_eq!(e.pins[3].nature, "mechanical1");
        let a = &m.architectures[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.entity, "eletran");
        assert_eq!(a.decls.len(), 2);
        assert_eq!(a.decls[0].kind, ObjectKind::Variable);
        assert_eq!(a.decls[1].kind, ObjectKind::State);
        assert_eq!(a.relation.blocks.len(), 2);
        match &a.relation.blocks[1] {
            Block::Procedural {
                contexts, stmts, ..
            } => {
                assert_eq!(contexts, &vec![Ctx::Ac, Ctx::Transient]);
                assert_eq!(stmts.len(), 5);
                assert!(matches!(stmts[4], Stmt::Contribute { .. }));
            }
            other => panic!("unexpected block {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul_chain() {
        // -a*b parses as (-a)*b.
        let e = parse_expr("-a*b").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => {
                assert!(matches!(*lhs, Expr::Unary { op: UnOp::Neg, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn power_is_right_associative() {
        let e = parse_expr("2 ** 3 ** 2").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Pow,
                rhs,
                ..
            } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Pow, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn branch_reads_in_expressions() {
        let e = parse_expr("[a, b].v * 2.0").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Mul,
                lhs,
                ..
            } => match *lhs {
                Expr::Branch(b) => {
                    assert_eq!(b.pin_a, "a");
                    assert_eq!(b.pin_b, "b");
                    assert_eq!(b.quantity, "v");
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_elsif_else() {
        let src = r#"
ENTITY t IS PIN (p, q : electrical); END ENTITY t;
ARCHITECTURE a OF t IS
VARIABLE y : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      IF [p, q].v > 1.0 THEN
        y := 1.0;
      ELSIF [p, q].v < -1.0 THEN
        y := -1.0;
      ELSE
        y := 0.0;
      END IF;
      [p, q].i %= y;
  END RELATION;
END ARCHITECTURE a;
"#;
        let m = parse(src).unwrap();
        match &m.architectures[0].relation.blocks[0] {
            Block::Procedural { stmts, .. } => match &stmts[0] {
                Stmt::If {
                    arms, otherwise, ..
                } => {
                    assert_eq!(arms.len(), 2);
                    assert_eq!(otherwise.len(), 1);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assert_and_report() {
        let src = r#"
ENTITY t IS PIN (p, q : electrical); END ENTITY t;
ARCHITECTURE a OF t IS
BEGIN
  RELATION
    PROCEDURAL FOR transient =>
      ASSERT [p, q].v < 100.0 REPORT "overvoltage";
      REPORT "evaluated";
      [p, q].i %= 0.0;
  END RELATION;
END ARCHITECTURE a;
"#;
        let m = parse(src).unwrap();
        match &m.architectures[0].relation.blocks[0] {
            Block::Procedural { stmts, .. } => {
                assert!(
                    matches!(&stmts[0], Stmt::Assert { message, .. } if message == "overvoltage")
                );
                assert!(
                    matches!(&stmts[1], Stmt::Report { message, .. } if message == "evaluated")
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equation_block_with_unknown() {
        let src = r#"
ENTITY sq IS GENERIC (k : analog := 2.0); PIN (p, q : electrical); END ENTITY sq;
ARCHITECTURE a OF sq IS
UNKNOWN u : analog;
BEGIN
  RELATION
    PROCEDURAL FOR dc, ac, transient =>
      [p, q].i %= u;
    EQUATION FOR dc, ac, transient =>
      u * u == k * [p, q].v;
  END RELATION;
END ARCHITECTURE a;
"#;
        let m = parse(src).unwrap();
        let default = m.entities[0].generics[0].default.as_ref().unwrap();
        assert!(default.structurally_eq(&Expr::num(2.0)));
        match &m.architectures[0].relation.blocks[1] {
            Block::Equation {
                equations,
                contexts,
                ..
            } => {
                assert_eq!(equations.len(), 1);
                assert_eq!(contexts.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mismatched_end_name_is_rejected() {
        let src = "ENTITY foo IS END ENTITY bar;";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn nesting_is_bounded_and_usable_up_to_the_limit() {
        // Each NOT and each chain operator is one level; the innermost
        // operand takes one more. (Parenthesized nesting is exercised
        // through the binary: a debug build needs more stack for it
        // than a test thread has.)
        let nots = |n: usize| format!("{}x", "NOT ".repeat(n));
        let sum = |n: usize| vec!["x"; n].join(" + ");
        assert!(parse_expr(&nots(MAX_DEPTH - 1)).is_ok());
        assert_eq!(parse_expr(&sum(MAX_DEPTH)).unwrap().height(), MAX_DEPTH);
        for src in [nots(MAX_DEPTH), sum(MAX_DEPTH + 1)] {
            let err = parse_expr(&src).unwrap_err();
            assert!(
                err.to_string().contains("nesting deeper than 256 levels"),
                "{err}"
            );
            assert!(err.render(&src).contains('^'));
        }
    }

    #[test]
    fn error_spans_point_at_problem() {
        let src = "ENTITY e IS GENERIC (a : analog) END ENTITY e;";
        let err = parse(src).unwrap_err();
        // Missing `;` after the generic clause.
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn empty_call_and_nested_calls() {
        let e = parse_expr("max(min(a, b), abs(-c))").unwrap();
        match e {
            Expr::Call { name, args, .. } => {
                assert_eq!(name, "max");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }
}
