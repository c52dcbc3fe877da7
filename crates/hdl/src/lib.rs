//! # mems-hdl — an analog hardware description language
//!
//! A clean-room implementation of the HDL-A subset used in
//! Romanowicz et al., *Modeling and Simulation of Electromechanical
//! Transducers in Microsystems using an Analog Hardware Description
//! Language* (ED&TC 1997). The paper's Listing 1 compiles verbatim:
//!
//! ```
//! use mems_hdl::model::HdlModel;
//!
//! # fn main() -> Result<(), mems_hdl::HdlError> {
//! let listing1 = r#"
//! ENTITY eletran IS
//!  GENERIC (A, d, er : analog);
//!  PIN (a, b : electrical; c, d : mechanical1);
//! END ENTITY eletran;
//! ARCHITECTURE a OF eletran IS
//! VARIABLE e0, x : analog;
//! STATE V, S : analog;
//! BEGIN
//!   RELATION
//!     PROCEDURAL FOR init =>
//!       e0 := 8.8542e-12;
//!     PROCEDURAL FOR ac, transient =>
//!       V := [a, b].v;
//!       S := [c, d].tv;
//!       x := integ(S);
//!       [a, b].i %= e0*er*A/(d + x)*ddt(V);
//!       [c, d].f %= -e0*er*A*V*V/(2.0*(d+x)*(d+x));
//!   END RELATION;
//! END ARCHITECTURE a;
//! "#;
//! let model = HdlModel::compile(listing1, "eletran", None)?;
//! let inst = model.instantiate("x1", &[("a", 1.0e-4), ("d", 0.15e-3), ("er", 1.0)])?;
//! assert_eq!(inst.model().pins.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! ## Architecture
//!
//! - [`lexer`] / [`parser`] / [`ast`] — front end with spanned errors;
//! - [`nature`] — Table 1 physical disciplines (across/through
//!   quantities per domain);
//! - [`sema`] / [`compile`] — name resolution into a slot-indexed
//!   [`compile::CompiledModel`];
//! - [`eval`] — dual-number interpreter: real gradients for DC and
//!   transient Newton iterations, complex gradients for exact AC
//!   small-signal linearization (`ddt → jω`, `integ → 1/(jω)`);
//! - [`bytecode`] — the DC, AC and transient programs compiled to
//!   flat stack-machine tapes executed over reusable register banks
//!   (the evaluator every instance runs: no per-node gradient
//!   allocation on the Newton hot path);
//! - [`model`] — elaboration (generic binding, then the `init`
//!   program and `table1d` breakpoints, both through the one
//!   plain-number folder [`compile::fold`]) and the
//!   [`model::Instance`] API the simulator hosts;
//! - [`symbolic`] — expression differentiation for the energy
//!   methodology;
//! - [`print`] — canonical pretty-printing (model generation).
//!
//! ## Language notes
//!
//! Keywords are case-insensitive. Statements: `:=` assignment, `%=`
//! through-quantity contribution, `IF/ELSIF/ELSE`, `ASSERT … REPORT`,
//! `REPORT`. Operators `integ(expr [, ic])` and `ddt(expr)` carry
//! per-call-site history. `UNKNOWN` objects plus `EQUATION` blocks add
//! implicit algebraic equations (DAE support). A model without an
//! explicit `dc`/`ac` block reuses its `transient` block with the
//! appropriate operator semantics, matching common analog-HDL
//! practice.

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod model;
pub mod nature;
pub mod parser;
pub mod print;
pub mod sema;
pub mod span;
pub mod symbolic;
pub mod token;

pub use error::{HdlError, Result};
pub use model::{HdlModel, Instance};
pub use nature::{Nature, QuantityKind};
