//! # acs-opt
//!
//! Self-contained non-linear-programming machinery for the `acsched`
//! workspace. The paper formulates offline voltage scheduling as an NLP
//! (§3.2) but does not name a solver; nothing suitable exists as an
//! offline dependency, so this crate implements the full stack:
//!
//! * [`tape`] — eager, arena-based reverse-mode autodiff with operator
//!   overloading ([`tape::Graph`] / [`tape::Expr`]), including smooth
//!   surrogates ([`tape::Expr::softplus`], [`tape::Expr::smooth_max`],
//!   [`tape::Expr::smooth_clamp`]) for the piecewise constructs of the
//!   scheduling formulation, plus exact piecewise ops for final
//!   evaluation. Problems are described on it
//!   ([`problem::ConstrainedProblem::build`]).
//! * [`linesearch`] / [`lbfgs`] — strong-Wolfe line search and L-BFGS.
//! * [`auglag`] — a Powell–Hestenes–Rockafellar augmented-Lagrangian
//!   driver handling equality and inequality constraints, with
//!   temperature annealing for the smoothed operators. When every
//!   constraint is linear it never touches the tape: the objective comes
//!   from [`problem::ConstrainedProblem::objective`] (a hand-written
//!   kernel that must match the tape bit for bit) and the penalties
//!   from sparse rows.
//! * [`numgrad`] — finite-difference utilities to validate gradients.
//!
//! ## Example: constrained minimization
//!
//! ```
//! use acs_opt::auglag::{self, AugLagConfig};
//! use acs_opt::problem::{ConstrainedProblem, ProblemExprs};
//! use acs_opt::tape::{Expr, Graph};
//!
//! /// min (x−2)² + y²  s.t.  x + y = 1
//! struct Demo;
//! impl ConstrainedProblem for Demo {
//!     fn dim(&self) -> usize { 2 }
//!     fn build<'g>(&self, _g: &'g Graph, x: &[Expr<'g>], _s: f64) -> ProblemExprs<'g> {
//!         ProblemExprs {
//!             objective: (x[0] - 2.0).sqr() + x[1].sqr(),
//!             inequalities: vec![],
//!             equalities: vec![x[0] + x[1] - 1.0],
//!         }
//!     }
//!     fn initial_point(&self) -> Vec<f64> { vec![0.0, 0.0] }
//! }
//!
//! let r = auglag::solve(&Demo, &AugLagConfig::default());
//! assert!(r.converged);
//! assert!((r.x[0] - 1.5).abs() < 1e-3 && (r.x[1] + 0.5).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auglag;
pub mod lbfgs;
pub mod linesearch;
pub mod numgrad;
pub mod problem;
pub mod tape;

pub use auglag::{AugLagConfig, AugLagResult};
pub use lbfgs::{LbfgsConfig, LbfgsResult, LbfgsStop};
pub use problem::{ConstrainedProblem, ProblemExprs};
pub use tape::{Expr, Graph};
