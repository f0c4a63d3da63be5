//! # acs-opt
//!
//! Self-contained non-linear-programming machinery for the `acsched`
//! workspace. The paper formulates offline voltage scheduling as an NLP
//! (§3.2) but does not name a solver; nothing suitable exists as an
//! offline dependency, so this crate implements the full stack:
//!
//! * [`problem`] — the problem interface: a dimension, a starting
//!   point, the constraints as sparse linear rows
//!   ([`problem::LinearConstraints`], built once per problem) and an
//!   `f64` objective kernel returning value and gradient
//!   ([`problem::ConstrainedProblem::objective`]).
//! * [`linesearch`] / [`lbfgs`] — strong-Wolfe line search and L-BFGS.
//! * [`auglag`] — a Powell–Hestenes–Rockafellar augmented-Lagrangian
//!   driver handling equality and inequality rows, with temperature
//!   annealing for the smoothed operators. It evaluates everything in
//!   plain `f64`: the objective through the kernel, the penalties from
//!   the rows.
//! * [`tape`] — eager, arena-based reverse-mode autodiff with operator
//!   overloading ([`tape::Graph`] / [`tape::Expr`]), including smooth
//!   surrogates ([`tape::Expr::softplus`], [`tape::Expr::smooth_max`])
//!   for piecewise constructs. The solver never evaluates on it: it is
//!   the readable statement each kernel is tested against bit for bit,
//!   and its scalar helpers ([`tape::relu`], [`tape::softplus`]) are
//!   shared with the kernels.
//! * [`numgrad`] — finite-difference utilities to validate gradients.
//!
//! ## Example: constrained minimization
//!
//! ```
//! use acs_opt::auglag::{self, AugLagConfig};
//! use acs_opt::problem::{ConstrainedProblem, LinearConstraints};
//!
//! /// min (x−2)² + y²  s.t.  x + y = 1
//! struct Demo(LinearConstraints);
//! impl ConstrainedProblem for Demo {
//!     fn dim(&self) -> usize { 2 }
//!     fn initial_point(&self) -> Vec<f64> { vec![0.0, 0.0] }
//!     fn constraints(&self) -> &LinearConstraints { &self.0 }
//!     fn objective(&self, x: &[f64], _s: f64, grad: Option<&mut [f64]>) -> f64 {
//!         if let Some(g) = grad {
//!             g[0] = 2.0 * (x[0] - 2.0);
//!             g[1] = 2.0 * x[1];
//!         }
//!         (x[0] - 2.0).powi(2) + x[1].powi(2)
//!     }
//! }
//!
//! let mut rows = LinearConstraints::default();
//! rows.eq.push_row(&[(0, 1.0), (1, 1.0)], -1.0); // x + y − 1 = 0
//! let r = auglag::solve(&Demo(rows), &AugLagConfig::default());
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
pub use problem::ConstrainedProblem;
pub use tape::{Expr, Graph};
