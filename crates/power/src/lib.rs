//! # acs-power
//!
//! DVS processor power model for the `acsched` workspace: frequency–voltage
//! laws, dynamic energy accounting, discrete voltage levels and transition
//! overheads.
//!
//! The paper (Leung/Tsui/Hu, DATE 2005, §2.2) models a variable-voltage
//! processor by
//!
//! * cycle time `t_cycle ∝ V / (V − Vth)^α` — here [`FreqModel::Alpha`],
//!   with the motivational example's simplification `f = κ·V`
//!   ([`FreqModel::Linear`]);
//! * dynamic energy `E = C_eff · V² · N` for `N` executed cycles —
//!   [`Processor::energy`];
//! * optionally, a static (leakage) term: `P(f) = C_eff·V(f)²·f +
//!   P_static` while executing and `P_idle` while idling, with the
//!   derived [`Processor::critical_speed`] below which slowing down
//!   stops saving energy (see `docs/POWER_MODEL.md`). Both default to
//!   zero — the paper's model.
//!
//! ## Example
//!
//! ```
//! use acs_power::{FreqModel, Processor};
//! use acs_model::units::{Cycles, TimeSpan, Volt};
//!
//! # fn main() -> Result<(), acs_power::PowerError> {
//! let cpu = Processor::builder(FreqModel::linear(50.0)?)
//!     .vmin(Volt::from_volts(1.0))
//!     .vmax(Volt::from_volts(4.0))
//!     .build()?;
//!
//! // Running 1000 cycles spread over 10 ms needs 2 V and costs
//! // C·V²·N = 1·4·1000 energy units.
//! let speed = Cycles::from_cycles(1000.0) / TimeSpan::from_ms(10.0);
//! let v = cpu.volt_for_speed(speed)?;
//! assert_eq!(v.as_volts(), 2.0);
//! assert_eq!(cpu.energy(1.0, v, Cycles::from_cycles(1000.0)).as_units(), 4000.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod freq;
pub mod levels;
pub mod processor;

pub use error::PowerError;
pub use freq::FreqModel;
pub use levels::{LevelTable, VoltageLevels};
pub use processor::{Processor, ProcessorBuilder, TransitionOverhead};
