//! The variable-voltage processor.

use crate::error::PowerError;
use crate::freq::FreqModel;
use crate::levels::{LevelTable, VoltageLevels};
use acs_model::units::{Cycles, Energy, Freq, TimeSpan, Volt};

/// Energy and time cost of one voltage/frequency transition.
///
/// The paper ignores transition overhead ("the increase of energy
/// consumption is negligible when the transition time is small compared
/// with the task execution time", §3); the simulator can model it anyway
/// so the ablation benches can quantify when that assumption holds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransitionOverhead {
    /// Dead time during which no cycles execute.
    pub time: TimeSpan,
    /// Energy drawn by the DC–DC converter per switch.
    pub energy: Energy,
}

impl TransitionOverhead {
    /// No overhead — the paper's assumption.
    pub const NONE: TransitionOverhead = TransitionOverhead {
        time: TimeSpan::ZERO,
        energy: Energy::ZERO,
    };
}

/// A DVS processor: frequency law + usable voltage range (+ optional
/// discrete levels and transition costs).
///
/// ```
/// use acs_power::{FreqModel, Processor};
/// use acs_model::units::{Cycles, Freq, Volt};
///
/// // The motivational example's processor: f = 50·V cyc/ms, 1–4 V.
/// let cpu = Processor::builder(FreqModel::linear(50.0)?)
///     .vmin(Volt::from_volts(1.0))
///     .vmax(Volt::from_volts(4.0))
///     .build()?;
/// assert_eq!(cpu.f_max().as_cycles_per_ms(), 200.0);
/// let v = cpu.volt_for_speed(Freq::from_cycles_per_ms(150.0))?;
/// assert_eq!(v.as_volts(), 3.0);
/// # Ok::<(), acs_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Processor {
    model: FreqModel,
    vmin: Volt,
    vmax: Volt,
    levels: VoltageLevels,
    overhead: TransitionOverhead,
    static_power: f64,
    idle_power: f64,
    level_static_power: Option<Vec<f64>>,
    f_min: Freq,
    f_max: Freq,
}

/// Relative tolerance absorbed before a speed request counts as beyond
/// `f_max` (floating-point noise from schedule arithmetic).
const SPEED_TOL: f64 = 1e-9;

impl Processor {
    /// Starts a builder for a processor using the given frequency law.
    pub fn builder(model: FreqModel) -> ProcessorBuilder {
        ProcessorBuilder::new(model)
    }

    /// The frequency–voltage law.
    pub fn freq_model(&self) -> &FreqModel {
        &self.model
    }

    /// Minimum usable supply voltage.
    pub fn vmin(&self) -> Volt {
        self.vmin
    }

    /// Maximum usable supply voltage.
    pub fn vmax(&self) -> Volt {
        self.vmax
    }

    /// Discrete level table, if any.
    pub fn levels(&self) -> &VoltageLevels {
        &self.levels
    }

    /// Per-switch transition overhead.
    pub fn overhead(&self) -> TransitionOverhead {
        self.overhead
    }

    /// Static (leakage) power drawn while the processor executes, in
    /// energy units per millisecond. The full power law is
    /// `P(f) = C_eff·V(f)²·f + P_static`; the paper's model is the
    /// `P_static = 0` special case.
    pub fn static_power(&self) -> f64 {
        self.static_power
    }

    /// Power drawn while the processor idles (not shut down), in energy
    /// units per millisecond. The paper assumes shutdown (zero); model a
    /// platform that cannot power-gate by setting this above zero.
    pub fn idle_power(&self) -> f64 {
        self.idle_power
    }

    /// Per-level static power overrides for discrete processors, aligned
    /// with the level table (index `i` applies at level `i`).
    pub fn level_static_power(&self) -> Option<&[f64]> {
        self.level_static_power.as_deref()
    }

    /// Static power drawn while executing at voltage `v`: the per-level
    /// override when the processor is discrete and one was declared,
    /// otherwise the uniform [`Processor::static_power`]. `v` is matched
    /// to the nearest level at or above it (the same conservative
    /// rounding [`Processor::dispatch_voltage`] applies); voltages above
    /// the highest level (the engine's saturation fallback can execute
    /// at `vmax` when the table cannot serve a request) charge the
    /// highest level's power — the leakiest point of the table, never
    /// less.
    pub fn static_power_at(&self, v: Volt) -> f64 {
        match (&self.levels, &self.level_static_power) {
            (VoltageLevels::Discrete(table), Some(powers)) => table
                .levels()
                .iter()
                .position(|lv| *lv >= v - Volt::from_volts(1e-12))
                .map(|i| powers[i])
                .or(powers.last().copied())
                .unwrap_or(self.static_power),
            _ => self.static_power,
        }
    }

    /// The leakage the critical-speed derivation uses: the *guaranteed*
    /// static power while executing — the per-level minimum when a
    /// per-level table is declared (so the floor never over-raises),
    /// the uniform value otherwise.
    fn guaranteed_static_power(&self) -> f64 {
        match &self.level_static_power {
            Some(powers) => powers.iter().copied().fold(f64::INFINITY, f64::min),
            None => self.static_power,
        }
    }

    /// The fastest speed the dispatch path can actually serve: `f_max`
    /// for continuous processors, the highest level's frequency for
    /// discrete ones (a table's top level may sit below `vmax`).
    fn max_servable_speed(&self) -> f64 {
        match &self.levels {
            VoltageLevels::Continuous => self.f_max.as_cycles_per_ms(),
            VoltageLevels::Discrete(table) => {
                self.model.freq_at(table.highest()).as_cycles_per_ms()
            }
        }
    }

    /// The **critical speed**: the frequency minimizing the per-cycle
    /// energy `e(f) = c_eff·V(f)² + P_static/f`. Below it, stretching
    /// work over more time costs *more* total energy — the static power
    /// integrates over the longer runtime faster than the quadratic
    /// dynamic term shrinks — so no leakage-aware dispatch path should
    /// ever request a slower speed (Huang et al., leakage-aware DVS).
    ///
    /// The derivation uses the *guaranteed* leakage: the per-level
    /// minimum when [`level_static_power`](Processor::level_static_power)
    /// is declared, the uniform `static_power` otherwise — so the floor
    /// never over-raises. Returns [`Freq::ZERO`] when that leakage is
    /// zero (the paper's model: slower is always at least as good), and
    /// never exceeds the highest *servable* speed — `f_max`, or the top
    /// level's frequency on a discrete table whose highest level sits
    /// below `vmax` (flooring past the table would force off-table
    /// saturation). For the linear law `f = κ·V` the optimum is the
    /// closed form `f* = ∛(κ²·P_static / (2·c_eff))`; for the alpha law
    /// the unique root of the strictly increasing `e'(f)` is bisected
    /// to machine precision.
    ///
    /// ```
    /// use acs_power::{FreqModel, Processor};
    /// use acs_model::units::Volt;
    ///
    /// // f = 50·V, P_static = 1000 energy-units/ms, c_eff = 1:
    /// // f* = (50²·1000 / 2)^(1/3) ≈ 107.7 cyc/ms — well above f_min.
    /// let cpu = Processor::builder(FreqModel::linear(50.0)?)
    ///     .vmin(Volt::from_volts(0.5))
    ///     .vmax(Volt::from_volts(4.0))
    ///     .static_power(1000.0)
    ///     .build()?;
    /// let crit = cpu.critical_speed(1.0).as_cycles_per_ms();
    /// assert!((crit - (50.0f64 * 50.0 * 1000.0 / 2.0).cbrt()).abs() < 1e-9);
    ///
    /// // Without leakage there is no lower bound on useful speeds.
    /// let lossless = Processor::builder(FreqModel::linear(50.0)?)
    ///     .vmax(Volt::from_volts(4.0))
    ///     .build()?;
    /// assert_eq!(lossless.critical_speed(1.0).as_cycles_per_ms(), 0.0);
    /// # Ok::<(), acs_power::PowerError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `c_eff` is not finite and positive (caller bug: task
    /// capacitances are validated at model-construction time).
    pub fn critical_speed(&self, c_eff: f64) -> Freq {
        assert!(
            c_eff.is_finite() && c_eff > 0.0,
            "c_eff must be finite and positive, got {c_eff}"
        );
        let p_static = self.guaranteed_static_power();
        if p_static <= 0.0 {
            return Freq::ZERO;
        }
        let cap = self.max_servable_speed();
        match self.model {
            FreqModel::Linear { kappa } => {
                let opt = (kappa * kappa * p_static / (2.0 * c_eff)).cbrt();
                Freq::from_cycles_per_ms(opt.min(cap))
            }
            FreqModel::Alpha { .. } => {
                // e'(f) = 2·c_eff·V(f)·V'(f) − P_static/f²; both terms are
                // strictly increasing in f, so the root is unique.
                let slope = |f: f64| {
                    let freq = Freq::from_cycles_per_ms(f);
                    let v = self.model.volt_for(freq).as_volts();
                    2.0 * c_eff * v * self.model.dvolt_dfreq(freq) - p_static / (f * f)
                };
                if slope(cap) <= 0.0 {
                    return Freq::from_cycles_per_ms(cap);
                }
                let (mut lo, mut hi) = (cap * 1e-9, cap);
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    if slope(mid) < 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                    if hi - lo <= 1e-12 * cap {
                        break;
                    }
                }
                Freq::from_cycles_per_ms(0.5 * (lo + hi))
            }
        }
    }

    /// The lowest speed a leakage-aware dispatch path should request:
    /// `max(f_min, critical_speed(c_eff))`. The simulator raises every
    /// under-request to this floor, so with `static_power > 0` no policy
    /// can run the processor below its critical speed.
    pub fn floor_speed(&self, c_eff: f64) -> Freq {
        self.f_min.max(self.critical_speed(c_eff))
    }

    /// Speed at `vmin` — the slowest the processor can run.
    pub fn f_min(&self) -> Freq {
        self.f_min
    }

    /// Speed at `vmax` — the fastest the processor can run.
    pub fn f_max(&self) -> Freq {
        self.f_max
    }

    /// Frequency delivered at voltage `v`.
    ///
    /// # Errors
    ///
    /// [`PowerError::VoltageOutOfRange`] when `v ∉ [vmin, vmax]`.
    pub fn freq_at(&self, v: Volt) -> Result<Freq, PowerError> {
        self.check_voltage(v)?;
        Ok(self.model.freq_at(v))
    }

    /// Exact voltage required to run at `speed` (continuous DVS).
    ///
    /// Speeds below `f_min` are served at `vmin` (the processor cannot run
    /// slower; the workload simply finishes early).
    ///
    /// # Errors
    ///
    /// [`PowerError::SpeedUnachievable`] when `speed > f_max` (beyond a
    /// `1e-9` relative tolerance absorbed for floating-point noise).
    pub fn volt_for_speed(&self, speed: Freq) -> Result<Volt, PowerError> {
        let fmax = self.f_max.as_cycles_per_ms();
        if speed.as_cycles_per_ms() > fmax * (1.0 + SPEED_TOL) {
            return Err(PowerError::SpeedUnachievable {
                requested: speed.as_cycles_per_ms(),
                max: fmax,
            });
        }
        if speed <= self.f_min {
            return Ok(self.vmin);
        }
        Ok(self.model.volt_for(speed).min(self.vmax))
    }

    /// Clamps a runtime speed request into the realizable
    /// `[f_min, f_max]` band: over-requests (beyond the same tolerance
    /// [`Processor::volt_for_speed`] uses) and non-finite values saturate
    /// at `f_max` and are flagged; under-requests rise to `f_min`
    /// unflagged (the processor cannot run slower — the workload simply
    /// finishes early, exactly as serving the request at `vmin` does).
    pub fn clamp_speed(&self, requested: Freq) -> (Freq, bool) {
        let r = requested.as_cycles_per_ms();
        if !r.is_finite() || r > self.f_max.as_cycles_per_ms() * (1.0 + SPEED_TOL) {
            return (self.f_max, true);
        }
        if r < self.f_min.as_cycles_per_ms() {
            return (self.f_min, false);
        }
        (requested, false)
    }

    /// Like [`Processor::volt_for_speed`] but saturating at `vmax`;
    /// returns the voltage and whether saturation occurred. The simulator
    /// uses this to keep running (and flag a deadline risk) instead of
    /// aborting when handed an infeasible schedule.
    pub fn volt_for_speed_clamped(&self, speed: Freq) -> (Volt, bool) {
        match self.volt_for_speed(speed) {
            Ok(v) => (v, false),
            Err(_) => (self.vmax, true),
        }
    }

    /// Voltage actually used when the runtime requests `speed`, honoring
    /// the discrete level table by rounding *up* (conservative: deadlines
    /// stay safe).
    ///
    /// # Errors
    ///
    /// [`PowerError::SpeedUnachievable`] when even the highest level is
    /// too slow for `speed`.
    pub fn dispatch_voltage(&self, speed: Freq) -> Result<Volt, PowerError> {
        let exact = self.volt_for_speed(speed)?;
        match &self.levels {
            VoltageLevels::Continuous => Ok(exact),
            VoltageLevels::Discrete(table) => {
                table.round_up(exact).ok_or(PowerError::SpeedUnachievable {
                    requested: speed.as_cycles_per_ms(),
                    max: self.model.freq_at(table.highest()).as_cycles_per_ms(),
                })
            }
        }
    }

    /// Dynamic energy of executing `cycles` at voltage `v` with effective
    /// switching capacitance `c_eff` (paper eq. (3): `E = C_eff·V²·N`).
    pub fn energy(&self, c_eff: f64, v: Volt, cycles: Cycles) -> Energy {
        Energy::from_units(c_eff * v.as_volts() * v.as_volts() * cycles.as_cycles())
    }

    /// Time to execute `cycles` at voltage `v`.
    ///
    /// # Errors
    ///
    /// [`PowerError::VoltageOutOfRange`] when `v ∉ [vmin, vmax]`.
    pub fn execution_time(&self, v: Volt, cycles: Cycles) -> Result<TimeSpan, PowerError> {
        let f = self.freq_at(v)?;
        Ok(cycles / f)
    }

    fn check_voltage(&self, v: Volt) -> Result<(), PowerError> {
        if v < self.vmin - Volt::from_volts(1e-12) || v > self.vmax + Volt::from_volts(1e-12) {
            return Err(PowerError::VoltageOutOfRange {
                volts: v.as_volts(),
                vmin: self.vmin.as_volts(),
                vmax: self.vmax.as_volts(),
            });
        }
        Ok(())
    }
}

/// Builder for [`Processor`].
#[derive(Debug, Clone)]
pub struct ProcessorBuilder {
    model: FreqModel,
    vmin: Volt,
    vmax: Volt,
    levels: VoltageLevels,
    overhead: TransitionOverhead,
    static_power: f64,
    idle_power: f64,
    level_static_power: Option<Vec<f64>>,
}

impl ProcessorBuilder {
    /// Starts with the given frequency law; defaults: `vmin = 1 V`,
    /// `vmax = 4 V`, continuous levels, zero transition overhead, zero
    /// static and idle power (the motivational example's processor).
    pub fn new(model: FreqModel) -> Self {
        ProcessorBuilder {
            model,
            vmin: Volt::from_volts(1.0),
            vmax: Volt::from_volts(4.0),
            levels: VoltageLevels::Continuous,
            overhead: TransitionOverhead::NONE,
            static_power: 0.0,
            idle_power: 0.0,
            level_static_power: None,
        }
    }

    /// Sets the minimum usable voltage.
    pub fn vmin(mut self, vmin: Volt) -> Self {
        self.vmin = vmin;
        self
    }

    /// Sets the maximum usable voltage.
    pub fn vmax(mut self, vmax: Volt) -> Self {
        self.vmax = vmax;
        self
    }

    /// Restricts the processor to a discrete voltage-level table.
    ///
    /// Levels outside `[vmin, vmax]` are rejected at `build` time.
    pub fn discrete_levels(mut self, table: LevelTable) -> Self {
        self.levels = VoltageLevels::Discrete(table);
        self
    }

    /// Sets the per-switch transition overhead.
    pub fn transition_overhead(mut self, overhead: TransitionOverhead) -> Self {
        self.overhead = overhead;
        self
    }

    /// Sets the static (leakage) power drawn while executing, in energy
    /// units per millisecond (default 0 — the paper's dynamic-only
    /// model).
    pub fn static_power(mut self, power: f64) -> Self {
        self.static_power = power;
        self
    }

    /// Sets the power drawn while idle but not shut down, in energy
    /// units per millisecond (default 0 — the paper's shutdown
    /// assumption).
    pub fn idle_power(mut self, power: f64) -> Self {
        self.idle_power = power;
        self
    }

    /// Per-level static-power overrides for a discrete processor, one
    /// value per entry of the level table (higher supply voltages leak
    /// more on real silicon). Requires [`discrete_levels`] with a table
    /// of the same length.
    ///
    /// [`discrete_levels`]: ProcessorBuilder::discrete_levels
    pub fn level_static_power(mut self, powers: Vec<f64>) -> Self {
        self.level_static_power = Some(powers);
        self
    }

    /// Validates and builds the processor.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidModel`] when `0 < vmin < vmax` is violated or
    /// the law delivers zero speed at `vmax`;
    /// [`PowerError::InvalidLevels`] when a discrete level lies outside
    /// `[vmin, vmax]`.
    pub fn build(self) -> Result<Processor, PowerError> {
        if !(self.vmin.as_volts() > 0.0 && self.vmin < self.vmax) {
            return Err(PowerError::InvalidModel {
                reason: format!(
                    "voltage range must satisfy 0 < vmin < vmax, got [{}, {}]",
                    self.vmin, self.vmax
                ),
            });
        }
        if self.overhead.time.as_ms() < 0.0 || self.overhead.energy.as_units() < 0.0 {
            return Err(PowerError::InvalidModel {
                reason: "transition overhead must be non-negative".into(),
            });
        }
        for (what, power) in [
            ("static_power", self.static_power),
            ("idle_power", self.idle_power),
        ] {
            if !(power.is_finite() && power >= 0.0) {
                return Err(PowerError::InvalidModel {
                    reason: format!("{what} must be finite and non-negative, got {power}"),
                });
            }
        }
        if let Some(powers) = &self.level_static_power {
            let VoltageLevels::Discrete(table) = &self.levels else {
                return Err(PowerError::InvalidModel {
                    reason: "level_static_power requires a discrete level table".into(),
                });
            };
            if powers.len() != table.levels().len() {
                return Err(PowerError::InvalidModel {
                    reason: format!(
                        "level_static_power has {} entries for {} levels",
                        powers.len(),
                        table.levels().len()
                    ),
                });
            }
            if let Some(bad) = powers.iter().find(|p| !(p.is_finite() && **p >= 0.0)) {
                return Err(PowerError::InvalidModel {
                    reason: format!(
                        "level_static_power entries must be finite and non-negative, got {bad}"
                    ),
                });
            }
        }
        if let VoltageLevels::Discrete(table) = &self.levels {
            if table.lowest() < self.vmin || table.highest() > self.vmax {
                return Err(PowerError::InvalidLevels {
                    reason: format!(
                        "levels [{}, {}] must lie within [{}, {}]",
                        table.lowest(),
                        table.highest(),
                        self.vmin,
                        self.vmax
                    ),
                });
            }
        }
        let f_min = self.model.freq_at(self.vmin);
        let f_max = self.model.freq_at(self.vmax);
        if f_max.as_cycles_per_ms() <= 0.0 {
            return Err(PowerError::InvalidModel {
                reason: "frequency at vmax must be positive".into(),
            });
        }
        Ok(Processor {
            model: self.model,
            vmin: self.vmin,
            vmax: self.vmax,
            levels: self.levels,
            overhead: self.overhead,
            static_power: self.static_power,
            idle_power: self.idle_power,
            level_static_power: self.level_static_power,
            f_min,
            f_max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Processor {
        Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(1.0))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap()
    }

    #[test]
    fn speed_range() {
        let p = cpu();
        assert_eq!(p.f_min().as_cycles_per_ms(), 50.0);
        assert_eq!(p.f_max().as_cycles_per_ms(), 200.0);
    }

    #[test]
    fn volt_for_speed_clamps_low_and_rejects_high() {
        let p = cpu();
        // Below f_min: vmin.
        assert_eq!(
            p.volt_for_speed(Freq::from_cycles_per_ms(10.0)).unwrap(),
            Volt::from_volts(1.0)
        );
        // In range: exact.
        assert_eq!(
            p.volt_for_speed(Freq::from_cycles_per_ms(100.0)).unwrap(),
            Volt::from_volts(2.0)
        );
        // Above f_max: error.
        let err = p
            .volt_for_speed(Freq::from_cycles_per_ms(201.0))
            .unwrap_err();
        assert!(matches!(err, PowerError::SpeedUnachievable { .. }));
        // Tiny overshoot tolerated.
        assert!(p
            .volt_for_speed(Freq::from_cycles_per_ms(200.0 * (1.0 + 1e-12)))
            .is_ok());
    }

    #[test]
    fn clamped_variant_saturates() {
        let p = cpu();
        let (v, sat) = p.volt_for_speed_clamped(Freq::from_cycles_per_ms(500.0));
        assert_eq!(v, Volt::from_volts(4.0));
        assert!(sat);
        let (v, sat) = p.volt_for_speed_clamped(Freq::from_cycles_per_ms(100.0));
        assert_eq!(v, Volt::from_volts(2.0));
        assert!(!sat);
    }

    #[test]
    fn clamp_speed_band() {
        let p = cpu();
        assert_eq!(
            p.clamp_speed(Freq::from_cycles_per_ms(100.0)),
            (Freq::from_cycles_per_ms(100.0), false)
        );
        assert_eq!(
            p.clamp_speed(Freq::from_cycles_per_ms(500.0)),
            (p.f_max(), true)
        );
        assert_eq!(
            p.clamp_speed(Freq::from_cycles_per_ms(f64::NAN)),
            (p.f_max(), true)
        );
        assert_eq!(
            p.clamp_speed(Freq::from_cycles_per_ms(1.0)),
            (p.f_min(), false)
        );
        // Tiny overshoot tolerated, same as volt_for_speed.
        let (f, sat) = p.clamp_speed(Freq::from_cycles_per_ms(200.0 * (1.0 + 1e-12)));
        assert!(!sat);
        assert!((f.as_cycles_per_ms() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn energy_matches_paper_equation() {
        let p = cpu();
        // E = C·V²·N = 1 · 9 · 500
        let e = p.energy(1.0, Volt::from_volts(3.0), Cycles::from_cycles(500.0));
        assert_eq!(e, Energy::from_units(4500.0));
    }

    #[test]
    fn execution_time_and_range_check() {
        let p = cpu();
        let t = p
            .execution_time(Volt::from_volts(3.0), Cycles::from_cycles(1000.0))
            .unwrap();
        assert!(t.approx_eq(TimeSpan::from_ms(1000.0 / 150.0), 1e-12));
        assert!(p
            .execution_time(Volt::from_volts(0.5), Cycles::from_cycles(1.0))
            .is_err());
        assert!(p.freq_at(Volt::from_volts(4.5)).is_err());
    }

    #[test]
    fn discrete_levels_round_up() {
        let table = LevelTable::new(vec![
            Volt::from_volts(1.0),
            Volt::from_volts(2.0),
            Volt::from_volts(3.0),
            Volt::from_volts(4.0),
        ])
        .unwrap();
        let p = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .build()
            .unwrap();
        // 120 cyc/ms needs 2.4 V exactly -> rounds up to 3 V.
        assert_eq!(
            p.dispatch_voltage(Freq::from_cycles_per_ms(120.0)).unwrap(),
            Volt::from_volts(3.0)
        );
        // Exactly at a level stays there.
        assert_eq!(
            p.dispatch_voltage(Freq::from_cycles_per_ms(100.0)).unwrap(),
            Volt::from_volts(2.0)
        );
    }

    #[test]
    fn continuous_dispatch_is_exact() {
        let p = cpu();
        assert_eq!(
            p.dispatch_voltage(Freq::from_cycles_per_ms(120.0)).unwrap(),
            Volt::from_volts(2.4)
        );
    }

    #[test]
    fn builder_rejects_bad_ranges_and_levels() {
        let m = || FreqModel::linear(50.0).unwrap();
        assert!(Processor::builder(m())
            .vmin(Volt::from_volts(4.0))
            .vmax(Volt::from_volts(1.0))
            .build()
            .is_err());
        assert!(Processor::builder(m()).vmin(Volt::ZERO).build().is_err());
        let outside = LevelTable::new(vec![Volt::from_volts(0.5)]).unwrap();
        assert!(Processor::builder(m())
            .discrete_levels(outside)
            .build()
            .is_err());
        let neg = TransitionOverhead {
            time: TimeSpan::from_ms(-1.0),
            energy: Energy::ZERO,
        };
        assert!(Processor::builder(m())
            .transition_overhead(neg)
            .build()
            .is_err());
    }

    #[test]
    fn critical_speed_linear_closed_form() {
        let p = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmin(Volt::from_volts(0.5))
            .vmax(Volt::from_volts(4.0))
            .static_power(1000.0)
            .build()
            .unwrap();
        let crit = p.critical_speed(1.0).as_cycles_per_ms();
        let expected = (50.0f64 * 50.0 * 1000.0 / 2.0).cbrt();
        assert!((crit - expected).abs() < 1e-9, "{crit} vs {expected}");
        // Heavier switching capacitance lowers the critical speed.
        assert!(p.critical_speed(4.0) < p.critical_speed(1.0));
        // Enough leakage pushes the optimum past f_max: capped.
        let hot = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .static_power(1e9)
            .build()
            .unwrap();
        assert_eq!(hot.critical_speed(1.0), hot.f_max());
        // No leakage: no floor.
        assert_eq!(cpu().critical_speed(1.0), Freq::ZERO);
        assert_eq!(cpu().floor_speed(1.0), cpu().f_min());
    }

    #[test]
    fn critical_speed_alpha_minimizes_per_cycle_energy() {
        let p = Processor::builder(FreqModel::alpha(120.0, Volt::from_volts(0.8), 1.6).unwrap())
            .vmin(Volt::from_volts(1.0))
            .vmax(Volt::from_volts(4.0))
            .static_power(500.0)
            .build()
            .unwrap();
        let c_eff = 1.5;
        let crit = p.critical_speed(c_eff).as_cycles_per_ms();
        let per_cycle = |f: f64| {
            let v = p
                .freq_model()
                .volt_for(Freq::from_cycles_per_ms(f))
                .as_volts();
            c_eff * v * v + p.static_power() / f
        };
        let e_crit = per_cycle(crit);
        let fmax = p.f_max().as_cycles_per_ms();
        for i in 1..200 {
            let f = fmax * i as f64 / 200.0;
            assert!(
                e_crit <= per_cycle(f) + 1e-9 * e_crit,
                "per-cycle energy at {f} beats the critical speed {crit}"
            );
        }
        assert_eq!(
            p.floor_speed(c_eff).as_cycles_per_ms(),
            crit.max(p.f_min().as_cycles_per_ms())
        );
    }

    #[test]
    fn critical_speed_caps_at_highest_servable_level() {
        // The table tops out at 3 V (150 cyc/ms) although vmax is 4 V:
        // the floor must never push dispatches past what the table can
        // serve, or every slice would saturate off-table at vmax.
        let table = LevelTable::new(vec![
            Volt::from_volts(1.0),
            Volt::from_volts(2.0),
            Volt::from_volts(3.0),
        ])
        .unwrap();
        let p = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .static_power(1e9) // continuous optimum far above f_max
            .build()
            .unwrap();
        assert!((p.critical_speed(1.0).as_cycles_per_ms() - 150.0).abs() < 1e-9);
        assert!(p.dispatch_voltage(p.critical_speed(1.0)).is_ok());
    }

    #[test]
    fn per_level_powers_alone_still_produce_a_floor() {
        // Only per-level powers declared (no scalar static_power): the
        // critical speed derives from the guaranteed (minimum) leakage
        // instead of silently degenerating to zero.
        let table = LevelTable::new(vec![Volt::from_volts(1.0), Volt::from_volts(4.0)]).unwrap();
        let p = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .level_static_power(vec![500.0, 1000.0])
            .build()
            .unwrap();
        let crit = p.critical_speed(1.0).as_cycles_per_ms();
        let expected = (50.0f64 * 50.0 * 500.0 / 2.0).cbrt();
        assert!((crit - expected).abs() < 1e-9, "{crit} vs {expected}");
        assert!(p.floor_speed(1.0) > p.f_min());
    }

    #[test]
    fn per_level_static_power_lookup() {
        let table = LevelTable::new(vec![
            Volt::from_volts(1.0),
            Volt::from_volts(2.0),
            Volt::from_volts(4.0),
        ])
        .unwrap();
        let p = Processor::builder(FreqModel::linear(50.0).unwrap())
            .vmax(Volt::from_volts(4.0))
            .discrete_levels(table)
            .static_power(7.0)
            .level_static_power(vec![1.0, 2.0, 3.0])
            .build()
            .unwrap();
        assert_eq!(p.static_power_at(Volt::from_volts(1.0)), 1.0);
        assert_eq!(p.static_power_at(Volt::from_volts(1.5)), 2.0);
        assert_eq!(p.static_power_at(Volt::from_volts(4.0)), 3.0);
        // Above the highest level (the engine's saturation fallback can
        // execute at vmax on a short table): charge the leakiest level,
        // never the (smaller) uniform fallback.
        assert_eq!(p.static_power_at(Volt::from_volts(4.5)), 3.0);
        // Continuous processors always use the uniform value.
        let cont = Processor::builder(FreqModel::linear(50.0).unwrap())
            .static_power(7.0)
            .build()
            .unwrap();
        assert_eq!(cont.static_power_at(Volt::from_volts(3.0)), 7.0);
    }

    #[test]
    fn builder_rejects_bad_leakage() {
        let m = || FreqModel::linear(50.0).unwrap();
        assert!(Processor::builder(m()).static_power(-1.0).build().is_err());
        assert!(Processor::builder(m())
            .idle_power(f64::NAN)
            .build()
            .is_err());
        // Per-level powers without levels, with the wrong arity, or
        // carrying negative entries are all rejected.
        assert!(Processor::builder(m())
            .level_static_power(vec![1.0])
            .build()
            .is_err());
        let table = || LevelTable::new(vec![Volt::from_volts(1.0), Volt::from_volts(4.0)]).unwrap();
        assert!(Processor::builder(m())
            .discrete_levels(table())
            .level_static_power(vec![1.0])
            .build()
            .is_err());
        assert!(Processor::builder(m())
            .discrete_levels(table())
            .level_static_power(vec![1.0, -2.0])
            .build()
            .is_err());
        assert!(Processor::builder(m())
            .discrete_levels(table())
            .level_static_power(vec![1.0, 2.0])
            .build()
            .is_ok());
    }

    #[test]
    fn alpha_processor_rejects_vmax_at_threshold() {
        let m = FreqModel::alpha(100.0, Volt::from_volts(5.0), 2.0).unwrap();
        let err = Processor::builder(m)
            .vmin(Volt::from_volts(1.0))
            .vmax(Volt::from_volts(4.0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("positive"));
    }
}
