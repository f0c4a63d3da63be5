//! Frequency–voltage laws (paper equations (1)–(2)).
//!
//! The paper's device model says the cycle time is
//! `t_cycle ∝ V / (V − Vth)^α`, i.e. the clock frequency is
//! `f(V) = k · (V − Vth)^α / V` for a device constant `k`, threshold
//! voltage `Vth` and process exponent `α ∈ (1, 2]`. The motivational
//! example uses the common simplification `f = κ·V` (frequency directly
//! proportional to voltage), which is the `α = 2, Vth = 0` special case.

use crate::error::PowerError;
use acs_model::units::{Freq, Volt};

/// A monotone frequency–voltage relation.
///
/// Both variants are strictly increasing on their domain, so the inverse
/// [`FreqModel::volt_for`] is well defined.
///
/// ```
/// use acs_power::FreqModel;
/// use acs_model::units::{Freq, Volt};
///
/// let lin = FreqModel::linear(50.0)?; // 50 cycles per ms per volt
/// assert_eq!(lin.freq_at(Volt::from_volts(3.0)).as_cycles_per_ms(), 150.0);
/// assert_eq!(lin.volt_for(Freq::from_cycles_per_ms(150.0)).as_volts(), 3.0);
/// # Ok::<(), acs_power::PowerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FreqModel {
    /// `f = κ·V`: frequency proportional to voltage. `kappa` is in
    /// cycles per millisecond per volt.
    Linear {
        /// Proportionality constant κ (cycles / (ms·V)).
        kappa: f64,
    },
    /// `f = k·(V − Vth)^α / V`: the alpha-power law.
    Alpha {
        /// Device constant `k` (cycles per millisecond at the normalization
        /// point).
        k: f64,
        /// Threshold voltage.
        vth: Volt,
        /// Velocity-saturation exponent, `1 < α ≤ 2`.
        alpha: f64,
    },
}

impl FreqModel {
    /// Creates a linear model `f = κ·V`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidModel`] if `kappa` is not finite and positive.
    pub fn linear(kappa: f64) -> Result<Self, PowerError> {
        if !(kappa.is_finite() && kappa > 0.0) {
            return Err(PowerError::InvalidModel {
                reason: format!("kappa must be finite and positive, got {kappa}"),
            });
        }
        Ok(FreqModel::Linear { kappa })
    }

    /// Creates an alpha-power-law model `f = k·(V − Vth)^α / V`.
    ///
    /// # Errors
    ///
    /// [`PowerError::InvalidModel`] if `k ≤ 0`, `vth < 0` or `α ∉ [1, 2]`.
    pub fn alpha(k: f64, vth: Volt, alpha: f64) -> Result<Self, PowerError> {
        if !(k.is_finite() && k > 0.0) {
            return Err(PowerError::InvalidModel {
                reason: format!("k must be finite and positive, got {k}"),
            });
        }
        if !(vth.as_volts() >= 0.0 && vth.is_finite()) {
            return Err(PowerError::InvalidModel {
                reason: format!("vth must be finite and non-negative, got {vth}"),
            });
        }
        if !(1.0..=2.0).contains(&alpha) {
            return Err(PowerError::InvalidModel {
                reason: format!("alpha must lie in [1, 2], got {alpha}"),
            });
        }
        Ok(FreqModel::Alpha { k, vth, alpha })
    }

    /// Clock frequency delivered at supply voltage `v`.
    ///
    /// For the alpha law, voltages at or below `Vth` yield zero frequency
    /// (the device does not switch).
    pub fn freq_at(&self, v: Volt) -> Freq {
        match *self {
            FreqModel::Linear { kappa } => Freq::from_cycles_per_ms(kappa * v.as_volts().max(0.0)),
            FreqModel::Alpha { k, vth, alpha } => {
                let overdrive = v.as_volts() - vth.as_volts();
                if overdrive <= 0.0 || v.as_volts() <= 0.0 {
                    Freq::ZERO
                } else {
                    Freq::from_cycles_per_ms(k * overdrive.powf(alpha) / v.as_volts())
                }
            }
        }
    }

    /// Minimum voltage delivering frequency `f` (inverse of
    /// [`FreqModel::freq_at`]).
    ///
    /// `f = 0` maps to the threshold voltage (alpha) or 0 V (linear).
    /// The inverse for the alpha law has no closed form; a
    /// bisection-safeguarded Newton iteration converges to machine
    /// precision in a handful of steps because `f` is smooth and strictly
    /// monotone above `Vth`.
    ///
    /// A speed the alpha law does not reach below 10¹² V maps to `+∞` V.
    /// With `α = 1` the law saturates at `k`, so every speed from `k` up
    /// is such a speed; with `α > 1` only speeds far beyond any realistic
    /// `f_max` are. Only an optimizer's trial point asks for one, and the
    /// infinite voltage gives that point an infinite energy.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or non-finite (caller bug: speeds are
    /// produced by dividing validated cycles by positive windows).
    pub fn volt_for(&self, f: Freq) -> Volt {
        let target = f.as_cycles_per_ms();
        assert!(
            target.is_finite() && target >= 0.0,
            "requested frequency must be finite and non-negative, got {target}"
        );
        match *self {
            FreqModel::Linear { kappa } => Volt::from_volts(target / kappa),
            FreqModel::Alpha { vth, .. } => {
                if target == 0.0 {
                    return vth;
                }
                // Bracket the root: f is 0 at vth and increasing.
                let mut lo = vth.as_volts();
                let mut hi = vth.as_volts().max(1.0);
                while self.freq_at(Volt::from_volts(hi)).as_cycles_per_ms() < target {
                    hi *= 2.0;
                    if hi >= 1e12 {
                        return Volt::from_volts(f64::INFINITY);
                    }
                }
                // Newton with bisection fallback.
                let mut v = 0.5 * (lo + hi);
                for _ in 0..200 {
                    let fv = self.freq_at(Volt::from_volts(v)).as_cycles_per_ms() - target;
                    if fv.abs() <= 1e-12 * target.max(1.0) {
                        break;
                    }
                    if fv > 0.0 {
                        hi = v;
                    } else {
                        lo = v;
                    }
                    let dfdv = self.dfreq_dvolt(Volt::from_volts(v));
                    let newton = v - fv / dfdv;
                    v = if dfdv > 0.0 && newton > lo && newton < hi {
                        newton
                    } else {
                        0.5 * (lo + hi)
                    };
                }
                Volt::from_volts(v)
            }
        }
    }

    /// Derivative `df/dV` at voltage `v` — used by the optimizer's custom
    /// autodiff node for the voltage inversion (implicit-function rule
    /// `dV/df = 1 / (df/dV)`).
    pub fn dfreq_dvolt(&self, v: Volt) -> f64 {
        match *self {
            FreqModel::Linear { kappa } => kappa,
            FreqModel::Alpha { k, vth, alpha } => {
                let vv = v.as_volts();
                let od = vv - vth.as_volts();
                if od <= 0.0 || vv <= 0.0 {
                    0.0
                } else {
                    // d/dV [k (V-Vth)^a / V]
                    //   = k (V-Vth)^(a-1) (a V - (V - Vth)) / V^2
                    k * od.powf(alpha - 1.0) * (alpha * vv - od) / (vv * vv)
                }
            }
        }
    }

    /// Derivative `dV/df` of the inverse map at frequency `f`.
    pub fn dvolt_dfreq(&self, f: Freq) -> f64 {
        match *self {
            FreqModel::Linear { kappa } => 1.0 / kappa,
            FreqModel::Alpha { .. } => {
                let v = self.volt_for(f);
                1.0 / self.dfreq_dvolt(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_round_trip() {
        let m = FreqModel::linear(50.0).unwrap();
        for v in [0.5, 1.0, 2.0, 3.3, 5.0] {
            let f = m.freq_at(Volt::from_volts(v));
            assert!((m.volt_for(f).as_volts() - v).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_rejects_bad_kappa() {
        assert!(FreqModel::linear(0.0).is_err());
        assert!(FreqModel::linear(-1.0).is_err());
        assert!(FreqModel::linear(f64::NAN).is_err());
    }

    #[test]
    fn alpha_reduces_to_linear_at_vth0_alpha2() {
        let lin = FreqModel::linear(50.0).unwrap();
        let alp = FreqModel::alpha(50.0, Volt::ZERO, 2.0).unwrap();
        for v in [0.7, 1.0, 2.5, 4.0] {
            let fl = lin.freq_at(Volt::from_volts(v)).as_cycles_per_ms();
            let fa = alp.freq_at(Volt::from_volts(v)).as_cycles_per_ms();
            assert!((fl - fa).abs() < 1e-9, "at {v} V: {fl} vs {fa}");
        }
    }

    #[test]
    fn alpha_round_trip() {
        let m = FreqModel::alpha(120.0, Volt::from_volts(0.8), 1.6).unwrap();
        for v in [1.0, 1.5, 2.2, 3.3, 5.0] {
            let f = m.freq_at(Volt::from_volts(v));
            let back = m.volt_for(f).as_volts();
            assert!((back - v).abs() < 1e-8, "at {v} V got back {back}");
        }
    }

    #[test]
    fn alpha_below_threshold_is_zero() {
        let m = FreqModel::alpha(100.0, Volt::from_volts(1.0), 2.0).unwrap();
        assert_eq!(m.freq_at(Volt::from_volts(0.5)), Freq::ZERO);
        assert_eq!(m.freq_at(Volt::from_volts(1.0)), Freq::ZERO);
        assert_eq!(m.volt_for(Freq::ZERO), Volt::from_volts(1.0));
    }

    #[test]
    fn alpha_monotone_increasing() {
        let m = FreqModel::alpha(100.0, Volt::from_volts(0.6), 1.4).unwrap();
        let mut prev = -1.0;
        for i in 0..200 {
            let v = 0.61 + 0.02 * i as f64;
            let f = m.freq_at(Volt::from_volts(v)).as_cycles_per_ms();
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn alpha_rejects_bad_params() {
        assert!(FreqModel::alpha(0.0, Volt::ZERO, 2.0).is_err());
        assert!(FreqModel::alpha(1.0, Volt::from_volts(-0.1), 2.0).is_err());
        assert!(FreqModel::alpha(1.0, Volt::ZERO, 0.9).is_err());
        assert!(FreqModel::alpha(1.0, Volt::ZERO, 2.1).is_err());
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let models = [
            FreqModel::linear(50.0).unwrap(),
            FreqModel::alpha(120.0, Volt::from_volts(0.8), 1.6).unwrap(),
            FreqModel::alpha(80.0, Volt::from_volts(0.4), 2.0).unwrap(),
        ];
        for m in &models {
            for v in [1.2, 2.0, 3.7] {
                let h = 1e-6;
                let f1 = m.freq_at(Volt::from_volts(v - h)).as_cycles_per_ms();
                let f2 = m.freq_at(Volt::from_volts(v + h)).as_cycles_per_ms();
                let fd = (f2 - f1) / (2.0 * h);
                let an = m.dfreq_dvolt(Volt::from_volts(v));
                assert!(
                    (fd - an).abs() < 1e-4 * an.abs().max(1.0),
                    "{m:?} at {v}: fd={fd} an={an}"
                );
            }
        }
    }

    #[test]
    fn inverse_derivative_matches_finite_difference() {
        let m = FreqModel::alpha(120.0, Volt::from_volts(0.8), 1.6).unwrap();
        for f in [20.0, 60.0, 110.0] {
            let h = 1e-4;
            let v1 = m.volt_for(Freq::from_cycles_per_ms(f - h)).as_volts();
            let v2 = m.volt_for(Freq::from_cycles_per_ms(f + h)).as_volts();
            let fd = (v2 - v1) / (2.0 * h);
            let an = m.dvolt_dfreq(Freq::from_cycles_per_ms(f));
            assert!(
                (fd - an).abs() < 1e-5 * an.abs().max(1.0),
                "f={f}: {fd} vs {an}"
            );
        }
    }

    #[test]
    fn unreachable_speeds_need_infinite_voltage() {
        // α = 1 saturates at k: k itself and beyond are out of reach.
        let saturating = FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.0).unwrap();
        for f in [120.0, 1e3, 1e300] {
            let v = saturating.volt_for(Freq::from_cycles_per_ms(f));
            assert_eq!(v.as_volts(), f64::INFINITY, "f = {f}");
        }
        let just_below = saturating.volt_for(Freq::from_cycles_per_ms(119.0));
        assert!(just_below.is_finite());
        // α > 1 grows without bound, but not past 10¹² V in reach.
        let m = FreqModel::alpha(120.0, Volt::from_volts(0.4), 1.6).unwrap();
        assert_eq!(
            m.volt_for(Freq::from_cycles_per_ms(1e12)).as_volts(),
            f64::INFINITY
        );
        assert!(m.volt_for(Freq::from_cycles_per_ms(1e6)).is_finite());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_frequency_panics() {
        let m = FreqModel::linear(50.0).unwrap();
        let _ = m.volt_for(Freq::from_cycles_per_ms(-1.0));
    }
}
