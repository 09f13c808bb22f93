//! [`CcVariant`]: the congestion-control zoo's serializable spec.
//!
//! A `CcVariant` is the *description* of a controller — `Copy`,
//! comparable, hashable into config keys. [`CcVariant::build`] turns it
//! into a live boxed [`CcAlgorithm`] for the engines to drive.

use crate::{
    CcAlgorithm, DcqcnParams, DcqcnRp, FairnessPolicy, MltcpRp, PolicyRp, SwiftParams, SwiftRp,
};
use simtime::Dur;

/// Which congestion-control behaviour a job's flows run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcVariant {
    /// Default DCQCN: every job uses the same timer `T` (fair sharing —
    /// the paper's scenario 1).
    Fair,
    /// Statically unfair DCQCN: this job's timer is overridden (the
    /// paper's scenario 2 sets the aggressive job to 100 µs vs the 125 µs
    /// default).
    StaticUnfair {
        /// The overridden rate-increase timer period.
        timer: Dur,
    },
    /// Adaptively unfair DCQCN (§4.i): `R_AI` is scaled by
    /// `1 + sent/total` of the current communication phase, so jobs closer
    /// to finishing are more aggressive.
    AdaptiveUnfair,
    /// Delay-based (TIMELY/Swift-style) control instead of DCQCN, holding
    /// the queue at the given per-flow delay target. Equal targets share
    /// fairly; a higher target is the unfairness knob.
    Swift {
        /// Queueing-delay target.
        target_delay: Dur,
    },
    /// MLTCP-style job-aware DCQCN ([`MltcpRp`]): the boost ramps with
    /// communication-phase progress, `boost = 1 + bonus · sent/total`.
    /// `bonus = 0` is bit-exact to [`CcVariant::Fair`].
    Mltcp {
        /// Slot-bonus slope (MLTCP's recommended strength is ≈1).
        bonus: f64,
    },
    /// DCQCN driven by an explicit fairness policy ([`PolicyRp`], the
    /// Fair-Aurora direction).
    Policy {
        /// The sharing intent this job's flows enforce.
        policy: FairnessPolicy,
    },
}

impl CcVariant {
    /// Builds the live controller for a job running this variant.
    ///
    /// `base` carries the engine's line rate (via
    /// [`DcqcnParams::with_line_rate`]); delay-based variants read it from
    /// there too.
    ///
    /// # Panics
    /// Panics if the variant's constants are invalid (see
    /// [`MltcpRp::new`], [`FairnessPolicy::validate`]).
    pub fn build(&self, base: DcqcnParams) -> Box<dyn CcAlgorithm> {
        match *self {
            CcVariant::Fair | CcVariant::AdaptiveUnfair => Box::new(DcqcnRp::new(base)),
            CcVariant::StaticUnfair { timer } => Box::new(DcqcnRp::new(base.with_timer(timer))),
            CcVariant::Swift { target_delay } => Box::new(SwiftRp::new(
                SwiftParams {
                    line_rate: base.line_rate,
                    ..SwiftParams::fabric_default()
                }
                .with_target(target_delay),
            )),
            CcVariant::Mltcp { bonus } => Box::new(MltcpRp::new(base, bonus)),
            CcVariant::Policy { policy } => Box::new(PolicyRp::new(base, policy)),
        }
    }

    /// `true` for the paper's adaptively-unfair DCQCN (§4.i). Engines gate
    /// progress feeding on the broader [`CcVariant::wants_progress`].
    pub fn is_adaptive(&self) -> bool {
        matches!(self, CcVariant::AdaptiveUnfair)
    }

    /// `true` for the delay-based controller.
    pub fn is_delay_based(&self) -> bool {
        matches!(self, CcVariant::Swift { .. })
    }

    /// `true` if the engine should feed communication-phase progress into
    /// the controller each step
    /// ([`CcAlgorithm::on_phase_progress`]).
    pub fn wants_progress(&self) -> bool {
        match self {
            CcVariant::AdaptiveUnfair => true,
            CcVariant::Mltcp { bonus } => *bonus > 0.0,
            CcVariant::Policy { policy } => policy.wants_progress(),
            CcVariant::Fair | CcVariant::StaticUnfair { .. } | CcVariant::Swift { .. } => false,
        }
    }

    /// `true` if the controller consumes ECN marks / CNPs (the engines
    /// skip the marking path otherwise).
    pub fn reacts_to_marks(&self) -> bool {
        !self.is_delay_based()
    }

    /// The fluid engine's allocation weight for a job running this
    /// variant at communication-phase progress `p ∈ [0, 1]` — the
    /// idealized-sharing analogue of the packet/rate engines' emergent
    /// bandwidth split:
    ///
    /// * `Fair` → 1 (plain max-min);
    /// * `StaticUnfair { timer }` → `T_default / timer` (a faster timer
    ///   wins proportionally, e.g. 100 µs → 1.25);
    /// * `AdaptiveUnfair` → `1 + p` (§4.i's boost, applied as weight);
    /// * `Swift { target_delay }` → `target / target_default` (a deeper
    ///   delay budget claims a proportionally larger share);
    /// * `Mltcp { bonus }` → `1 + bonus · p`;
    /// * `Policy { policy }` → [`FairnessPolicy::boost`] at `p`.
    pub fn fluid_weight(&self, progress: f64) -> f64 {
        let p = progress.clamp(0.0, 1.0);
        match *self {
            CcVariant::Fair => 1.0,
            CcVariant::StaticUnfair { timer } => {
                let base = DcqcnParams::testbed_default().timer;
                base.as_secs_f64() / timer.as_secs_f64()
            }
            CcVariant::AdaptiveUnfair => 1.0 + p,
            CcVariant::Swift { target_delay } => {
                let base = SwiftParams::fabric_default().target_delay;
                target_delay.as_secs_f64() / base.as_secs_f64()
            }
            CcVariant::Mltcp { bonus } => 1.0 + bonus * p,
            CcVariant::Policy { policy } => policy.boost(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_uses_base_timer() {
        let base = DcqcnParams::testbed_default();
        let cc = CcVariant::Fair.build(base);
        assert_eq!(cc.as_dcqcn().unwrap().params().timer, Dur::from_micros(125));
        assert!(!CcVariant::Fair.is_adaptive());
    }

    #[test]
    fn static_unfair_overrides_timer() {
        let base = DcqcnParams::testbed_default();
        let cc = CcVariant::StaticUnfair {
            timer: Dur::from_micros(100),
        }
        .build(base);
        let rp = cc.as_dcqcn().unwrap();
        assert_eq!(rp.params().timer, Dur::from_micros(100));
        assert_eq!(rp.params().line_rate, base.line_rate);
    }

    #[test]
    fn swift_variant_builds_delay_controller() {
        let v = CcVariant::Swift {
            target_delay: Dur::from_micros(60),
        };
        assert!(v.is_delay_based());
        assert!(!v.is_adaptive());
        let base = DcqcnParams::testbed_default();
        let cc = v.build(base);
        assert!(cc.as_dcqcn().is_none());
        assert_eq!(cc.rate(), 50e9);
        // The target delay is 60 µs: 50 µs of queueing leaves the rate at
        // line rate, 100 µs cuts it.
        let dt = Dur::from_micros(100);
        let mut under = v.build(base);
        under.advance(dt, 0.0, Dur::from_micros(50));
        assert_eq!(under.rate(), 50e9);
        let mut over = v.build(base);
        over.advance(dt, 0.0, Dur::from_micros(100));
        assert!(over.rate() < 50e9);
    }

    #[test]
    fn adaptive_flags_progress_feeding() {
        assert!(CcVariant::AdaptiveUnfair.is_adaptive());
        let cc = CcVariant::AdaptiveUnfair.build(DcqcnParams::testbed_default());
        assert_eq!(cc.as_dcqcn().unwrap().boost(), 1.0); // engine raises it as the phase progresses
    }

    #[test]
    fn build_constructs_every_variant() {
        let base = DcqcnParams::testbed_default();
        let zoo = [
            CcVariant::Fair,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
            CcVariant::AdaptiveUnfair,
            CcVariant::Swift {
                target_delay: Dur::from_micros(60),
            },
            CcVariant::Mltcp { bonus: 1.0 },
            CcVariant::Policy {
                policy: crate::FairnessPolicy::Proportional { weight: 1.5 },
            },
        ];
        for v in zoo {
            let cc = v.build(base);
            assert_eq!(cc.rate(), 50e9, "{v:?} starts at line rate");
            assert_eq!(cc.reacts_to_marks(), v.reacts_to_marks(), "{v:?}");
            assert_eq!(cc.stage().is_none(), v.is_delay_based(), "{v:?}");
        }
    }

    #[test]
    fn wants_progress_covers_job_aware_variants() {
        assert!(CcVariant::AdaptiveUnfair.wants_progress());
        assert!(CcVariant::Mltcp { bonus: 0.5 }.wants_progress());
        assert!(!CcVariant::Mltcp { bonus: 0.0 }.wants_progress());
        assert!(CcVariant::Policy {
            policy: crate::FairnessPolicy::BonusDecay {
                bonus: 1.0,
                decay: 2.0
            }
        }
        .wants_progress());
        assert!(!CcVariant::Policy {
            policy: crate::FairnessPolicy::Proportional { weight: 1.5 }
        }
        .wants_progress());
        assert!(!CcVariant::Fair.wants_progress());
        assert!(!CcVariant::Swift {
            target_delay: Dur::from_micros(30)
        }
        .wants_progress());
    }

    #[test]
    fn fluid_weights_mirror_aggressiveness() {
        assert_eq!(CcVariant::Fair.fluid_weight(0.5), 1.0);
        let unfair = CcVariant::StaticUnfair {
            timer: Dur::from_micros(100),
        };
        assert!((unfair.fluid_weight(0.0) - 1.25).abs() < 1e-12);
        assert_eq!(CcVariant::AdaptiveUnfair.fluid_weight(0.0), 1.0);
        assert_eq!(CcVariant::AdaptiveUnfair.fluid_weight(1.0), 2.0);
        assert_eq!(CcVariant::Mltcp { bonus: 2.0 }.fluid_weight(0.5), 2.0);
        let sw = CcVariant::Swift {
            target_delay: Dur::from_micros(60),
        };
        assert!((sw.fluid_weight(0.3) - 2.0).abs() < 1e-12);
    }
}
