//! Frequency governors.
//!
//! The paper's baselines rely on Linux's frequency governors: `ondemand`
//! (Section V: "If a core's loading is higher than 85%, the frequency
//! governor increases the core's frequency to the largest available
//! selection. On the other hand, if the loading is lower than the
//! threshold, the frequency governor reduces the processing frequency by
//! one level. The loading of a core is measured every second."), and the
//! Power Saving mode which is `ondemand` restricted to the lower half of
//! the frequency range. `userspace` leaves the frequency entirely to the
//! scheduling policy, as the paper does for WBG/LMC.

use dvfs_model::RateIdx;

/// Which entity owns a core's frequency and how it evolves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorKind {
    /// The scheduling policy sets frequencies explicitly
    /// (`scaling_governor = userspace` in the paper's setup).
    Userspace,
    /// Always run at the highest allowed rate.
    Performance,
    /// Linux `ondemand` emulation: evaluated every `period_s`; load above
    /// `up_threshold` jumps to the highest allowed rate, otherwise the
    /// rate steps down one level.
    OnDemand {
        /// Load threshold in `[0, 1]` above which the governor jumps to
        /// the maximum rate (the paper uses 0.85).
        up_threshold: f64,
        /// Evaluation period in seconds (the paper uses 1 s).
        period_s: f64,
    },
    /// Linux `conservative` emulation: like `ondemand` but frequency
    /// moves one step at a time in both directions — up when load
    /// exceeds `up_threshold`, down when it falls below
    /// `down_threshold`, otherwise unchanged.
    Conservative {
        /// Load above this steps the rate up one level.
        up_threshold: f64,
        /// Load below this steps the rate down one level.
        down_threshold: f64,
        /// Evaluation period in seconds.
        period_s: f64,
    },
}

impl GovernorKind {
    /// The paper's on-demand configuration: 85% threshold, 1 s period.
    #[must_use]
    pub fn ondemand_paper() -> Self {
        GovernorKind::OnDemand {
            up_threshold: 0.85,
            period_s: 1.0,
        }
    }

    /// Linux defaults for the `conservative` governor: 80% up, 20% down,
    /// 1 s period.
    #[must_use]
    pub fn conservative_default() -> Self {
        GovernorKind::Conservative {
            up_threshold: 0.8,
            down_threshold: 0.2,
            period_s: 1.0,
        }
    }

    /// Evaluation period for tick-driven governors.
    #[must_use]
    pub fn period(&self) -> Option<f64> {
        match self {
            GovernorKind::OnDemand { period_s, .. }
            | GovernorKind::Conservative { period_s, .. } => Some(*period_s),
            _ => None,
        }
    }

    /// Next rate decision given the measured `load` over the last period,
    /// the current rate, and the highest allowed rate index.
    ///
    /// Only meaningful for [`GovernorKind::OnDemand`]; other kinds return
    /// the current rate (`Userspace`) or the cap (`Performance`).
    #[must_use]
    pub fn next_rate(&self, load: f64, current: RateIdx, max_allowed: RateIdx) -> RateIdx {
        match self {
            GovernorKind::Userspace => current.min(max_allowed),
            GovernorKind::Performance => max_allowed,
            GovernorKind::OnDemand { up_threshold, .. } => {
                if load > *up_threshold {
                    max_allowed
                } else {
                    current.min(max_allowed).saturating_sub(1)
                }
            }
            GovernorKind::Conservative {
                up_threshold,
                down_threshold,
                ..
            } => {
                let cur = current.min(max_allowed);
                if load > *up_threshold {
                    (cur + 1).min(max_allowed)
                } else if load < *down_threshold {
                    cur.saturating_sub(1)
                } else {
                    cur
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ondemand_jumps_to_max_on_high_load() {
        let g = GovernorKind::ondemand_paper();
        assert_eq!(g.next_rate(0.9, 1, 4), 4);
        assert_eq!(g.next_rate(1.0, 0, 4), 4);
    }

    #[test]
    fn ondemand_steps_down_on_low_load() {
        let g = GovernorKind::ondemand_paper();
        assert_eq!(g.next_rate(0.5, 3, 4), 2);
        assert_eq!(g.next_rate(0.0, 0, 4), 0, "cannot go below the floor");
        // Exactly at threshold is "not higher than", so step down.
        assert_eq!(g.next_rate(0.85, 2, 4), 1);
    }

    #[test]
    fn ondemand_respects_allowed_cap() {
        // Power Saving: ondemand capped at index 2 (2.4 GHz in Table II).
        let g = GovernorKind::ondemand_paper();
        assert_eq!(g.next_rate(0.95, 0, 2), 2);
        assert_eq!(g.next_rate(0.1, 4, 2), 1, "current above cap is clamped");
    }

    #[test]
    fn conservative_moves_one_step_at_a_time() {
        let g = GovernorKind::conservative_default();
        assert_eq!(g.next_rate(0.95, 1, 4), 2, "one step up, not a jump");
        assert_eq!(g.next_rate(0.95, 4, 4), 4, "capped at the top");
        assert_eq!(g.next_rate(0.1, 3, 4), 2, "one step down");
        assert_eq!(g.next_rate(0.1, 0, 4), 0, "floored at the bottom");
        assert_eq!(g.next_rate(0.5, 2, 4), 2, "dead band holds steady");
        assert_eq!(g.next_rate(0.95, 4, 2), 2, "cap clamps before stepping");
        assert_eq!(g.period(), Some(1.0));
    }

    #[test]
    fn performance_pins_to_cap_and_userspace_keeps_current() {
        assert_eq!(GovernorKind::Performance.next_rate(0.0, 1, 4), 4);
        assert_eq!(GovernorKind::Userspace.next_rate(1.0, 1, 4), 1);
        assert_eq!(GovernorKind::ondemand_paper().period(), Some(1.0));
        assert_eq!(GovernorKind::Performance.period(), None);
    }
}
