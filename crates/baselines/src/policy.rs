//! The four online policies by name: the paper's LMC, the zero-cost
//! WBG redistributor, and the OLB and On-demand baselines. This crate
//! is the one that sees all four, so the name → (configuration,
//! scheduler) map lives here, and the CLI's `simulate --policy` and the
//! experiment runner both build from it.

use crate::online::{OlbOnline, OnDemandOnline};
use dvfs_core::{LeastMarginalCost, WbgReassign};
use dvfs_model::CostParams;
use dvfs_sim::{GovernorKind, Policy, SimConfig};
use std::str::FromStr;

/// An online policy, spelled `lmc`, `wbg`, `olb` or `ondemand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlinePolicy {
    /// Least Marginal Cost (Section IV).
    Lmc,
    /// Full WBG redistribution on every arrival, migration free.
    Wbg,
    /// Opportunistic Load Balancing: earliest-ready core, max rate.
    Olb,
    /// Round-robin placement, frequencies left to the governor.
    OnDemand,
}

impl OnlinePolicy {
    /// Every policy, in the order the CLI lists them.
    pub const ALL: [OnlinePolicy; 4] = [Self::Lmc, Self::Wbg, Self::Olb, Self::OnDemand];

    /// The name `simulate --policy` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Lmc => "lmc",
            Self::Wbg => "wbg",
            Self::Olb => "olb",
            Self::OnDemand => "ondemand",
        }
    }

    /// The simulator configuration and scheduler this policy runs on
    /// `cfg`'s platform. On-demand is the one that changes the
    /// configuration: the paper's `ondemand` governor on every core.
    #[must_use]
    pub fn build(self, cfg: SimConfig, params: CostParams) -> (SimConfig, Box<dyn Policy>) {
        let ncores = cfg.platform.num_cores();
        let policy: Box<dyn Policy> = match self {
            Self::Lmc => Box::new(LeastMarginalCost::new(&cfg.platform, params)),
            Self::Wbg => Box::new(WbgReassign::new(&cfg.platform, params)),
            Self::Olb => Box::new(OlbOnline::new(ncores)),
            Self::OnDemand => {
                let cfg = cfg.with_governor(GovernorKind::ondemand_paper());
                return (cfg, Box::new(OnDemandOnline::new(ncores)));
            }
        };
        (cfg, policy)
    }
}

impl FromStr for OnlinePolicy {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|p| p.name()).collect();
                format!("unknown policy `{name}` ({})", names.join("|"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvfs_model::Platform;

    #[test]
    fn every_name_parses_back_to_its_policy() {
        for p in OnlinePolicy::ALL {
            assert_eq!(p.name().parse::<OnlinePolicy>(), Ok(p));
        }
    }

    #[test]
    fn an_unknown_name_is_refused_with_every_valid_name() {
        let err = "turbo".parse::<OnlinePolicy>().unwrap_err();
        assert!(err.contains("`turbo`"), "{err}");
        for p in OnlinePolicy::ALL {
            assert!(err.contains(p.name()), "{err} omits {}", p.name());
        }
    }

    #[test]
    fn only_ondemand_hands_every_core_to_the_paper_governor() {
        let platform = Platform::i7_950_quad();
        for p in OnlinePolicy::ALL {
            let (cfg, _) = p.build(SimConfig::new(platform.clone()), CostParams::online_paper());
            let want = match p {
                OnlinePolicy::OnDemand => GovernorKind::ondemand_paper(),
                _ => GovernorKind::Userspace,
            };
            assert_eq!(cfg.governors, vec![want; platform.num_cores()], "{p:?}");
        }
    }
}
