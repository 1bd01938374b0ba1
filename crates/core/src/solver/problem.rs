//! Problem and solution types for the power-allocation optimization (Eq. 8).

use crate::database::PerfModel;
use crate::error::CoreError;
use crate::types::{ConfigId, Ratio, Throughput, Watts};

/// A group of identical servers (same configuration, same workload).
///
/// The paper distributes the same amount of power to all servers of one
/// type: with `x` Server As sharing ratio η, each gets `η/x` of the supply.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerGroup {
    /// The configuration this group consists of.
    pub config: ConfigId,
    /// Number of identical servers in the group.
    pub count: u32,
    /// Per-server performance projection for the workload being run.
    pub model: PerfModel,
}

impl ServerGroup {
    /// Creates a group.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `count` is zero.
    pub fn new(config: ConfigId, count: u32, model: PerfModel) -> Result<Self, CoreError> {
        if count == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "server group count must be at least 1".to_string(),
            });
        }
        Ok(ServerGroup {
            config,
            count,
            model,
        })
    }

    /// Group-level idle power: every server needs at least its idle watts.
    #[must_use]
    pub fn group_idle(&self) -> Watts {
        self.model.range().idle() * f64::from(self.count)
    }

    /// Group-level peak power.
    #[must_use]
    pub fn group_peak(&self) -> Watts {
        self.model.range().peak() * f64::from(self.count)
    }

    /// Group throughput when each server gets `per_server` watts.
    #[must_use]
    pub fn throughput(&self, per_server: Watts) -> Throughput {
        self.model.eval(per_server) * f64::from(self.count)
    }
}

/// The optimization problem of one scheduling epoch: split `budget` watts
/// across the groups to maximize total projected throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocationProblem {
    groups: Vec<ServerGroup>,
    budget: Watts,
}

impl AllocationProblem {
    /// Creates a problem.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyProblem`] if `groups` is empty.
    /// * [`CoreError::InvalidQuantity`] if `budget` is negative.
    pub fn new(groups: Vec<ServerGroup>, budget: Watts) -> Result<Self, CoreError> {
        if groups.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        if budget.value() < 0.0 {
            return Err(CoreError::InvalidQuantity {
                quantity: "budget watts",
                value: budget.value(),
            });
        }
        Ok(AllocationProblem { groups, budget })
    }

    /// The server groups.
    #[must_use]
    pub fn groups(&self) -> &[ServerGroup] {
        &self.groups
    }

    /// The power supply to split (`Power_t` of Eq. 8).
    #[must_use]
    pub fn budget(&self) -> Watts {
        self.budget
    }

    /// Total watts needed to run every server at peak. If the budget
    /// exceeds this, allocation is trivial (everyone at peak).
    #[must_use]
    pub fn total_peak(&self) -> Watts {
        self.groups.iter().map(ServerGroup::group_peak).sum()
    }

    /// Total watts needed to merely power on every server.
    #[must_use]
    pub fn total_idle(&self) -> Watts {
        self.groups.iter().map(ServerGroup::group_idle).sum()
    }

    /// Evaluates the projected total throughput of a per-server power
    /// assignment (one entry per group, in group order).
    ///
    /// # Panics
    ///
    /// Panics if `per_server.len() != groups.len()`.
    #[must_use]
    pub fn objective(&self, per_server: &[Watts]) -> Throughput {
        assert_eq!(
            per_server.len(),
            self.groups.len(),
            "assignment length must match group count"
        );
        self.groups
            .iter()
            .zip(per_server)
            .map(|(g, &p)| g.throughput(p))
            .sum()
    }

    /// Total watts drawn by an assignment.
    #[must_use]
    pub fn total_power(&self, per_server: &[Watts]) -> Watts {
        self.groups
            .iter()
            .zip(per_server)
            .map(|(g, &p)| p * f64::from(g.count))
            .sum()
    }

    /// `true` if the assignment respects the budget (with tolerance for
    /// floating-point round-off).
    #[must_use]
    pub fn is_feasible(&self, per_server: &[Watts]) -> bool {
        self.total_power(per_server).value() <= self.budget.value() + 1e-6
    }
}

/// The solver's answer: per-server watts for each group plus the PAR view.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Watts assigned to each individual server, one entry per group.
    pub per_server: Vec<Watts>,
    /// Each group's share of the total budget (the paper's η, γ, δ).
    /// `1 − Σ shares` is surplus that can charge the battery.
    pub shares: Vec<Ratio>,
    /// Projected total throughput under the database models.
    pub projected: Throughput,
}

impl Allocation {
    /// Builds an allocation from a per-server assignment, deriving shares
    /// and the projected objective.
    #[must_use]
    pub fn from_assignment(problem: &AllocationProblem, per_server: Vec<Watts>) -> Self {
        let budget = problem.budget().value();
        let shares = problem
            .groups()
            .iter()
            .zip(&per_server)
            .map(|(g, &p)| {
                if budget <= 0.0 {
                    Ratio::ZERO
                } else {
                    Ratio::saturating(p.value() * f64::from(g.count) / budget)
                }
            })
            .collect();
        let projected = problem.objective(&per_server);
        Allocation {
            per_server,
            shares,
            projected,
        }
    }

    /// The fraction of the budget left unallocated (chargeable surplus).
    #[must_use]
    pub fn surplus_share(&self) -> Ratio {
        let used: f64 = self.shares.iter().map(|s| s.value()).sum();
        Ratio::saturating(1.0 - used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Quadratic;
    use crate::types::PowerRange;

    fn model(idle: f64, peak: f64, m: f64, n: f64) -> PerfModel {
        PerfModel::new(
            Quadratic { l: 0.0, m, n },
            PowerRange::new(Watts::new(idle), Watts::new(peak)).unwrap(),
        )
    }

    fn two_group_problem() -> AllocationProblem {
        let a = ServerGroup::new(ConfigId::new(0), 1, model(88.0, 147.0, 30.0, -0.05)).unwrap();
        let b = ServerGroup::new(ConfigId::new(1), 1, model(47.0, 81.0, 45.0, -0.1)).unwrap();
        AllocationProblem::new(vec![a, b], Watts::new(220.0)).unwrap()
    }

    #[test]
    fn group_rejects_zero_count() {
        assert!(ServerGroup::new(ConfigId::new(0), 0, model(10.0, 20.0, 1.0, 0.0)).is_err());
    }

    #[test]
    fn group_level_power_scales_with_count() {
        let g = ServerGroup::new(ConfigId::new(0), 5, model(47.0, 81.0, 45.0, -0.1)).unwrap();
        assert_eq!(g.group_idle(), Watts::new(235.0));
        assert_eq!(g.group_peak(), Watts::new(405.0));
        let per_one = g.model.eval(Watts::new(60.0));
        assert!((g.throughput(Watts::new(60.0)).value() - 5.0 * per_one.value()).abs() < 1e-9);
    }

    #[test]
    fn problem_validation() {
        assert!(matches!(
            AllocationProblem::new(vec![], Watts::new(100.0)),
            Err(CoreError::EmptyProblem)
        ));
        let g = ServerGroup::new(ConfigId::new(0), 1, model(10.0, 20.0, 1.0, 0.0)).unwrap();
        assert!(AllocationProblem::new(vec![g], Watts::new(-1.0)).is_err());
    }

    #[test]
    fn objective_and_feasibility() {
        let p = two_group_problem();
        let assignment = [Watts::new(139.0), Watts::new(81.0)];
        assert!(p.is_feasible(&assignment));
        assert!(!p.is_feasible(&[Watts::new(147.0), Watts::new(81.0)]));
        let expected = p.groups()[0].throughput(assignment[0]).value()
            + p.groups()[1].throughput(assignment[1]).value();
        assert!((p.objective(&assignment).value() - expected).abs() < 1e-9);
    }

    #[test]
    fn totals() {
        let p = two_group_problem();
        assert_eq!(p.total_idle(), Watts::new(135.0));
        assert_eq!(p.total_peak(), Watts::new(228.0));
    }

    #[test]
    fn allocation_shares_and_surplus() {
        let p = two_group_problem();
        let alloc = Allocation::from_assignment(&p, vec![Watts::new(110.0), Watts::new(66.0)]);
        assert!((alloc.shares[0].value() - 0.5).abs() < 1e-12);
        assert!((alloc.shares[1].value() - 0.3).abs() < 1e-12);
        assert!((alloc.surplus_share().value() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn allocation_with_zero_budget() {
        let g = ServerGroup::new(ConfigId::new(0), 1, model(10.0, 20.0, 1.0, 0.0)).unwrap();
        let p = AllocationProblem::new(vec![g], Watts::ZERO).unwrap();
        let alloc = Allocation::from_assignment(&p, vec![Watts::ZERO]);
        assert_eq!(alloc.shares[0], Ratio::ZERO);
        assert_eq!(alloc.projected, Throughput::ZERO);
    }
}
