//! Racks of heterogeneous servers and the Table IV combinations.

use greenhetero_core::controller::{GroupSpec, RackSpec};
use greenhetero_core::error::CoreError;
use greenhetero_core::types::{Ratio, ServerId, Throughput, Watts};

use crate::platform::PlatformKind;
use crate::server::{ServerSample, SimServer};
use crate::workload::WorkloadKind;

/// The server combinations of Table IV (plus the §III-B case-study pair,
/// which is Comb1 with one server per type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the paper's combination names
pub enum Combination {
    Comb1,
    Comb2,
    Comb3,
    Comb4,
    Comb5,
    Comb6,
}

impl Combination {
    /// All six combinations.
    pub const ALL: [Combination; 6] = [
        Combination::Comb1,
        Combination::Comb2,
        Combination::Comb3,
        Combination::Comb4,
        Combination::Comb5,
        Combination::Comb6,
    ];

    /// The platforms making up this combination (Table IV).
    #[must_use]
    pub fn platforms(self) -> &'static [PlatformKind] {
        use PlatformKind::*;
        match self {
            Combination::Comb1 => &[XeonE52620, CoreI54460],
            Combination::Comb2 => &[XeonE52603, CoreI54460],
            Combination::Comb3 => &[XeonE52650, XeonE52620],
            Combination::Comb4 => &[CoreI78700K, CoreI54460],
            Combination::Comb5 => &[XeonE52620, XeonE52603, CoreI54460],
            Combination::Comb6 => &[XeonE52620, TitanXp],
        }
    }

    /// The combination's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Combination::Comb1 => "Comb1",
            Combination::Comb2 => "Comb2",
            Combination::Comb3 => "Comb3",
            Combination::Comb4 => "Comb4",
            Combination::Comb5 => "Comb5",
            Combination::Comb6 => "Comb6",
        }
    }
}

impl std::fmt::Display for Combination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One homogeneous group inside a rack.
#[derive(Debug, Clone, PartialEq)]
pub struct RackGroup {
    /// The platform of every server in the group.
    pub platform: PlatformKind,
    /// The workload every server in the group runs.
    pub workload: WorkloadKind,
    /// Number of identical servers.
    pub count: u32,
    /// A representative server (all servers of the group are identical and
    /// receive identical power, per the paper's same-type rule).
    server: SimServer,
}

impl RackGroup {
    /// The representative server.
    #[must_use]
    pub fn server(&self) -> &SimServer {
        &self.server
    }
}

/// What the monitor measured for one group after an epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupMeasurement {
    /// The platform measured.
    pub platform: PlatformKind,
    /// Per-server sample (power, throughput, state).
    pub sample: ServerSample,
    /// Servers in the group.
    pub count: u32,
}

impl GroupMeasurement {
    /// Group-level power draw.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.sample.power * f64::from(self.count)
    }

    /// Group-level throughput.
    #[must_use]
    pub fn total_throughput(&self) -> Throughput {
        self.sample.throughput * f64::from(self.count)
    }
}

/// A full rack measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RackMeasurement {
    /// Per-group measurements, in rack group order.
    pub groups: Vec<GroupMeasurement>,
}

impl RackMeasurement {
    /// Total rack throughput.
    #[must_use]
    pub fn total_throughput(&self) -> Throughput {
        self.groups
            .iter()
            .map(GroupMeasurement::total_throughput)
            .sum()
    }

    /// Total rack power draw.
    #[must_use]
    pub fn total_power(&self) -> Watts {
        self.groups.iter().map(GroupMeasurement::total_power).sum()
    }
}

/// A rack of heterogeneous server groups. The paper runs one workload
/// across the rack ([`Rack::new`] / [`Rack::combination`]); the
/// [`Rack::mixed`] constructor extends this to per-group workloads (the
/// paper's future-work direction of more complex rack compositions).
///
/// # Examples
///
/// ```
/// use greenhetero_server::rack::{Combination, Rack};
/// use greenhetero_server::workload::WorkloadKind;
/// use greenhetero_core::types::{Ratio, Watts};
///
/// // The paper's runtime setup: 5 + 5 servers of Comb1 running SPECjbb.
/// let rack = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb)?;
/// let m = rack.measure(&[Watts::new(120.0), Watts::new(75.0)], Ratio::ONE);
/// assert!(m.total_throughput().value() > 0.0);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    groups: Vec<RackGroup>,
}

impl Rack {
    /// Builds a rack from (platform, count) pairs, all running `workload`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyProblem`] for an empty composition, and
    /// propagates workload/platform incompatibilities and zero counts.
    pub fn new(
        composition: &[(PlatformKind, u32)],
        workload: WorkloadKind,
    ) -> Result<Self, CoreError> {
        let mixed: Vec<(PlatformKind, u32, WorkloadKind)> =
            composition.iter().map(|&(p, c)| (p, c, workload)).collect();
        Rack::mixed(&mixed)
    }

    /// Builds a rack where each group runs its own workload — e.g. the
    /// Xeons on a batch job while the i5s serve an interactive service.
    /// The controller handles this naturally: its database is keyed by
    /// (configuration, workload) pairs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyProblem`] for an empty composition,
    /// [`CoreError::InvalidConfig`] for zero counts or duplicate
    /// (platform, workload) groups, and propagates workload/platform
    /// incompatibilities.
    pub fn mixed(composition: &[(PlatformKind, u32, WorkloadKind)]) -> Result<Self, CoreError> {
        if composition.is_empty() {
            return Err(CoreError::EmptyProblem);
        }
        let mut groups: Vec<RackGroup> = Vec::with_capacity(composition.len());
        for (i, &(platform, count, workload)) in composition.iter().enumerate() {
            if count == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("group {i} ({platform}) has zero servers"),
                });
            }
            if groups
                .iter()
                .any(|g| g.platform == platform && g.workload == workload)
            {
                return Err(CoreError::InvalidConfig {
                    reason: format!("duplicate group: {platform} running {workload} appears twice"),
                });
            }
            let server = SimServer::new(ServerId::new(i as u32), platform, workload)?;
            groups.push(RackGroup {
                platform,
                workload,
                count,
                server,
            });
        }
        Ok(Rack { groups })
    }

    /// Builds one of the Table IV combinations with `per_type` servers of
    /// each platform (the paper's evaluation uses 5 per configuration).
    ///
    /// # Errors
    ///
    /// Propagates [`Rack::new`] failures.
    pub fn combination(
        comb: Combination,
        per_type: u32,
        workload: WorkloadKind,
    ) -> Result<Self, CoreError> {
        let composition: Vec<(PlatformKind, u32)> =
            comb.platforms().iter().map(|&p| (p, per_type)).collect();
        Rack::new(&composition, workload)
    }

    /// The workloads running on the rack, in group order.
    #[must_use]
    pub fn workloads(&self) -> Vec<WorkloadKind> {
        self.groups.iter().map(|g| g.workload).collect()
    }

    /// The groups.
    #[must_use]
    pub fn groups(&self) -> &[RackGroup] {
        &self.groups
    }

    /// Total number of servers.
    #[must_use]
    pub fn server_count(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// The controller-facing description of this rack (configuration ids,
    /// counts and power envelopes — no ground truth leaks through).
    ///
    /// # Errors
    ///
    /// Never fails for a constructed rack; kept fallible for symmetry with
    /// [`RackSpec::new`].
    pub fn controller_spec(&self) -> Result<RackSpec, CoreError> {
        RackSpec::new(
            self.groups
                .iter()
                .map(|g| GroupSpec {
                    config: g.platform.id(),
                    workload: g.workload.id(),
                    count: g.count,
                    envelope: g.server.truth().envelope(),
                })
                .collect(),
        )
    }

    /// Rack power demand at a given offered-load intensity (every server
    /// unconstrained).
    #[must_use]
    pub fn demand_at(&self, intensity: Ratio) -> Watts {
        self.groups
            .iter()
            .map(|g| g.server.truth().demand_at(intensity) * f64::from(g.count))
            .sum()
    }

    /// Demand as [`Rack::demand_at`], but counting only `active[i]` servers
    /// per group (crashed or powered-off machines draw nothing). Counts
    /// above the group size clamp to it.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the group count.
    #[must_use]
    pub fn demand_at_active(&self, active: &[u32], intensity: Ratio) -> Watts {
        assert_eq!(
            active.len(),
            self.groups.len(),
            "active-count length must match group count"
        );
        self.groups
            .iter()
            .zip(active)
            .map(|(g, &n)| g.server.truth().demand_at(intensity) * f64::from(n.min(g.count)))
            .sum()
    }

    /// Runs one epoch with `per_server` watts allocated to each group's
    /// servers (rack group order) and measures the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `per_server.len()` differs from the group count.
    #[must_use]
    pub fn measure(&self, per_server: &[Watts], intensity: Ratio) -> RackMeasurement {
        let full: Vec<u32> = self.groups.iter().map(|g| g.count).collect();
        self.measure_active(per_server, &full, intensity)
    }

    /// Measures as [`Rack::measure`], but with only `active[i]` servers per
    /// group online. Offline groups (`active[i] == 0`) report a zero sample
    /// — a dark machine draws nothing and serves nothing — and the group's
    /// `count` in the measurement reflects the online servers, so
    /// [`GroupMeasurement::total_power`] already excludes dark machines.
    /// Counts above the group size clamp to it.
    ///
    /// # Panics
    ///
    /// Panics if `per_server.len()` or `active.len()` differs from the
    /// group count.
    #[must_use]
    pub fn measure_active(
        &self,
        per_server: &[Watts],
        active: &[u32],
        intensity: Ratio,
    ) -> RackMeasurement {
        assert_eq!(
            per_server.len(),
            self.groups.len(),
            "allocation length must match group count"
        );
        assert_eq!(
            active.len(),
            self.groups.len(),
            "active-count length must match group count"
        );
        let groups: Vec<GroupMeasurement> = self
            .groups
            .iter()
            .zip(per_server.iter().zip(active))
            .map(|(g, (&alloc, &online))| {
                let count = online.min(g.count);
                let cap = if count == 0 { Watts::ZERO } else { alloc };
                let mut server = g.server.clone();
                server.apply_cap(cap);
                let sample = server.run(intensity);
                // A capped server duty-cycles *at or below* its cap and
                // can never report negative draw or throughput.
                debug_assert!(
                    sample.power <= cap.non_negative() + Watts::new(1e-6),
                    "measured draw exceeds the cap: {:?} vs {cap:?}",
                    sample.power
                );
                debug_assert!(
                    sample.power.value() >= 0.0 && sample.throughput.value() >= 0.0,
                    "measurement went negative: {sample:?}"
                );
                GroupMeasurement {
                    platform: g.platform,
                    sample,
                    count,
                }
            })
            .collect();
        RackMeasurement { groups }
    }

    /// Measured total throughput for an allocation — the oracle the Manual
    /// policy uses ("trying all possible power allocations").
    #[must_use]
    pub fn measured_throughput(&self, per_server: &[Watts], intensity: Ratio) -> Throughput {
        self.measure(per_server, intensity).total_throughput()
    }

    /// Sweeps group `group_idx`'s DVFS ladder to produce `samples`
    /// training-run points spread across the productive range, under the
    /// `ondemand`-like varying utilization of a training run.
    ///
    /// # Panics
    ///
    /// Panics if `group_idx` is out of range or `samples == 0`.
    #[must_use]
    pub fn training_sweep(
        &self,
        group_idx: usize,
        samples: usize,
        intensity: Ratio,
    ) -> Vec<ServerSample> {
        assert!(samples > 0, "need at least one sample");
        let server = &self.groups[group_idx].server;
        let top = server.states().len() - 1; // skip the off state
        (0..samples)
            .map(|i| {
                let t = if samples == 1 {
                    1.0
                } else {
                    i as f64 / (samples - 1) as f64
                };
                let idx = 1 + ((top - 1) as f64 * t).round() as usize;
                server.sample_at_state(idx, intensity)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_four_compositions() {
        assert_eq!(Combination::Comb1.platforms().len(), 2);
        assert_eq!(Combination::Comb5.platforms().len(), 3);
        assert!(Combination::Comb6
            .platforms()
            .contains(&PlatformKind::TitanXp));
        for c in Combination::ALL {
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn rack_construction_validation() {
        assert!(Rack::new(&[], WorkloadKind::SpecJbb).is_err());
        assert!(Rack::new(&[(PlatformKind::CoreI54460, 0)], WorkloadKind::SpecJbb).is_err());
        // GPU rack with a CPU-only workload fails.
        assert!(Rack::combination(Combination::Comb6, 5, WorkloadKind::SpecJbb).is_err());
        // GPU rack with a Rodinia workload works.
        assert!(Rack::combination(Combination::Comb6, 5, WorkloadKind::SradV1).is_ok());
    }

    #[test]
    fn server_counts() {
        let r = Rack::combination(Combination::Comb5, 5, WorkloadKind::SpecJbb).unwrap();
        assert_eq!(r.server_count(), 15);
        assert_eq!(r.groups().len(), 3);
    }

    #[test]
    fn controller_spec_mirrors_rack() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let spec = r.controller_spec().unwrap();
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].count, 5);
        assert_eq!(spec.groups[0].config, PlatformKind::XeonE52620.id());
        // Envelope is the workload envelope, not nameplate.
        assert!(spec.groups[0].envelope.peak() < Watts::new(178.0));
    }

    #[test]
    fn measurement_respects_caps() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let m = r.measure(&[Watts::new(120.0), Watts::new(75.0)], Ratio::ONE);
        assert!(m.groups[0].sample.power <= Watts::new(120.0));
        assert!(m.groups[1].sample.power <= Watts::new(75.0));
        assert_eq!(m.groups[0].count, 5);
        assert!(m.total_power() <= Watts::new(5.0 * 120.0 + 5.0 * 75.0));
        assert!(m.total_throughput().value() > 0.0);
    }

    #[test]
    fn starved_group_contributes_nothing() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        // 70 W is below the Xeon's 88 W idle.
        let m = r.measure(&[Watts::new(70.0), Watts::new(70.0)], Ratio::ONE);
        assert_eq!(m.groups[0].sample.power, Watts::ZERO);
        assert_eq!(m.groups[0].total_throughput(), Throughput::ZERO);
        assert!(m.groups[1].total_throughput() > Throughput::ZERO);
    }

    #[test]
    fn measure_active_darkens_offline_servers() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let alloc = [Watts::new(120.0), Watts::new(75.0)];
        let full = r.measure(&alloc, Ratio::ONE);
        // Two i5s crashed: the group's sample is unchanged per-server but
        // the measurement counts only the three survivors.
        let partial = r.measure_active(&alloc, &[5, 3], Ratio::ONE);
        assert_eq!(partial.groups[1].count, 3);
        assert_eq!(partial.groups[1].sample, full.groups[1].sample);
        assert!(partial.total_power() < full.total_power());
        // A fully-dark group reports a zero sample, not idle draw.
        let dark = r.measure_active(&alloc, &[5, 0], Ratio::ONE);
        assert_eq!(dark.groups[1].count, 0);
        assert_eq!(dark.groups[1].sample.power, Watts::ZERO);
        assert_eq!(dark.groups[1].total_throughput(), Throughput::ZERO);
        // Counts above the group size clamp to it.
        let clamped = r.measure_active(&alloc, &[9, 9], Ratio::ONE);
        assert_eq!(clamped, full);
    }

    #[test]
    fn demand_at_active_counts_only_online_servers() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let full = r.demand_at(Ratio::ONE);
        assert_eq!(r.demand_at_active(&[5, 5], Ratio::ONE), full);
        let partial = r.demand_at_active(&[5, 3], Ratio::ONE);
        assert!(partial < full);
        assert_eq!(r.demand_at_active(&[0, 0], Ratio::ONE), Watts::ZERO);
        // Clamped to the group size.
        assert_eq!(r.demand_at_active(&[9, 9], Ratio::ONE), full);
    }

    #[test]
    fn demand_scales_with_intensity() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let low = r.demand_at(Ratio::saturating(0.2));
        let high = r.demand_at(Ratio::ONE);
        assert!(low < high);
        // Full-intensity demand equals the controller spec's peak demand.
        let spec = r.controller_spec().unwrap();
        assert!(high.approx_eq(spec.peak_demand(), Watts::new(1e-6)));
    }

    #[test]
    fn training_sweep_spans_the_range() {
        let r = Rack::combination(Combination::Comb1, 5, WorkloadKind::SpecJbb).unwrap();
        let sweep = r.training_sweep(0, 5, Ratio::ONE);
        assert_eq!(sweep.len(), 5);
        // Strictly increasing power across the sweep.
        for w in sweep.windows(2) {
            assert!(w[1].power > w[0].power);
        }
        // First sample near the bottom of the ladder, last at workload peak.
        let truth = r.groups()[0].server.truth();
        assert!(sweep[4]
            .power
            .approx_eq(truth.envelope().peak(), Watts::new(1.0)));
    }

    #[test]
    fn oracle_matches_measure() {
        let r = Rack::combination(Combination::Comb2, 2, WorkloadKind::Canneal).unwrap();
        let alloc = [Watts::new(70.0), Watts::new(80.0)];
        assert_eq!(
            r.measured_throughput(&alloc, Ratio::ONE),
            r.measure(&alloc, Ratio::ONE).total_throughput()
        );
    }

    #[test]
    fn mixed_rack_carries_per_group_workloads() {
        let rack = Rack::mixed(&[
            (PlatformKind::XeonE52620, 5, WorkloadKind::Streamcluster),
            (PlatformKind::CoreI54460, 5, WorkloadKind::Memcached),
        ])
        .unwrap();
        assert_eq!(
            rack.workloads(),
            vec![WorkloadKind::Streamcluster, WorkloadKind::Memcached]
        );
        // The controller spec exposes distinct (config, workload) pairs.
        let spec = rack.controller_spec().unwrap();
        assert_eq!(spec.groups[0].workload, WorkloadKind::Streamcluster.id());
        assert_eq!(spec.groups[1].workload, WorkloadKind::Memcached.id());
        // Envelopes differ per workload even at equal counts.
        assert_ne!(
            spec.groups[0].envelope.peak(),
            spec.groups[1].envelope.peak()
        );
    }

    #[test]
    fn mixed_rack_allows_same_platform_twice_with_different_workloads() {
        let rack = Rack::mixed(&[
            (PlatformKind::XeonE52620, 2, WorkloadKind::Mcf),
            (PlatformKind::XeonE52620, 3, WorkloadKind::Canneal),
        ])
        .unwrap();
        assert_eq!(rack.groups().len(), 2);
        let m = rack.measure(&[Watts::new(130.0), Watts::new(140.0)], Ratio::ONE);
        assert!(m.total_throughput().value() > 0.0);
    }

    #[test]
    fn mixed_rack_rejects_duplicate_pairs_and_empty() {
        assert!(Rack::mixed(&[
            (PlatformKind::CoreI54460, 2, WorkloadKind::Vips),
            (PlatformKind::CoreI54460, 3, WorkloadKind::Vips),
        ])
        .is_err());
        assert!(Rack::mixed(&[]).is_err());
    }

    #[test]
    fn mixed_rack_gpu_pairing_rules() {
        assert!(Rack::mixed(&[
            (PlatformKind::XeonE52620, 2, WorkloadKind::SradV1),
            (PlatformKind::TitanXp, 2, WorkloadKind::SpecJbb),
        ])
        .is_err());
        assert!(Rack::mixed(&[
            (PlatformKind::XeonE52620, 2, WorkloadKind::SpecJbb),
            (PlatformKind::TitanXp, 2, WorkloadKind::SradV1),
        ])
        .is_ok());
    }
}
