//! The Table I workload catalog.
//!
//! Sixteen datacenter workloads from four suites: CloudSuite interactive
//! services, PARSEC shared-memory batch jobs, a SPECCPU HPC benchmark and
//! Rodinia heterogeneous-computing kernels. Each workload carries the
//! *behavioural* parameters the ground-truth models need:
//!
//! * `power_factor` — fraction of a platform's nameplate dynamic power the
//!   workload actually pulls at full load (SPECjbb on the paper's testbed
//!   pulled ≈ 0.67 of nameplate, Memcached far less — the Twitter cluster
//!   observation of consistently-below-20 % CPU utilization);
//! * `kappa` — curvature of throughput vs. *capped dynamic power*:
//!   `thr ∝ dyn_power^κ`. Workloads that stay busy at near-idle power
//!   (Memcached, Web-search — mostly waiting on network/memory) have
//!   κ ≪ 1; codes whose useful work tracks the duty-cycled power budget
//!   (Streamcluster's bandwidth-bound inner loop, SPECjbb under its
//!   latency SLO) respond near-linearly or slightly super-linearly;
//! * `parallel_scaling` — how much extra cores help (Amdahl exponent);
//! * `gpu_affinity` — speed-up factor on the GPU platform (0 = cannot run
//!   on a GPU), only non-zero for the Rodinia kernels of the paper's
//!   Comb6 experiments.

use greenhetero_core::types::WorkloadId;

/// The benchmark suite a workload comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECjbb 2013.
    Spec,
    /// CloudSuite scale-out services.
    Cloudsuite,
    /// PARSEC 3.0 shared-memory benchmarks.
    Parsec,
    /// SPEC CPU2006.
    SpecCpu,
    /// Rodinia heterogeneous-computing kernels.
    Rodinia,
}

impl Suite {
    /// The suite's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec => "SPEC",
            Suite::Cloudsuite => "Cloudsuite",
            Suite::Parsec => "PARSEC",
            Suite::SpecCpu => "SPECCPU",
            Suite::Rodinia => "Rodinia",
        }
    }
}

/// The sixteen workloads of Table I.
///
/// `Streamcluster` doubles as the PARSEC CPU benchmark and the Rodinia
/// GPU kernel (the paper runs it in both roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the workload names
pub enum WorkloadKind {
    SpecJbb,
    WebSearch,
    Memcached,
    Streamcluster,
    Freqmine,
    Blackscholes,
    Bodytrack,
    Swaptions,
    Vips,
    X264,
    Canneal,
    Mcf,
    SradV1,
    Particlefilter,
    Cfd,
}

/// Descriptive and behavioural parameters of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Which workload this is.
    pub kind: WorkloadKind,
    /// The suite it comes from.
    pub suite: Suite,
    /// Performance metric label, as reported in the paper's Table I.
    pub metric: &'static str,
    /// `true` for latency-constrained interactive services.
    pub interactive: bool,
    /// Fraction of nameplate dynamic power drawn at full load.
    pub power_factor: f64,
    /// Curvature of throughput vs. dynamic power (`thr ∝ dyn^κ`).
    pub kappa: f64,
    /// Amdahl exponent: throughput scales with `cores^parallel_scaling`.
    pub parallel_scaling: f64,
    /// Memory-bandwidth sensitivity: throughput additionally scales with
    /// `sockets^memory_scaling` (each socket brings its own memory
    /// channels, which is why memory-bound codes love the dual-socket
    /// Xeon).
    pub memory_scaling: f64,
    /// Relative throughput multiplier when run on a GPU (0 = CPU-only).
    pub gpu_affinity: f64,
}

impl WorkloadKind {
    /// Every workload of Table I, in the paper's listing order.
    pub const ALL: [WorkloadKind; 15] = [
        WorkloadKind::SpecJbb,
        WorkloadKind::WebSearch,
        WorkloadKind::Memcached,
        WorkloadKind::Streamcluster,
        WorkloadKind::Freqmine,
        WorkloadKind::Blackscholes,
        WorkloadKind::Bodytrack,
        WorkloadKind::Swaptions,
        WorkloadKind::Vips,
        WorkloadKind::X264,
        WorkloadKind::Canneal,
        WorkloadKind::Mcf,
        WorkloadKind::SradV1,
        WorkloadKind::Particlefilter,
        WorkloadKind::Cfd,
    ];

    /// The 13 workloads evaluated in the paper's Figures 9 and 10
    /// (3 interactive + 8 PARSEC + Mcf, with PARSEC Streamcluster counted
    /// among the 8).
    pub const FIG9_SET: [WorkloadKind; 12] = [
        WorkloadKind::SpecJbb,
        WorkloadKind::WebSearch,
        WorkloadKind::Memcached,
        WorkloadKind::Streamcluster,
        WorkloadKind::Freqmine,
        WorkloadKind::Blackscholes,
        WorkloadKind::Bodytrack,
        WorkloadKind::Swaptions,
        WorkloadKind::Vips,
        WorkloadKind::X264,
        WorkloadKind::Canneal,
        WorkloadKind::Mcf,
    ];

    /// The four Rodinia workloads of the GPU experiments (Fig. 14).
    pub const COMB6_SET: [WorkloadKind; 4] = [
        WorkloadKind::Streamcluster,
        WorkloadKind::SradV1,
        WorkloadKind::Particlefilter,
        WorkloadKind::Cfd,
    ];

    /// The workload's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::SpecJbb => "SPECjbb",
            WorkloadKind::WebSearch => "Web-search",
            WorkloadKind::Memcached => "Memcached",
            WorkloadKind::Streamcluster => "Streamcluster",
            WorkloadKind::Freqmine => "Freqmine",
            WorkloadKind::Blackscholes => "Blackscholes",
            WorkloadKind::Bodytrack => "Bodytrack",
            WorkloadKind::Swaptions => "Swaptions",
            WorkloadKind::Vips => "Vips",
            WorkloadKind::X264 => "X264",
            WorkloadKind::Canneal => "Canneal",
            WorkloadKind::Mcf => "Mcf",
            WorkloadKind::SradV1 => "Srad_v1",
            WorkloadKind::Particlefilter => "Particlefilter",
            WorkloadKind::Cfd => "Cfd",
        }
    }

    /// Stable identifier for database keys.
    #[must_use]
    pub fn id(self) -> WorkloadId {
        WorkloadId::new(self as u32)
    }

    /// The full behavioural spec.
    #[must_use]
    pub fn spec(self) -> WorkloadSpec {
        use Suite::*;
        use WorkloadKind::*;
        // power_factor / kappa / parallel_scaling / memory_scaling /
        // gpu_affinity are the calibration knobs of the reproduction; see
        // DESIGN.md §6 for the target shapes they were tuned against.
        let (suite, metric, interactive, pf, kappa, par, mem, gpu) = match self {
            SpecJbb => (
                Spec,
                "jops (99%-ile 500ms constrained)",
                true,
                0.67,
                1.15,
                0.90,
                0.10,
                0.0,
            ),
            WebSearch => (
                Cloudsuite,
                "ops (90%-ile 500ms constrained)",
                true,
                0.55,
                0.50,
                0.88,
                0.10,
                0.0,
            ),
            Memcached => (
                Cloudsuite,
                "rps (95%-ile 10ms constrained)",
                true,
                0.40,
                0.25,
                0.92,
                0.00,
                0.0,
            ),
            Streamcluster => (
                Parsec,
                "ips, execution time",
                false,
                0.90,
                1.10,
                0.80,
                0.95,
                9.0,
            ),
            Freqmine => (
                Parsec,
                "ips, execution time",
                false,
                0.85,
                0.85,
                0.85,
                0.20,
                0.0,
            ),
            Blackscholes => (
                Parsec,
                "ips, execution time",
                false,
                0.88,
                0.95,
                0.95,
                0.05,
                0.0,
            ),
            Bodytrack => (
                Parsec,
                "ips, execution time",
                false,
                0.82,
                0.85,
                0.88,
                0.15,
                0.0,
            ),
            Swaptions => (
                Parsec,
                "ips, execution time",
                false,
                0.92,
                0.98,
                0.96,
                0.00,
                0.0,
            ),
            Vips => (
                Parsec,
                "ips, execution time",
                false,
                0.86,
                0.88,
                0.90,
                0.20,
                0.0,
            ),
            X264 => (
                Parsec,
                "ips, execution time",
                false,
                0.90,
                0.90,
                0.85,
                0.15,
                0.0,
            ),
            Canneal => (
                Parsec,
                "ips, execution time",
                false,
                0.75,
                0.95,
                0.60,
                0.80,
                0.0,
            ),
            Mcf => (
                SpecCpu,
                "ips, execution time",
                false,
                0.60,
                0.80,
                0.10,
                0.35,
                0.0,
            ),
            SradV1 => (
                Rodinia,
                "ips, execution time",
                false,
                0.88,
                0.80,
                0.85,
                0.30,
                20.0,
            ),
            Particlefilter => (
                Rodinia,
                "ips, execution time",
                false,
                0.85,
                0.80,
                0.82,
                0.20,
                7.0,
            ),
            Cfd => (
                Rodinia,
                "ips, execution time",
                false,
                0.90,
                0.75,
                0.85,
                0.50,
                1.6,
            ),
        };
        WorkloadSpec {
            kind: self,
            suite,
            metric,
            interactive,
            power_factor: pf,
            kappa,
            parallel_scaling: par,
            memory_scaling: mem,
            gpu_affinity: gpu,
        }
    }

    /// `true` if the workload has a GPU implementation (Rodinia kernels).
    #[must_use]
    pub fn runs_on_gpu(self) -> bool {
        self.spec().gpu_affinity > 0.0
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_have_valid_parameters() {
        for kind in WorkloadKind::ALL {
            let s = kind.spec();
            assert!(
                (0.0..=1.0).contains(&s.power_factor),
                "{kind}: power_factor"
            );
            assert!((0.2..=1.2).contains(&s.kappa), "{kind}: kappa");
            assert!((0.0..=1.0).contains(&s.parallel_scaling), "{kind}: scaling");
            assert!((0.0..=1.0).contains(&s.memory_scaling), "{kind}: memory");
            assert!(s.gpu_affinity >= 0.0, "{kind}: gpu_affinity");
            assert!(!kind.name().is_empty());
            assert!(!s.metric.is_empty());
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<u32> = WorkloadKind::ALL.iter().map(|w| w.id().raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), WorkloadKind::ALL.len());
    }

    #[test]
    fn interactive_workloads_are_the_cloud_services() {
        let interactive: Vec<WorkloadKind> = WorkloadKind::ALL
            .into_iter()
            .filter(|w| w.spec().interactive)
            .collect();
        assert_eq!(
            interactive,
            vec![
                WorkloadKind::SpecJbb,
                WorkloadKind::WebSearch,
                WorkloadKind::Memcached
            ]
        );
    }

    #[test]
    fn gpu_set_matches_comb6() {
        for w in WorkloadKind::COMB6_SET {
            assert!(w.runs_on_gpu(), "{w} must run on the Titan Xp");
        }
        assert!(!WorkloadKind::SpecJbb.runs_on_gpu());
        assert!(!WorkloadKind::Canneal.runs_on_gpu());
    }

    #[test]
    fn srad_has_the_strongest_gpu_affinity() {
        // The paper's Fig. 14: Srad_v1 shows the largest GPU-side gain
        // (up to 4.6×) while Cfd performs similarly on CPU and GPU.
        let srad = WorkloadKind::SradV1.spec().gpu_affinity;
        let cfd = WorkloadKind::Cfd.spec().gpu_affinity;
        for w in WorkloadKind::COMB6_SET {
            assert!(w.spec().gpu_affinity <= srad);
        }
        assert!(cfd < 2.5, "Cfd should be CPU-comparable, got {cfd}");
    }

    #[test]
    fn idle_tolerant_services_have_low_kappa() {
        // Memcached and Web-search keep serving near idle power; power-
        // hungry batch codes track the cap much more tightly.
        assert!(WorkloadKind::Memcached.spec().kappa < 0.5);
        assert!(WorkloadKind::WebSearch.spec().kappa < WorkloadKind::Swaptions.spec().kappa);
        assert!(WorkloadKind::Streamcluster.spec().kappa >= 1.0);
    }

    #[test]
    fn memcached_draws_little_power() {
        assert!(WorkloadKind::Memcached.spec().power_factor <= 0.45);
    }

    #[test]
    fn mcf_is_effectively_serial() {
        assert!(WorkloadKind::Mcf.spec().parallel_scaling < 0.2);
    }

    #[test]
    fn fig9_set_has_twelve_named_workloads() {
        assert_eq!(WorkloadKind::FIG9_SET.len(), 12);
        let mut set = WorkloadKind::FIG9_SET.to_vec();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn suite_names() {
        assert_eq!(Suite::Parsec.name(), "PARSEC");
        assert_eq!(WorkloadKind::SradV1.spec().suite, Suite::Rodinia);
        assert_eq!(WorkloadKind::SpecJbb.to_string(), "SPECjbb");
    }
}
