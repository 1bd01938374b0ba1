//! Micro-benchmark of the five allocation policies' decision cost on the
//! same problem (Table III ablation: what does each decision procedure
//! cost per epoch?).

use criterion::{criterion_group, criterion_main, Criterion};
use greenhetero_core::database::{PerfModel, Quadratic};
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::solver::{AllocationProblem, FastPathConfig, ServerGroup, SolverFastPath};
use greenhetero_core::types::{ConfigId, PowerRange, Throughput, Watts};
use std::hint::black_box;

fn problem() -> AllocationProblem {
    let a = ServerGroup::new(
        ConfigId::new(0),
        5,
        PerfModel::new(
            Quadratic {
                l: -3000.0,
                m: 60.0,
                n: -0.12,
            },
            PowerRange::new(Watts::new(88.0), Watts::new(147.0)).unwrap(),
        ),
    )
    .unwrap();
    let b = ServerGroup::new(
        ConfigId::new(1),
        5,
        PerfModel::new(
            Quadratic {
                l: -1200.0,
                m: 55.0,
                n: -0.18,
            },
            PowerRange::new(Watts::new(47.0), Watts::new(81.0)).unwrap(),
        ),
    )
    .unwrap();
    AllocationProblem::new(vec![a, b], Watts::new(900.0)).unwrap()
}

fn bench_policies(c: &mut Criterion) {
    let p = problem();
    // A cheap stand-in oracle for Manual (the simulation's real oracle
    // measures a rack; here we only benchmark the policy's own loop).
    let oracle =
        |per_server: &[Watts]| Throughput::new(per_server.iter().map(|w| w.value().sqrt()).sum());

    // Without warm starts or a cache every solve is a cold one, so the
    // solver-backed policies are timed on their full decision procedure.
    let mut fast = SolverFastPath::new(FastPathConfig {
        cache_capacity: 0,
        warm_start: false,
        ..FastPathConfig::default()
    });

    let mut group = c.benchmark_group("policies");
    for kind in PolicyKind::ALL {
        let policy = kind.build();
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                policy
                    .allocate(black_box(&p), Some(&oracle), &mut fast)
                    .unwrap()
                    .0
                    .projected
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
