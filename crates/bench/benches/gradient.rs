//! Criterion bench P2: one ACS objective + gradient evaluation (the
//! solver's inner-loop unit of work), through the hand-written kernel
//! the solver calls and through the tape reference it must match.

use acs_core::{ObjectiveKind, ScheduleProblem};
use acs_model::units::Freq;
use acs_opt::problem::ConstrainedProblem;
use acs_opt::tape::Graph;
use acs_preempt::FullyPreemptiveSchedule;
use acs_workloads::{cnc, gap};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_gradient(c: &mut Criterion) {
    let fmax = Freq::from_cycles_per_ms(200.0);
    let cpu = acs_power::Processor::builder(acs_power::FreqModel::linear(50.0).unwrap())
        .vmin(acs_model::units::Volt::from_volts(0.3))
        .vmax(acs_model::units::Volt::from_volts(4.0))
        .build()
        .unwrap();

    let mut g = c.benchmark_group("objective_gradient");
    for (name, set) in [
        ("cnc_64", cnc(fmax, 0.5, 0.7).unwrap()),
        ("gap_680", gap(fmax, 0.5, 0.7).unwrap()),
    ] {
        let fps = FullyPreemptiveSchedule::expand(&set).unwrap();
        let problem = ScheduleProblem::new(&set, &cpu, &fps, ObjectiveKind::AcecTrace);
        let x0 = problem.initial_point();
        let mut grad = vec![0.0; x0.len()];
        g.bench_function(&format!("{name}/kernel"), |b| {
            b.iter(|| black_box(problem.objective(&x0, 1e-3, Some(&mut grad))))
        });
        g.bench_function(&format!("{name}/tape"), |b| {
            b.iter(|| {
                let graph = Graph::with_capacity(x0.len() * 16);
                let xs: Vec<_> = x0.iter().map(|&v| graph.input(v)).collect();
                let exprs = problem.build(&graph, &xs, 1e-3);
                let grads = graph.gradient(exprs.objective);
                black_box(grads.wrt(xs[0]))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_gradient);
criterion_main!(benches);
