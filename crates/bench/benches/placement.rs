//! Criterion benchmarks for the full pipeline and the global-placement
//! stage (the Fig. 10 runtime story at micro scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tvp_bench::netlist_of;
use tvp_bookshelf::synth::SynthConfig;
use tvp_core::global::global_place;
use tvp_core::objective::ObjectiveModel;
use tvp_core::{Chip, Placer, PlacerConfig};

fn bench_full_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("place_full");
    group.sample_size(10);
    for cells in [250usize, 1_000] {
        let netlist = netlist_of(&SynthConfig::named("b", cells, cells as f64 * 5.0e-12));
        group.bench_with_input(BenchmarkId::from_parameter(cells), &netlist, |b, n| {
            b.iter(|| black_box(Placer::new(PlacerConfig::new(4)).place(n).expect("places")))
        });
    }
    group.finish();
}

fn bench_global_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_place");
    group.sample_size(10);
    for cells in [1_000usize, 4_000] {
        let netlist = netlist_of(&SynthConfig::named("b", cells, cells as f64 * 5.0e-12));
        let config = PlacerConfig::new(4);
        let chip = Chip::from_netlist(&netlist, &config).expect("valid");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("valid");
        group.bench_with_input(
            BenchmarkId::from_parameter(cells),
            &(netlist, chip, model, config),
            |b, (netlist, chip, model, config)| {
                b.iter(|| black_box(global_place(netlist, chip, model, config, &[], false, None).0))
            },
        );
    }
    group.finish();
}

fn bench_thermal_pipeline(c: &mut Criterion) {
    let netlist = netlist_of(&SynthConfig::named("b", 1_000, 5.0e-9));
    let mut group = c.benchmark_group("place_thermal");
    group.sample_size(10);
    group.bench_function("1000_cells_alpha_temp_1e-5", |b| {
        b.iter(|| {
            black_box(
                Placer::new(PlacerConfig::new(4).with_alpha_temp(1.0e-5))
                    .place(&netlist)
                    .expect("places"),
            )
        })
    });
    group.finish();
}

/// The full pipeline at a few worker-thread counts. The placement is
/// identical at every count (see DESIGN.md, threading model); only the
/// wall clock changes, and only on multi-core hardware.
fn bench_pipeline_threads(c: &mut Criterion) {
    let netlist = netlist_of(&SynthConfig::named("b", 1_000, 5.0e-9));
    let mut group = c.benchmark_group("place_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        Placer::new(
                            PlacerConfig::new(4)
                                .with_partition_starts(4)
                                .with_threads(threads),
                        )
                        .place(&netlist)
                        .expect("places"),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_full_pipeline,
    bench_global_stage,
    bench_thermal_pipeline,
    bench_pipeline_threads
);
criterion_main!(benches);
