//! Parallel-vs-serial equivalence properties over small random designs.
//!
//! The threading contract (see DESIGN.md): work decomposition is a pure
//! function of problem size, never thread count, and reductions fold
//! chunk partials in chunk order — so the full pipeline produces the
//! same placement for every `threads` setting, and floating-point
//! aggregates agree to ~1e-9 relative (≤1e-6 once amplified through a
//! CG solve). These properties pin that contract against randomly
//! generated designs rather than a single hand-picked fixture.

use proptest::prelude::*;
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::netweight::NetWeights;
use tvp_core::objective::{IncrementalObjective, ObjectiveModel};
use tvp_core::{Chip, Placement, Placer, PlacerConfig, ThermalTier};
use tvp_netlist::Netlist;

fn random_design(cells: usize, seed: u64) -> Netlist {
    generate(&SynthConfig::named("eq", cells, cells as f64 * 5.0e-12).with_seed(seed))
        .expect("synthetic design generates")
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The whole pipeline — partition, global placement, legalization,
    /// detailed placement, metrics — yields an identical placement no
    /// matter how many workers run the hot paths. In thermal mode the
    /// coarse stage may also arm the compact-tier per-move pricer
    /// (`--thermal-tier coarse=compact`), whose frozen field phase A
    /// samples in parallel.
    #[test]
    fn pipeline_is_identical_across_thread_counts(
        cells in 60usize..120,
        seed in 0u64..1000,
        thermal in any::<bool>(),
        compact in any::<bool>(),
    ) {
        let netlist = random_design(cells, seed);
        let alpha_temp = if thermal { 1.0e-4 } else { 0.0 };
        let place = |threads: usize| {
            let mut config = PlacerConfig::new(4)
                .with_alpha_ilv(1.0e-5)
                .with_alpha_temp(alpha_temp)
                .with_threads(threads);
            if compact {
                config = config.with_thermal_tier("coarse", ThermalTier::Compact);
            }
            Placer::new(config)
                .place(&netlist)
                .expect("placement succeeds")
        };
        let serial = place(1);
        for threads in [2usize, 4] {
            let parallel = place(threads);
            for i in 0..netlist.num_cells() {
                let cell = tvp_netlist::CellId::new(i);
                prop_assert_eq!(
                    serial.placement.position(cell),
                    parallel.placement.position(cell),
                    "cell {} diverged at threads={}", i, threads
                );
            }
            prop_assert_eq!(serial.metrics.wirelength, parallel.metrics.wirelength);
            prop_assert_eq!(serial.metrics.ilv_count, parallel.metrics.ilv_count);
            // Temperatures pass through a CG solve, which amplifies the
            // reordered-reduction noise; identical placements still must
            // agree to 1e-6 relative.
            prop_assert!(rel_close(
                serial.metrics.avg_temperature,
                parallel.metrics.avg_temperature,
                1e-6
            ));
        }
    }

    /// A full objective rebuild reduces per-net contributions in chunk
    /// order, so the parallel total matches the serial one to 1e-9.
    #[test]
    fn objective_rebuild_matches_serial(
        cells in 80usize..300,
        seed in 0u64..1000,
    ) {
        let netlist = random_design(cells, seed);
        let config = PlacerConfig::new(4).with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");
        let placement = Placement::centered(netlist.num_cells(), &chip);

        let total_at = |threads: usize| {
            tvp_parallel::with_threads(threads, || {
                let mut objective =
                    IncrementalObjective::new(&netlist, &model, placement.clone());
                objective.rebuild();
                (objective.total(), objective.total_wirelength(), objective.total_ilv())
            })
        };
        let (t1, wl1, ilv1) = total_at(1);
        for threads in [2usize, 4] {
            let (t, wl, ilv) = total_at(threads);
            prop_assert!(rel_close(t, t1, 1e-9), "total {} vs {}", t, t1);
            prop_assert!(rel_close(wl, wl1, 1e-9));
            prop_assert!(rel_close(ilv, ilv1, 1e-9));
        }
    }

    /// The row-parallel cell-shifting engine plans rows in chunks whose
    /// boundaries depend only on the row count and commits them in fixed
    /// row order, so spreading a random congested placement is bitwise
    /// identical at any thread count — in thermal mode too, where the
    /// Eq. 17 pricing includes the snapshot's thermal term.
    #[test]
    fn shift_passes_match_serial(
        cells in 150usize..400,
        seed in 0u64..1000,
        spread in 0.05f64..0.4,
        thermal in any::<bool>(),
    ) {
        use std::ops::ControlFlow;
        use tvp_core::coarse::shift::shift_until_spread;
        use tvp_core::coarse::DensityMesh;
        use tvp_core::ShiftStrategy;
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};

        let netlist = random_design(cells, seed);
        let config = PlacerConfig::new(2).with_alpha_temp(if thermal { 1.0e-4 } else { 0.0 });
        let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");
        // A random pile of tunable tightness around the chip center, so
        // every case exercises a different mesh/congestion shape.
        let mut prng = SmallRng::seed_from_u64(seed ^ 0x5417);
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                tvp_netlist::CellId::new(i),
                chip.width * prng.random_range(0.5 - spread..0.5 + spread),
                chip.depth * prng.random_range(0.5 - spread..0.5 + spread),
                (i % 2) as u16,
            );
        }
        let run = |threads: usize| {
            tvp_parallel::with_threads(threads, || {
                let mut objective =
                    IncrementalObjective::new(&netlist, &model, placement.clone());
                let mut mesh = DensityMesh::coarse(&chip);
                mesh.rebuild(&netlist, objective.placement());
                let iters = shift_until_spread(
                    &mut objective,
                    &mut mesh,
                    &netlist,
                    &chip,
                    1.10,
                    50,
                    ShiftStrategy::WholeRow,
                    &mut |_| ControlFlow::Continue(()),
                )
                .0;
                (objective.placement().clone(), iters, objective.total())
            })
        };
        let (serial, serial_iters, serial_total) = run(1);
        for threads in [2usize, 4] {
            let (parallel, iters, total) = run(threads);
            prop_assert_eq!(serial_iters, iters, "pass count diverged at threads={}", threads);
            prop_assert_eq!(serial_total.to_bits(), total.to_bits(), "objective diverged");
            for i in 0..netlist.num_cells() {
                let cell = tvp_netlist::CellId::new(i);
                prop_assert_eq!(
                    serial.position(cell),
                    parallel.position(cell),
                    "cell {} diverged at threads={}", i, threads
                );
            }
        }
    }

    /// Thermal net weights are computed per net from shared read-only
    /// state; every weight matches the serial value exactly.
    #[test]
    fn netweights_match_serial(
        cells in 80usize..300,
        seed in 0u64..1000,
    ) {
        let netlist = random_design(cells, seed);
        let config = PlacerConfig::new(4).with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).expect("chip fits");
        let model = ObjectiveModel::new(&netlist, &chip, &config).expect("model builds");
        let placement = Placement::centered(netlist.num_cells(), &chip);

        let serial = tvp_parallel::with_threads(1, || {
            NetWeights::thermal(&netlist, &model, &placement)
        });
        for threads in [2usize, 4] {
            let parallel = tvp_parallel::with_threads(threads, || {
                NetWeights::thermal(&netlist, &model, &placement)
            });
            for e in 0..netlist.num_nets() {
                let net = tvp_netlist::NetId::new(e);
                prop_assert_eq!(
                    serial.lateral(net),
                    parallel.lateral(net),
                    "net {} lateral diverged at threads={}", e, threads
                );
                prop_assert_eq!(
                    serial.vertical(net),
                    parallel.vertical(net),
                    "net {} vertical diverged at threads={}", e, threads
                );
            }
        }
    }
}
