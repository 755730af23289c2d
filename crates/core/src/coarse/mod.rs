//! Coarse legalization (paper §4): cell shifting for spreading plus
//! objective-driven moves and swaps, interleaved per §6.
//!
//! Every step prices the full Eq. 3 objective — WL, α_ILV·ILV and, with
//! `alpha_temp > 0`, the thermal term — and runs on one engine in both
//! modes: moves/swaps on the batched propose/commit passes (DESIGN.md
//! §16) and shifting on the row-parallel plan/commit sweeps (§17), each
//! proposing against a [`FrozenPricer`](crate::objective::FrozenPricer)
//! snapshot and committing serially, so results are bitwise identical at
//! every thread count.

pub mod mesh;
pub mod moves;
pub mod shift;

pub use mesh::DensityMesh;

use crate::objective::IncrementalObjective;
use crate::observer::PassEvent;
use crate::thermal_pricer::ThermalMovePricer;
use crate::{Chip, PlacerConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::ControlFlow;
use tvp_netlist::Netlist;

/// Runs the full coarse-legalization stage (§6 ordering): global
/// moves/swaps, local moves/swaps, then cell shifting until the maximum
/// bin density falls below the configured target.
///
/// An armed `pricer` (compact tier + `alpha_temp > 0`) adds the
/// frozen-field thermal term to every move/swap candidate's delta
/// (DESIGN.md §14); `None` prices moves by the objective alone. After
/// every moves pass and every shifting phase the `probe` receives a
/// [`PassEvent`] and may return [`ControlFlow::Break`] to stop the stage
/// at that boundary; a probe that always continues never changes the
/// moves the stage makes.
///
/// Returns the mesh in its final state, so detailed legalization can
/// reuse the density information, plus whether the probe interrupted
/// the stage.
pub fn coarse_legalize(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    config: &PlacerConfig,
    mut pricer: Option<&mut ThermalMovePricer>,
    probe: &mut dyn FnMut(PassEvent) -> ControlFlow<()>,
) -> (DensityMesh, bool) {
    let mut mesh = DensityMesh::coarse(chip);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xC0A5_E5EE);

    // Global placement leaves each leaf region's cells stacked on one
    // point. Cell shifting maps coordinates linearly, so exactly coincident
    // cells could never separate; a deterministic sub-bin jitter breaks the
    // ties (and perturbs the objective by at most a bin diagonal per cell).
    jitter(objective, netlist, chip, &mut rng);
    mesh.rebuild(netlist, objective.placement());

    for pass in 0..config.coarse_move_passes {
        let mut improved = moves::global_pass(
            objective,
            &mut mesh,
            netlist,
            chip,
            config.coarse_target_region_bins,
            &mut rng,
            pricer.as_deref_mut(),
        );
        improved += moves::local_pass(
            objective,
            &mut mesh,
            netlist,
            chip,
            &mut rng,
            pricer.as_deref_mut(),
        );
        if probe(PassEvent::CoarseMoves {
            pass,
            improved,
            objective: objective.total(),
        })
        .is_break()
        {
            return (mesh, true);
        }
    }

    let (iterations, interrupted) = shift::shift_until_spread(
        objective,
        &mut mesh,
        netlist,
        chip,
        config.coarse_max_density,
        config.coarse_shift_iterations,
        config.shift_strategy,
        probe,
    );
    if interrupted
        || probe(PassEvent::CoarseShift {
            iterations,
            max_density: mesh.max_density(),
            objective: objective.total(),
        })
        .is_break()
    {
        return (mesh, true);
    }

    // One final local cleanup now that densities are even.
    let improved = moves::local_pass(objective, &mut mesh, netlist, chip, &mut rng, pricer);
    if probe(PassEvent::CoarseMoves {
        pass: config.coarse_move_passes,
        improved,
        objective: objective.total(),
    })
    .is_break()
    {
        return (mesh, true);
    }
    // Moves may have re-congested isolated bins; restore the density
    // guarantee detailed legalization relies on.
    let (iterations, interrupted) = shift::shift_until_spread(
        objective,
        &mut mesh,
        netlist,
        chip,
        config.coarse_max_density,
        config.coarse_shift_iterations,
        config.shift_strategy,
        probe,
    );
    if interrupted {
        return (mesh, true);
    }
    let _ = probe(PassEvent::CoarseShift {
        iterations,
        max_density: mesh.max_density(),
        objective: objective.total(),
    });
    (mesh, false)
}

/// Displaces every movable cell by a small random offset (within one bin)
/// so no two cells share an exact position.
fn jitter(
    objective: &mut IncrementalObjective<'_>,
    netlist: &Netlist,
    chip: &Chip,
    rng: &mut SmallRng,
) {
    use rand::RngExt;
    let dx_max = chip.avg_cell_width;
    let dy_max = chip.row_pitch;
    for (cell, _) in netlist.iter_cells() {
        if !netlist.cell(cell).is_movable() {
            continue;
        }
        let (x, y, layer) = objective.placement().position(cell);
        let nx = x + rng.random_range(-dx_max..dx_max);
        let ny = y + rng.random_range(-dy_max..dy_max);
        let (nx, ny) = chip.clamp(nx, ny);
        objective.apply_move(cell, nx, ny, layer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::global_place;
    use crate::objective::ObjectiveModel;
    use tvp_bookshelf::synth::{generate, SynthConfig};

    #[test]
    fn coarse_stage_spreads_global_placement() {
        let netlist = generate(&SynthConfig::named("t", 400, 2.0e-9)).unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = global_place(&netlist, &chip, &model, &config, &[], false, None).0;
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);

        let mut initial_mesh = DensityMesh::coarse(&chip);
        initial_mesh.rebuild(&netlist, objective.placement());
        let density_before = initial_mesh.max_density();

        let (mesh, _) =
            coarse_legalize(&mut objective, &netlist, &chip, &config, None, &mut |_| {
                ControlFlow::Continue(())
            });

        assert!(
            mesh.max_density() < density_before,
            "coarse legalization must reduce congestion: {} → {}",
            density_before,
            mesh.max_density()
        );
        assert!(
            mesh.max_density() <= config.coarse_max_density * 2.0,
            "max density {} far above target",
            mesh.max_density()
        );
        assert!(objective.placement().find_out_of_bounds(&chip).is_none());
        let scratch = objective.recompute_total();
        assert!((objective.total() - scratch).abs() < 1e-9 * scratch.max(1e-12));
    }
}
