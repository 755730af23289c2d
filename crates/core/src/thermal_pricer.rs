//! Frozen-field per-move thermal pricing (DESIGN.md §14).
//!
//! When a stage's thermal tier is [`ThermalTier::Compact`] and
//! `alpha_temp > 0`, the legalization move loops add a thermal term to
//! every candidate's objective delta, on top of the Eq. 3 thermal term
//! the objective itself prices. The term is priced against a *frozen*
//! temperature field: the compact model evaluates the field once per
//! stage (microseconds), each candidate costs two O(1) field probes, and
//! every committed move re-superposes the moved cell's power so the
//! cached field tracks the placement without re-evaluating.
//!
//! Pricing only samples the field (`&self`; the observability tally is
//! atomic), so the coarse batched passes share one pricer across their
//! phase-A workers — each pricing with the snapshot's cell powers
//! ([`FrozenPricer::cell_power`]) — and re-price plus commit against the
//! live field in their serial phase B (DESIGN.md §16).
//!
//! The price of moving cell `j` from position `s` to position `d` is
//!
//! ```text
//! α_TEMP · (P_j / P̄) · (T(d) − T(s))
//! ```
//!
//! meters of wirelength-equivalent: `α_TEMP` (m/K) converts kelvins to
//! the objective's unit, and the `P_j / P̄` weight (cell power over the
//! mean cell power at the last refresh) makes relocating *hot* cells into
//! cool regions worth more than shuffling cold ones — exactly the
//! gradient the superposed field assigns them. For a swap the two
//! single-cell prices add; with equal weights they would cancel (the
//! frozen field is position-symmetric), so the power weighting is what
//! lets swaps see temperature at all.
//!
//! **`cell_power` maintenance contract** (see
//! [`IncrementalObjective::cell_power`]): the cached per-cell powers read
//! here are maintained incrementally only while the thermal objective
//! term is active (`alpha_temp > 0`). The pricer is only constructed
//! under that same condition, so every power it reads — at pricing and at
//! commit — is current.
//!
//! [`ThermalTier::Compact`]: tvp_thermal::ThermalTier::Compact
//! [`FrozenPricer::cell_power`]: crate::objective::FrozenPricer::cell_power

use crate::metrics::build_power_map;
use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::{Chip, PlaceError};
use std::sync::atomic::{AtomicU64, Ordering};
use tvp_netlist::Netlist;
use tvp_thermal::{CompactModel, TemperatureField, ThermalOracle};

/// Per-move thermal pricing against a compact-model frozen field.
///
/// Opaque outside this crate: only the placement engine builds and arms
/// one, so the legalization entry points' `pricer` argument is always
/// `None` for external callers.
#[derive(Debug)]
pub struct ThermalMovePricer {
    model: CompactModel,
    field: Option<TemperatureField>,
    alpha_temp: f64,
    /// Mean cell power at the last refresh (the `P̄` of the weight);
    /// zero disables pricing until the next refresh.
    mean_power: f64,
    width: f64,
    depth: f64,
    /// Candidate prices computed since construction (observability).
    /// Atomic so phase-A workers can price through a shared reference;
    /// a sum, so the count is the same at every thread count.
    priced: AtomicU64,
    /// Committed field updates since construction (observability).
    pub(crate) committed: u64,
}

impl Clone for ThermalMovePricer {
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone(),
            field: self.field.clone(),
            priced: AtomicU64::new(self.priced.load(Ordering::Relaxed)),
            ..*self
        }
    }
}

impl ThermalMovePricer {
    /// Creates an inactive pricer; [`refresh`](Self::refresh) arms it.
    pub(crate) fn new(model: CompactModel, alpha_temp: f64) -> Self {
        let (width, depth) = model.footprint();
        Self {
            model,
            field: None,
            alpha_temp,
            mean_power: 0.0,
            width,
            depth,
            priced: AtomicU64::new(0),
            committed: 0,
        }
    }

    /// Re-grounds the frozen field on the current placement: deposits
    /// every cell's power at compact resolution and evaluates the model.
    ///
    /// # Errors
    ///
    /// Propagates a power-map/model dimension mismatch (a construction
    /// bug, never expected at runtime).
    pub(crate) fn refresh(
        &mut self,
        netlist: &Netlist,
        chip: &Chip,
        model: &ObjectiveModel,
        objective: &IncrementalObjective<'_>,
    ) -> Result<(), PlaceError> {
        let mut power_map = build_power_map(netlist, chip, model, objective, &self.model);
        power_map.sanitize();
        let total = power_map.total();
        let n_cells = objective.placement().len().max(1);
        self.mean_power = total / n_cells as f64;
        self.field = Some(self.model.evaluate(&power_map)?);
        Ok(())
    }

    /// Candidate prices computed since construction (observability).
    #[cfg(test)]
    pub(crate) fn priced(&self) -> u64 {
        self.priced.load(Ordering::Relaxed)
    }

    /// Whether the pricer has a field to price against.
    pub(crate) fn armed(&self) -> bool {
        self.field.is_some() && self.mean_power > 0.0
    }

    /// The thermal delta (meters of wirelength-equivalent) of moving a
    /// cell with power `watts` from `from` to `to` on the frozen field.
    /// Zero until armed. Only samples the field, so phase-A workers
    /// share one pricer.
    pub(crate) fn price(&self, watts: f64, from: (f64, f64, u16), to: (f64, f64, u16)) -> f64 {
        if !self.armed() || watts <= 0.0 {
            return 0.0;
        }
        let Some(field) = self.field.as_ref() else {
            return 0.0;
        };
        self.priced.fetch_add(1, Ordering::Relaxed);
        let t_from = field.sample(from.0, from.1, from.2 as usize, self.width, self.depth);
        let t_to = field.sample(to.0, to.1, to.2 as usize, self.width, self.depth);
        self.alpha_temp * (watts / self.mean_power) * (t_to - t_from)
    }

    /// The thermal delta of swapping two cells' positions (each cell
    /// priced at the other's position).
    pub(crate) fn price_swap(
        &self,
        watts_a: f64,
        pos_a: (f64, f64, u16),
        watts_b: f64,
        pos_b: (f64, f64, u16),
    ) -> f64 {
        self.price(watts_a, pos_a, pos_b) + self.price(watts_b, pos_b, pos_a)
    }

    /// Commits a move to the frozen field: the cell's power is removed at
    /// `from` and re-superposed at `to`, two kernel accumulations.
    pub(crate) fn commit(&mut self, watts: f64, from: (f64, f64, u16), to: (f64, f64, u16)) {
        let Some(field) = &mut self.field else {
            return;
        };
        if watts <= 0.0 {
            return;
        }
        self.committed += 1;
        self.model
            .add_point_source(field, from.0, from.1, from.2 as usize, -watts);
        self.model
            .add_point_source(field, to.0, to.1, to.2 as usize, watts);
    }

    /// Commits a position swap of two cells.
    pub(crate) fn commit_swap(
        &mut self,
        watts_a: f64,
        pos_a: (f64, f64, u16),
        watts_b: f64,
        pos_b: (f64, f64, u16),
    ) {
        self.commit(watts_a, pos_a, pos_b);
        self.commit(watts_b, pos_b, pos_a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chip, Placement, PlacerConfig};
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_thermal::{CompactModel, Preconditioner, ThermalSimulator};

    fn pricer_fixture() -> (
        Netlist,
        Chip,
        PlacerConfig,
        ObjectiveModel,
        ThermalMovePricer,
    ) {
        let netlist = generate(&SynthConfig::named("t", 150, 7.5e-10)).unwrap();
        let config = PlacerConfig::new(4).with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let sim = ThermalSimulator::new(chip.stack, chip.width, chip.depth, 8, 8).unwrap();
        let (compact, _) = CompactModel::fit(&sim, Preconditioner::default()).unwrap();
        let pricer = ThermalMovePricer::new(compact, config.alpha_temp);
        (netlist, chip, config, model, pricer)
    }

    #[test]
    fn unarmed_pricer_prices_everything_at_zero() {
        let (_, chip, _, _, pricer) = pricer_fixture();
        assert!(!pricer.armed());
        let p = pricer.price(1.0, (0.0, 0.0, 0), (chip.width, chip.depth, 3));
        assert_eq!(p, 0.0);
        assert_eq!(pricer.priced(), 0);
    }

    #[test]
    fn moving_power_toward_the_hotspot_costs_and_back_saves() {
        let (netlist, chip, _, model, mut pricer) = pricer_fixture();
        // Pile every cell into one corner of the top layer: a hotspot.
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                tvp_netlist::CellId::new(i),
                0.05 * chip.width,
                0.05 * chip.depth,
                3,
            );
        }
        let objective = IncrementalObjective::new(&netlist, &model, placement);
        pricer.refresh(&netlist, &chip, &model, &objective).unwrap();
        assert!(pricer.armed());

        let hot = (0.05 * chip.width, 0.05 * chip.depth, 3u16);
        let cool = (0.95 * chip.width, 0.95 * chip.depth, 0u16);
        let w = 1.0e-4;
        let away = pricer.price(w, hot, cool);
        let toward = pricer.price(w, cool, hot);
        assert!(away < 0.0, "leaving the hotspot must be priced negative");
        assert!((away + toward).abs() < 1e-18, "pricing is antisymmetric");
        // Hotter cells pay proportionally more.
        let away2 = pricer.price(2.0 * w, hot, cool);
        assert!((away2 - 2.0 * away).abs() <= 1e-12 * away.abs());
        assert_eq!(pricer.priced(), 3);
    }

    #[test]
    fn commit_keeps_field_consistent_with_fresh_refresh() {
        let (netlist, chip, _, model, mut pricer) = pricer_fixture();
        let mut placement = Placement::centered(netlist.num_cells(), &chip);
        for i in 0..netlist.num_cells() {
            placement.set(
                tvp_netlist::CellId::new(i),
                (i as f64 / netlist.num_cells() as f64) * chip.width,
                chip.depth / 2.0,
                (i % 4) as u16,
            );
        }
        let mut objective = IncrementalObjective::new(&netlist, &model, placement);
        pricer.refresh(&netlist, &chip, &model, &objective).unwrap();

        // Move one powered cell across the chip; commit the relocation.
        let cell = (0..netlist.num_cells())
            .map(tvp_netlist::CellId::new)
            .find(|&c| objective.cell_power(c) > 0.0)
            .expect("synthetic netlists always have driving cells");
        let from = objective.placement().position(cell);
        let to = (0.9 * chip.width, 0.9 * chip.depth, 2u16);
        let watts = objective.cell_power(cell);
        objective.apply_move(cell, to.0, to.1, to.2);
        pricer.commit(watts, from, to);

        // An independently refreshed pricer on the moved placement must
        // agree closely (only the moved cell's power changed through the
        // geometry change of its nets).
        let mut fresh = pricer.clone();
        fresh.refresh(&netlist, &chip, &model, &objective).unwrap();
        let probe = (0.9 * chip.width, 0.9 * chip.depth, 2u16);
        let a = pricer.field.as_ref().unwrap().sample(
            probe.0,
            probe.1,
            probe.2 as usize,
            chip.width,
            chip.depth,
        );
        let b = fresh.field.as_ref().unwrap().sample(
            probe.0,
            probe.1,
            probe.2 as usize,
            chip.width,
            chip.depth,
        );
        let scale = b.abs().max(1e-12);
        assert!(
            (a - b).abs() / scale < 0.05,
            "committed field drifted from fresh evaluation: {a} vs {b}"
        );
        assert_eq!(pricer.committed, 1);
    }
}
