//! The stage engine: the §6 pipeline as a data-driven stage sequence
//! executed by an observable, cancellable, resumable driver (DESIGN.md
//! §9).
//!
//! A [`Stage`] transforms the placement held by a shared
//! [`PlacerContext`]; the driver owns everything cross-cutting: event
//! emission ([`PlacerObserver`]), stop conditions (cancellation token +
//! time budget, checked at stage/pass boundaries), per-stage timing
//! (including per-round breakdown), thermal snapshots through one
//! warm-started CG context, and stage-boundary checkpoints.
//!
//! The default plan is `global`, then `coarse[r]`/`detail[r]` for round
//! `r` in `0..=post_opt_rounds`. With no observer, budget, or
//! checkpointing configured, the driver executes exactly the historical
//! call sequence, so default-path placements are bitwise identical to the
//! pre-engine pipeline.

use crate::checkpoint::{self, CheckpointLoad};
use crate::coarse::coarse_legalize;
use crate::config::ThermalTierPolicy;
use crate::control::StopCheck;
use crate::detail::{check_legal, detail_legalize, refine_legal, LegalizeStats};
use crate::faults::{Degradation, FaultKind, FaultPlan};
use crate::metrics::{self, ThermalGuard};
use crate::objective::{IncrementalObjective, ObjectiveModel};
use crate::observer::{NopObserver, PassEvent, PlacerEvent, PlacerObserver};
use crate::placer::{PlaceOptions, PlacementResult, RoundTiming, StageTimings, ThermalSnapshot};
use crate::thermal_pricer::ThermalMovePricer;
use crate::{Chip, PlaceError, Placement, PlacerConfig};
use std::ops::ControlFlow;
use std::path::Path;
use std::time::{Duration, Instant};
use tvp_netlist::{CellId, Netlist};
use tvp_thermal::{
    CompactModel, GridOracle, TemperatureField, ThermalOracle, ThermalSimulator, ThermalTier,
};

/// Wall-clock stall injected by [`FaultKind::SlowStage`] at the keyed
/// stage's begin. Long enough that supervisors can observe (and kill) a
/// run inside the stage, short enough for test suites; placement bits
/// are never affected.
pub const SLOW_STAGE_DELAY: Duration = Duration::from_millis(250);

/// Which part of the §6 pipeline a stage implements. The driver uses the
/// kind to route timings (totals + per-round) and thermal snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageKind {
    /// Recursive-bisection global placement.
    Global,
    /// Coarse legalization round `round`.
    Coarse {
        /// Optimization round, from 0.
        round: usize,
    },
    /// Detailed legalization (+ legality-preserving refinement) round
    /// `round`.
    Detail {
        /// Optimization round, from 0.
        round: usize,
    },
}

/// How a stage ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StageStatus {
    /// The stage ran to completion.
    Completed,
    /// The stage stopped early at a cancellation point. The driver stops
    /// the pipeline (after restoring legality if needed).
    Interrupted,
}

/// Everything a stage may read or transform, shared across the pipeline.
pub struct PlacerContext<'a> {
    /// The netlist being placed.
    pub netlist: &'a Netlist,
    /// Chip geometry derived from the netlist and configuration.
    pub chip: &'a Chip,
    /// The run's configuration.
    pub config: &'a PlacerConfig,
    /// Static objective model (coefficients, power, resistance).
    pub model: &'a ObjectiveModel,
    /// The placement under construction, behind its incremental
    /// objective evaluator.
    pub objective: IncrementalObjective<'a>,
    /// Fixed-cell seeds (pads, macros) for global placement.
    pub fixed_positions: &'a [(CellId, f64, f64, u16)],
    /// Statistics of the most recent detailed legalization.
    pub legalize: LegalizeStats,
    /// Whether the current placement is row-legal (true right after a
    /// detail stage).
    pub legal: bool,
    /// Per-move thermal pricer, present only when a stage's tier is
    /// [`ThermalTier::Compact`] and `alpha_temp > 0` (DESIGN.md §14).
    pricer: Option<ThermalMovePricer>,
    /// The run's fault plan, if one was attached (consumed as it fires).
    faults: Option<FaultPlan>,
    /// Every graceful degradation recorded so far.
    degradations: Vec<Degradation>,
    /// Fault/degradation events awaiting delivery to the observer (the
    /// driver flushes these at stage boundaries).
    pending_events: Vec<PlacerEvent>,
}

impl PlacerContext<'_> {
    /// Whether the attached [`FaultPlan`] wants fault `kind` injected at
    /// `site` (always `false` without a plan). A firing fault is reported
    /// to the observer as [`PlacerEvent::FaultInjected`].
    pub fn fire_fault(&mut self, kind: FaultKind, site: &str) -> bool {
        let fired = self
            .faults
            .as_mut()
            .is_some_and(|plan| plan.should_fire(kind, site));
        if fired {
            self.pending_events.push(PlacerEvent::FaultInjected {
                kind: kind.as_str().to_string(),
                site: site.to_string(),
            });
        }
        fired
    }

    /// Records one graceful degradation: it lands in
    /// [`PlacementResult::degradations`](crate::PlacementResult) and is
    /// reported to the observer as [`PlacerEvent::Degraded`].
    pub fn record_degradation(&mut self, degradation: Degradation) {
        self.pending_events.push(PlacerEvent::Degraded {
            kind: degradation.kind().to_string(),
            detail: degradation.detail(),
        });
        self.degradations.push(degradation);
    }

    /// Degradations recorded so far, in order.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }
}

/// Delivers any queued fault/degradation events to the observer.
fn flush_events(ctx: &mut PlacerContext<'_>, observer: &mut dyn PlacerObserver) {
    if observer.enabled() {
        for event in ctx.pending_events.drain(..) {
            observer.event(&event);
        }
    } else {
        ctx.pending_events.clear();
    }
}

/// The driver-provided handle a stage reports progress through. Each
/// [`pass`](Self::pass) call is also a cancellation point: a
/// [`ControlFlow::Break`] return asks the stage to stop at this boundary
/// and return [`StageStatus::Interrupted`].
pub struct StageMonitor<'m> {
    observer: &'m mut (dyn PlacerObserver + 'm),
    stop: &'m StopCheck,
    index: usize,
    stage: &'m str,
}

impl StageMonitor<'_> {
    /// Reports one pass-boundary event and polls the stop conditions.
    pub fn pass(&mut self, pass: PassEvent) -> ControlFlow<()> {
        if self.observer.enabled() {
            self.observer.event(&PlacerEvent::Pass {
                index: self.index,
                stage: self.stage.to_string(),
                pass,
            });
        }
        if self.stop.should_stop() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// A clone of the run's stop conditions for stages that hand
    /// cancellation down into parallel kernels, or `None` when no stop
    /// condition is armed (the kernels then skip polling entirely).
    pub(crate) fn armed_stop(&self) -> Option<StopCheck> {
        self.stop.is_armed().then(|| self.stop.clone())
    }
}

/// One pipeline stage. Implementations transform `ctx.objective` and
/// report progress (and honor cancellation) through the monitor.
pub trait Stage {
    /// Display name, unique within a plan (e.g. `coarse[1]`).
    fn name(&self) -> String;

    /// The stage's pipeline role.
    fn kind(&self) -> StageKind;

    /// Runs the stage.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] only for non-recoverable failures;
    /// cancellation is *not* an error (return
    /// [`StageStatus::Interrupted`]).
    fn run(
        &self,
        ctx: &mut PlacerContext<'_>,
        monitor: &mut StageMonitor<'_>,
    ) -> Result<StageStatus, PlaceError>;
}

/// Recursive-bisection global placement (§3).
struct GlobalStage;

impl Stage for GlobalStage {
    fn name(&self) -> String {
        "global".to_string()
    }

    fn kind(&self) -> StageKind {
        StageKind::Global
    }

    fn run(
        &self,
        ctx: &mut PlacerContext<'_>,
        monitor: &mut StageMonitor<'_>,
    ) -> Result<StageStatus, PlaceError> {
        // The imbalance fault targets the root bisection only: level 0
        // has exactly one region, so the injection is deterministic under
        // any thread count.
        let inject = ctx.fire_fault(FaultKind::PartitionImbalance, "global");
        // Hand the run's stop conditions down into the bisection kernels:
        // an expired time budget or a cancelled token is then noticed
        // mid-FM-pass (every ~1k heap pops) instead of only at the stage
        // boundary. Unarmed runs pass `None`, keeping the hot loops
        // poll-free and the placement bitwise identical to history.
        let stop_fn = monitor
            .armed_stop()
            .map(|check| move || check.should_stop());
        let stop = stop_fn.as_ref().map(|f| f as &tvp_partition::StopFn);
        let (placement, stats) = crate::global::global_place(
            ctx.netlist,
            ctx.chip,
            ctx.model,
            ctx.config,
            ctx.fixed_positions,
            inject,
            stop,
        );
        let interrupted = stop.is_some_and(|s| s());
        if stats.partition_retries > 0 {
            ctx.record_degradation(Degradation::PartitionRetried {
                retries: stats.partition_retries,
            });
        }
        ctx.objective = IncrementalObjective::new(ctx.netlist, ctx.model, placement);
        ctx.legal = false;
        Ok(if interrupted {
            StageStatus::Interrupted
        } else {
            StageStatus::Completed
        })
    }
}

/// Coarse legalization (§4): moves/swaps + cell shifting.
struct CoarseStage {
    round: usize,
}

impl Stage for CoarseStage {
    fn name(&self) -> String {
        format!("coarse[{}]", self.round)
    }

    fn kind(&self) -> StageKind {
        StageKind::Coarse { round: self.round }
    }

    fn run(
        &self,
        ctx: &mut PlacerContext<'_>,
        monitor: &mut StageMonitor<'_>,
    ) -> Result<StageStatus, PlaceError> {
        ctx.legal = false;
        // Arm per-move thermal pricing for this stage when its tier is
        // compact: the frozen field is re-grounded on the placement the
        // stage starts from.
        let priced = ctx.config.thermal_tiers.coarse == ThermalTier::Compact;
        if priced {
            if let Some(pricer) = ctx.pricer.as_mut() {
                pricer.refresh(ctx.netlist, ctx.chip, ctx.model, &ctx.objective)?;
            }
        }
        let (_, interrupted) = coarse_legalize(
            &mut ctx.objective,
            ctx.netlist,
            ctx.chip,
            ctx.config,
            if priced { ctx.pricer.as_mut() } else { None },
            &mut |p| monitor.pass(p),
        );
        Ok(if interrupted {
            StageStatus::Interrupted
        } else {
            StageStatus::Completed
        })
    }
}

/// Detailed legalization (§5) plus legality-preserving refinement.
struct DetailStage {
    round: usize,
}

impl Stage for DetailStage {
    fn name(&self) -> String {
        format!("detail[{}]", self.round)
    }

    fn kind(&self) -> StageKind {
        StageKind::Detail { round: self.round }
    }

    fn run(
        &self,
        ctx: &mut PlacerContext<'_>,
        monitor: &mut StageMonitor<'_>,
    ) -> Result<StageStatus, PlaceError> {
        // Legalization itself never stops early: it is the step that
        // *creates* the legality every graceful stop relies on.
        ctx.legalize = detail_legalize(
            &mut ctx.objective,
            ctx.netlist,
            ctx.chip,
            ctx.config.detail_row_window,
            &mut |p| monitor.pass(p),
        );
        ctx.legal = true;
        // Refinement prices moves thermally when the detail tier is
        // compact; the field is refreshed *after* legalization because
        // snapping moved every cell.
        let priced = ctx.config.thermal_tiers.detail == ThermalTier::Compact;
        if priced {
            if let Some(pricer) = ctx.pricer.as_mut() {
                pricer.refresh(ctx.netlist, ctx.chip, ctx.model, &ctx.objective)?;
            }
        }
        let (_, interrupted) = refine_legal(
            &mut ctx.objective,
            ctx.netlist,
            ctx.chip,
            ctx.config.legal_refine_passes,
            if priced { ctx.pricer.as_mut() } else { None },
            &mut |p| monitor.pass(p),
        );
        Ok(if interrupted {
            StageStatus::Interrupted
        } else {
            StageStatus::Completed
        })
    }
}

/// The run's thermal-oracle bank (DESIGN.md §14): one oracle per tier
/// the configured [`ThermalTierPolicy`] actually uses. The full-grid
/// oracle always exists — it is the default tier, the fallback for
/// unbuilt tiers, and the reference every cross-model error is measured
/// against. Coarse-grid and compact oracles are built only on demand, so
/// the default (all-full-grid) policy constructs exactly the historical
/// simulator + context pair and nothing else.
struct ThermalOracles {
    tiers: ThermalTierPolicy,
    full: GridOracle,
    coarse: Option<GridOracle>,
    compact: Option<CompactModel>,
}

impl ThermalOracles {
    fn build(config: &PlacerConfig, chip: &Chip) -> Result<Self, PlaceError> {
        let tiers = config.thermal_tiers;
        let (nx, ny) = config.thermal_grid;
        let make_sim = |nx: usize, ny: usize| match &config.stack_layers {
            Some(layers) => ThermalSimulator::with_layers(
                chip.stack,
                layers.clone(),
                chip.width,
                chip.depth,
                nx,
                ny,
            ),
            None => ThermalSimulator::new(chip.stack, chip.width, chip.depth, nx, ny),
        };
        let full = GridOracle::full_grid(make_sim(nx, ny)?, config.thermal_precond);
        let coarse = if tiers.uses(ThermalTier::CoarseGrid) {
            let sim = make_sim((nx / 2).max(2), (ny / 2).max(2))?;
            Some(GridOracle::coarse_grid(sim, config.thermal_precond))
        } else {
            None
        };
        let compact = if tiers.uses(ThermalTier::Compact) {
            // The compact model is fitted in-tree against the multigrid
            // solver at a bounded resolution: kernel superposition is
            // O(grid²) per evaluation, and 16×16 bins already resolve
            // the lateral spreading the kernels model.
            let sim = make_sim(nx.clamp(2, 16), ny.clamp(2, 16))?;
            let (model, _report) = CompactModel::fit(&sim, config.thermal_precond)?;
            Some(model)
        } else {
            None
        };
        Ok(Self {
            tiers,
            full,
            coarse,
            compact,
        })
    }

    /// The tier the policy assigns to a snapshot site.
    fn tier_for(&self, stage: &str) -> ThermalTier {
        match stage {
            "global" => self.tiers.global,
            "coarse" => self.tiers.coarse,
            _ => self.tiers.final_eval,
        }
    }

    /// The oracle for `tier`, falling back to full-grid when the tier
    /// was not built (the policy never requested it).
    fn oracle(&mut self, tier: ThermalTier) -> &mut dyn ThermalOracle {
        match tier {
            ThermalTier::CoarseGrid => {
                if let Some(coarse) = self.coarse.as_mut() {
                    return coarse;
                }
                &mut self.full
            }
            ThermalTier::Compact => {
                if let Some(compact) = self.compact.as_mut() {
                    return compact;
                }
                &mut self.full
            }
            ThermalTier::FullGrid => &mut self.full,
        }
    }
}

/// Builds the default §6 stage plan for a configuration: `global`, then
/// one `coarse`/`detail` pair per optimization round.
pub fn default_stage_plan(config: &PlacerConfig) -> Vec<Box<dyn Stage>> {
    let mut stages: Vec<Box<dyn Stage>> = vec![Box::new(GlobalStage)];
    for round in 0..config.rounds() {
        stages.push(Box::new(CoarseStage { round }));
        stages.push(Box::new(DetailStage { round }));
    }
    stages
}

/// Runs the full pipeline for `config` under the given options.
pub(crate) fn run_pipeline(
    config: &PlacerConfig,
    netlist: &Netlist,
    fixed_positions: &[(CellId, f64, f64, u16)],
    options: &mut PlaceOptions<'_>,
) -> Result<PlacementResult, PlaceError> {
    let start = Instant::now();
    let chip = Chip::from_netlist(netlist, config)?;
    let model = ObjectiveModel::new(netlist, &chip, config)?;

    // One oracle bank for every thermal evaluation of this run: the
    // full-grid oracle owns the historical simulator + warm-started CG
    // context (the preconditioner hierarchy is built once, and each
    // stage's solve warm-starts from the previous stage's field);
    // coarse-grid and compact oracles exist only when the tier policy
    // queries them.
    let mut oracles = ThermalOracles::build(config, &chip)?;
    let pricer = if config.alpha_temp > 0.0
        && (config.thermal_tiers.coarse == ThermalTier::Compact
            || config.thermal_tiers.detail == ThermalTier::Compact)
    {
        oracles
            .compact
            .clone()
            .map(|model| ThermalMovePricer::new(model, config.alpha_temp))
    } else {
        None
    };
    let mut trajectory: Vec<ThermalSnapshot> = Vec::new();

    let stages = default_stage_plan(config);
    let stage_names: Vec<String> = stages.iter().map(|s| s.name()).collect();
    let stop = StopCheck::new(options.cancel.clone(), options.time_budget);

    let mut nop = NopObserver;
    let observer: &mut dyn PlacerObserver = match options.observer.as_deref_mut() {
        Some(o) => o,
        None => &mut nop,
    };

    // Resume from the newest checkpoint when a directory is configured.
    // A damaged checkpoint is quarantined (renamed to `*.corrupt` by the
    // loader) and the run restarts fresh instead of failing.
    let fp = checkpoint::fingerprint(netlist, config);
    let load = match &options.checkpoint_dir {
        Some(dir) => checkpoint::load_latest(dir, netlist, fp, stages.len(), &chip)?,
        None => CheckpointLoad::Fresh,
    };
    let fresh = || (Placement::centered(netlist.num_cells(), &chip), None, false);
    let mut quarantined_note = None;
    let (initial_placement, resumed_index, mut legal) = match load {
        CheckpointLoad::Resume(r) => (r.placement, Some(r.stage_index), r.legal),
        CheckpointLoad::Fresh => fresh(),
        CheckpointLoad::Quarantined {
            quarantined,
            reason,
        } => {
            quarantined_note = Some((quarantined, reason));
            fresh()
        }
    };
    let resumed_from = resumed_index.map(|i| stage_names[i].clone());

    let mut ctx = PlacerContext {
        netlist,
        chip: &chip,
        config,
        model: &model,
        objective: IncrementalObjective::new(netlist, &model, initial_placement),
        fixed_positions,
        legalize: LegalizeStats::default(),
        legal: false,
        pricer,
        faults: options.faults.take(),
        degradations: Vec::new(),
        pending_events: Vec::new(),
    };
    ctx.legal = legal;

    if observer.enabled() {
        observer.event(&PlacerEvent::RunBegin {
            stages: stage_names.clone(),
            resumed_from: resumed_index,
        });
    }
    if let Some((quarantined, reason)) = quarantined_note {
        if observer.enabled() {
            for path in &quarantined {
                observer.event(&PlacerEvent::CheckpointQuarantined {
                    path: path.clone(),
                    reason: reason.clone(),
                });
            }
        }
        ctx.record_degradation(Degradation::CheckpointQuarantined {
            path: quarantined.first().cloned().unwrap_or_default(),
            reason,
        });
        flush_events(&mut ctx, observer);
    }

    let mut timings = StageTimings::default();
    let mut stopped_early = false;

    for (index, stage) in stages.iter().enumerate() {
        let name = &stage_names[index];
        if resumed_index.is_some_and(|r| index <= r) {
            if observer.enabled() {
                observer.event(&PlacerEvent::StageSkipped {
                    index,
                    stage: name.clone(),
                });
            }
            continue;
        }
        if stop.should_stop() {
            stopped_early = true;
            break;
        }
        if observer.enabled() {
            observer.event(&PlacerEvent::StageBegin {
                index,
                stage: name.clone(),
            });
        }
        // Injected stall at stage begin: stretches wall-clock only (for
        // deadline/queue-latency testing); placement arithmetic and the
        // stage's RNG stream are untouched. Deliberately outside the
        // timed region so per-stage timings stay meaningful.
        if ctx.fire_fault(FaultKind::SlowStage, name) {
            flush_events(&mut ctx, observer);
            std::thread::sleep(SLOW_STAGE_DELAY);
        }
        let t = Instant::now();
        let status = {
            let mut monitor = StageMonitor {
                observer,
                stop: &stop,
                index,
                stage: name,
            };
            stage.run(&mut ctx, &mut monitor)?
        };
        flush_events(&mut ctx, observer);
        let elapsed = t.elapsed();
        // Stage boundary: pin the accumulated objective back to a
        // from-scratch recomputation so float round-off from the stage's
        // move sequence never compounds into the next stage (outside the
        // timed region — this is bookkeeping, not stage work).
        ctx.objective.resync_total();
        match stage.kind() {
            StageKind::Global => timings.global += elapsed,
            StageKind::Coarse { round } => {
                timings.coarse += elapsed;
                grow_rounds(&mut timings.rounds, round).coarse += elapsed;
            }
            StageKind::Detail { round } => {
                timings.detail += elapsed;
                grow_rounds(&mut timings.rounds, round).detail += elapsed;
            }
        }
        if observer.enabled() {
            observer.event(&PlacerEvent::StageEnd {
                index,
                stage: name.clone(),
                seconds: elapsed.as_secs_f64(),
                objective: ctx.objective.total(),
                interrupted: status == StageStatus::Interrupted,
            });
        }

        // Thermal snapshots at the historical boundaries: after global
        // placement and after the first coarse round.
        let snapshot_label = match stage.kind() {
            StageKind::Global => Some("global"),
            StageKind::Coarse { round: 0 } => Some("coarse"),
            _ => None,
        };
        if let Some(label) = snapshot_label {
            snapshot(label, &mut ctx, &mut oracles, &mut trajectory, observer)?;
            flush_events(&mut ctx, observer);
        }

        if status == StageStatus::Interrupted {
            stopped_early = true;
            break;
        }

        // Checkpoints cover only *completed* stages, so resuming always
        // restarts from a canonical stage boundary.
        if let Some(dir) = &options.checkpoint_dir {
            // Injected write failure: surfaces as the typed, retryable
            // checkpoint error a supervisor must handle. Fires *before*
            // the write, so a retry resumes from the previous stage's
            // (intact) checkpoint.
            if ctx.fire_fault(FaultKind::CheckpointWriteIo, name) {
                flush_events(&mut ctx, observer);
                return Err(PlaceError::Checkpoint {
                    path: dir.display().to_string(),
                    reason: format!("injected I/O failure writing checkpoint after `{name}`"),
                });
            }
            let path = checkpoint::write_checkpoint(
                dir,
                index,
                name,
                stages.len(),
                ctx.legal,
                netlist,
                ctx.objective.placement(),
                fp,
            )?;
            // Fault injection: damage the just-written checkpoint so a
            // later resume exercises the quarantine path.
            if ctx.fire_fault(FaultKind::CorruptCheckpoint, name) {
                checkpoint::truncate_for_fault(Path::new(&path))?;
            }
            flush_events(&mut ctx, observer);
            if observer.enabled() {
                observer.event(&PlacerEvent::CheckpointWritten {
                    index,
                    stage: name.clone(),
                    path,
                });
            }
        }
    }
    legal = ctx.legal;

    // A graceful stop must still hand back a legal placement: if the
    // pipeline stopped before (or inside) a legalizing stage, run one
    // uncancellable detail pass over the best placement we have.
    if stopped_early && !legal {
        let index = stages.len();
        if observer.enabled() {
            observer.event(&PlacerEvent::StageBegin {
                index,
                stage: "finalize".to_string(),
            });
        }
        let t = Instant::now();
        ctx.legalize = detail_legalize(
            &mut ctx.objective,
            netlist,
            &chip,
            config.detail_row_window,
            &mut |_| ControlFlow::Continue(()),
        );
        refine_legal(
            &mut ctx.objective,
            netlist,
            &chip,
            config.legal_refine_passes,
            None,
            &mut |_| ControlFlow::Continue(()),
        );
        ctx.legal = true;
        let elapsed = t.elapsed();
        ctx.objective.resync_total();
        timings.detail += elapsed;
        if observer.enabled() {
            observer.event(&PlacerEvent::StageEnd {
                index,
                stage: "finalize".to_string(),
                seconds: elapsed.as_secs_f64(),
                objective: ctx.objective.total(),
                interrupted: false,
            });
        }
    }

    if let Some(violation) = check_legal(netlist, &chip, ctx.objective.placement()) {
        return Err(PlaceError::LegalizationFailed { violation });
    }

    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, "final"),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, "final"),
    };
    let final_tier = oracles.tier_for("final");
    let (metrics, outcome, field) = metrics::compute_with_guarded(
        netlist,
        &chip,
        &model,
        &ctx.objective,
        oracles.oracle(final_tier),
        guard,
    )?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: "final".to_string(),
            detail: outcome.describe(),
        });
    }
    let (cross_max, cross_avg) = cross_errors(&ctx, &mut oracles, final_tier, &field)?;
    flush_events(&mut ctx, observer);
    let final_snapshot = ThermalSnapshot {
        stage: "final",
        tier: final_tier.as_str(),
        avg_temperature: metrics.avg_temperature,
        max_temperature: metrics.max_temperature,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
        cross_model_max_error: cross_max,
        cross_model_avg_error: cross_avg,
    };
    trajectory.push(final_snapshot);
    if observer.enabled() {
        observer.event(&PlacerEvent::ThermalSolved {
            snapshot: final_snapshot,
        });
        observer.event(&PlacerEvent::RunEnd {
            seconds: start.elapsed().as_secs_f64(),
            stopped_early,
        });
    }

    timings.total = start.elapsed();
    let placement = ctx.objective.into_placement();
    let legalize = ctx.legalize;
    let degradations = ctx.degradations;
    Ok(PlacementResult {
        placement,
        metrics,
        legalize,
        timings,
        thermal_trajectory: trajectory,
        chip,
        stopped_early,
        resumed_from,
        degradations,
    })
}

/// Returns the timing slot for `round`, growing the vector as rounds
/// execute (an interrupted run reports only the rounds that ran).
fn grow_rounds(rounds: &mut Vec<RoundTiming>, round: usize) -> &mut RoundTiming {
    while rounds.len() <= round {
        rounds.push(RoundTiming::default());
    }
    &mut rounds[round]
}

/// Solves the thermal field of the current placement through the tier
/// the policy assigns to this site (hardened: NaN power is sanitized, a
/// CG breakdown falls back to damped Jacobi), appends the outcome —
/// including the cross-model error against the full-grid reference when
/// a cheaper tier answered — to the trajectory, and reports it.
fn snapshot(
    stage: &'static str,
    ctx: &mut PlacerContext<'_>,
    oracles: &mut ThermalOracles,
    trajectory: &mut Vec<ThermalSnapshot>,
    observer: &mut dyn PlacerObserver,
) -> Result<(), PlaceError> {
    let guard = ThermalGuard {
        inject_nan: ctx.fire_fault(FaultKind::NanPower, stage),
        inject_cg_failure: ctx.fire_fault(FaultKind::CgBreakdown, stage),
    };
    let tier = oracles.tier_for(stage);
    let (field, outcome) = metrics::solve_field(
        ctx.netlist,
        ctx.chip,
        ctx.model,
        &ctx.objective,
        oracles.oracle(tier),
        guard,
    )?;
    if outcome.degraded() {
        ctx.record_degradation(Degradation::ThermalDegraded {
            stage: stage.to_string(),
            detail: outcome.describe(),
        });
    }
    let (avg, max) = metrics::sample_cells(ctx.chip, &ctx.objective, &field);
    let (cross_max, cross_avg) = cross_errors(ctx, oracles, tier, &field)?;
    let snap = ThermalSnapshot {
        stage,
        tier: tier.as_str(),
        avg_temperature: avg,
        max_temperature: max,
        cg_iterations: outcome.iterations(),
        warm_started: outcome.warm_started(),
        preconditioner: outcome.preconditioner(),
        initial_residual: outcome.initial_residual(),
        cross_model_max_error: cross_max,
        cross_model_avg_error: cross_avg,
    };
    trajectory.push(snap);
    if observer.enabled() {
        observer.event(&PlacerEvent::ThermalSolved { snapshot: snap });
    }
    Ok(())
}

/// The `(max, avg)` absolute cross-model temperature error of `field`
/// against a fresh full-grid reference solve of the same placement.
/// `(NaN, NaN)` when the full grid itself answered — there is nothing to
/// compare, and `NaN` renders as `null` in trace events. The reference
/// solve runs unguarded: it is never the quantity under test, and on the
/// default (all-full-grid) policy this function never solves at all.
fn cross_errors(
    ctx: &PlacerContext<'_>,
    oracles: &mut ThermalOracles,
    tier: ThermalTier,
    field: &TemperatureField,
) -> Result<(f64, f64), PlaceError> {
    if tier == ThermalTier::FullGrid {
        return Ok((f64::NAN, f64::NAN));
    }
    let (reference, _) = metrics::solve_field(
        ctx.netlist,
        ctx.chip,
        ctx.model,
        &ctx.objective,
        &mut oracles.full,
        ThermalGuard::default(),
    )?;
    Ok(metrics::cross_model_error(
        ctx.chip,
        &ctx.objective,
        field,
        &reference,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_matches_config_rounds() {
        let plan = default_stage_plan(&PlacerConfig::new(2));
        let names: Vec<String> = plan.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["global", "coarse[0]", "detail[0]"]);

        let mut config = PlacerConfig::new(2);
        config.post_opt_rounds = 2;
        let plan = default_stage_plan(&config);
        assert_eq!(plan.len(), 7);
        assert_eq!(plan[5].name(), "coarse[2]");
        assert_eq!(plan[6].kind(), StageKind::Detail { round: 2 });
    }

    #[test]
    fn rounds_vector_grows_on_demand() {
        let mut rounds = Vec::new();
        grow_rounds(&mut rounds, 1).coarse = std::time::Duration::from_secs(1);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0], RoundTiming::default());
        assert_eq!(rounds[1].coarse, std::time::Duration::from_secs(1));
    }
}
