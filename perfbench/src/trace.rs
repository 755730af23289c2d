//! In-memory span recording for the traced runs.
//!
//! [`SpanRecorder`] is a [`PlacerObserver`] that timestamps each engine
//! event as it arrives and turns the stream into a span tree:
//!
//! ```text
//! run ─┬─ stage:global
//!      ├─ thermal:global          (StageEnd → ThermalSolved)
//!      ├─ stage:coarse[0] ── shift_pass*
//!      ├─ thermal:coarse
//!      ├─ stage:detail[0]
//!      └─ thermal:final
//! ```
//!
//! Alongside the spans it tallies the per-stage work counters that the
//! pass events carry. Nothing is written while a run is timed; the caller
//! renders the spans with [`Span::to_json`] once the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;
use tvp_core::{PassEvent, PlacerEvent, PlacerObserver};

/// One timed interval. Times are seconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    /// Counters measured inside the span, in insertion order.
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// One JSON object; `trace` identifies the run the span belongs to.
    pub fn to_json(&self, trace: &str) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        let mut attrs = String::new();
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(attrs, "{sep}\"{k}\":{}", json_num(*v));
        }
        format!(
            "{{\"trace\":\"{trace}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
             \"start_s\":{},\"end_s\":{},\"attrs\":{{{attrs}}}}}",
            self.id,
            self.name,
            json_num(self.start_s),
            json_num(self.end_s)
        )
    }
}

/// JSON has no NaN or infinity; those render as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Work counters tallied from the pass events of one run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Tally {
    pub shift_phases: usize,
    pub shift_passes: usize,
    pub cells_shifted: usize,
    pub move_passes: usize,
    pub moves_improved: usize,
    /// Peak bin density reported by the last shifting phase.
    pub final_max_density: f64,
    pub rows_used: usize,
    pub refine_passes: usize,
    /// Objective improvement of refinement, summed over detail stages.
    pub refine_gain: f64,
    pub thermal_solves: usize,
    pub cg_iterations: usize,
}

/// Records spans and counters for runs of one benchmark process.
pub struct SpanRecorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub tally: Tally,
    run: Option<usize>,
    stage: Option<usize>,
    /// Refinement gain reported so far by the open detail stage.
    stage_refine_gain: f64,
    /// End of the last stage or thermal solve: where the next thermal
    /// span starts.
    boundary_s: f64,
}

impl SpanRecorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            tally: Tally::default(),
            run: None,
            stage: None,
            stage_refine_gain: 0.0,
            boundary_s: 0.0,
        }
    }

    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Adds a finished span and returns its id.
    pub fn push(&mut self, parent: Option<usize>, name: String, start_s: f64, end_s: f64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_s,
            end_s,
            attrs: Vec::new(),
        });
        id
    }

    /// Durations, in order, of the spans whose name starts with `prefix`.
    pub fn durations<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name.starts_with(prefix))
            .map(Span::seconds)
    }

    /// Opens the root span of a placement run, just before the call.
    pub fn begin_run(&mut self, threads: usize) {
        let now = self.now();
        let id = self.push(None, "run".to_string(), now, now);
        self.spans[id].attrs.push(("threads", threads as f64));
        self.run = Some(id);
        self.boundary_s = now;
    }

    /// Closes the root span, just after the call returned.
    pub fn end_run(&mut self) {
        let now = self.now();
        if let Some(run) = self.run.take() {
            self.spans[run].end_s = now;
        }
    }
}

impl PlacerObserver for SpanRecorder {
    fn event(&mut self, event: &PlacerEvent) {
        let now = self.now();
        match event {
            PlacerEvent::StageBegin { stage, .. } => {
                let id = self.push(self.run, format!("stage:{stage}"), now, now);
                self.stage = Some(id);
                self.stage_refine_gain = 0.0;
            }
            PlacerEvent::StageEnd { .. } => {
                if let Some(stage) = self.stage.take() {
                    self.spans[stage].end_s = now;
                }
                self.tally.refine_gain += self.stage_refine_gain;
                self.boundary_s = now;
            }
            PlacerEvent::Pass { pass, .. } => match *pass {
                PassEvent::ShiftPass { moved, wall_ms, .. } => {
                    let id = self.push(
                        self.stage,
                        "shift_pass".to_string(),
                        now - wall_ms / 1e3,
                        now,
                    );
                    self.spans[id].attrs.push(("moved", moved as f64));
                    self.tally.shift_passes += 1;
                    self.tally.cells_shifted += moved;
                }
                PassEvent::CoarseShift { max_density, .. } => {
                    self.tally.shift_phases += 1;
                    self.tally.final_max_density = max_density;
                }
                PassEvent::CoarseMoves { improved, .. } => {
                    self.tally.move_passes += 1;
                    self.tally.moves_improved += improved;
                }
                PassEvent::DetailRows { rows, .. } => self.tally.rows_used += rows,
                PassEvent::RefinePass { improvement, .. } => {
                    self.tally.refine_passes += 1;
                    self.stage_refine_gain = improvement;
                }
            },
            PlacerEvent::ThermalSolved { snapshot } => {
                let name = format!("thermal:{}", snapshot.stage);
                let id = self.push(self.run, name, self.boundary_s, now);
                self.spans[id]
                    .attrs
                    .push(("cg_iterations", snapshot.cg_iterations as f64));
                self.tally.thermal_solves += 1;
                self.tally.cg_iterations += snapshot.cg_iterations;
                self.boundary_s = now;
            }
            _ => {}
        }
    }
}
