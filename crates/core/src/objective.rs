//! The placement objective (Eq. 3) with O(1)-amortized incremental
//! evaluation.
//!
//! ```text
//! F = Σ_nets [ WL_i + α_ILV · ILV_i ]  +  α_TEMP · Σ_cells [ R_j · P_j ]
//! ```
//!
//! where `WL_i` is half-perimeter wirelength, `ILV_i` the net's layer span,
//! `R_j` the straight-path thermal resistance of cell `j` at its current
//! position, and `P_j` the dynamic power it dissipates (Eq. 10). Every
//! placement stage — moves, swaps, shifting, legalization — prices its
//! candidate moves through [`IncrementalObjective`].
//!
//! # Delta engine
//!
//! Instead of rescanning a net's full bounding box per probe, the evaluator
//! tracks per-net, per-axis extremes with their multiplicities
//! (`NetExtremes`): the min and max pin coordinate on each axis plus how
//! many pins sit exactly at each extreme. Moving a pin then prices in O(1)
//! per incident net — a full rescan is needed only when the *unique* pin at
//! an extreme retreats inward, which is amortized away over random move
//! sequences.
//!
//! Pricing (`delta_move`, `delta_moves`, `delta_swap`) is read-only and
//! allocation-free: candidate geometry, power, and resistance values are
//! staged in a reusable epoch-stamped `DeltaWorkspace` owned by the
//! evaluator, never touching the committed caches. Commit (`apply_move`,
//! `apply_moves`, `apply_swap`) prices through the same code path and then
//! patches the staged values into the caches, so a probe and its commit
//! return bitwise-identical deltas.
//!
//! A single-move probe (`delta_move`) takes a faster route to the same
//! bits: per incident net it folds the cell's pins into the net's
//! extremes with the cell excluded, cached per cell until the next
//! commit. Data-parallel stages price through [`FrozenPricer`], a `Sync`
//! read-only snapshot of the committed caches that runs that same probe
//! code, so a snapshot probe is bitwise equal to the live
//! [`IncrementalObjective::delta_move`] at snapshot time. Both price the
//! full objective: in thermal mode the staged path and the probes share
//! one thermal arithmetic (`thermal_tail`: driver power changes at their
//! current resistance, then the moved cell's `R·P` change).
//!
//! Cells connecting to one net through several pins are handled by a
//! per-cell *distinct-net* CSR shared by pricing and commit: each incident
//! net is priced exactly once, with all of the cell's pins on it updated
//! together (the per-pin view double-counted such nets).
//!
//! Determinism contract (DESIGN.md §8, §11): every staged value is the
//! result of the same pin-order scan or exact O(1) extreme update, so the
//! incremental caches stay bitwise equal to a from-scratch `rebuild`
//! (`IncrementalObjective::rebuild`) after arbitrary move/swap sequences,
//! at every thread count.

use crate::power::PowerModel;
use crate::{Chip, Placement, PlacerConfig};
use std::cell::RefCell;
use tvp_netlist::{CellId, NetId, Netlist, PinId};
use tvp_parallel as parallel;
use tvp_thermal::ResistanceModel;

/// Minimum nets/cells per parallel chunk when rebuilding caches; smaller
/// designs run single-chunk (serially) where threading overhead would
/// dominate.
const REBUILD_MIN_CHUNK: usize = 512;

/// Below this many nets/cells the rebuild passes skip pool dispatch and
/// run their chunks inline (bitwise identical): BENCH_hotpaths.json showed
/// the dispatched path regressing 0.087 → 0.113 ms on small designs.
const REBUILD_SERIAL_BELOW: usize = 4096;
/// Minimum elements per chunk for the scalar reductions in
/// `compute_total`.
const SUM_MIN_CHUNK: usize = 4096;

/// Static (placement-independent) parts of the objective.
#[derive(Clone, Debug)]
pub struct ObjectiveModel {
    /// Interlayer via coefficient `α_ILV`, meters.
    pub alpha_ilv: f64,
    /// Thermal coefficient `α_TEMP`, meters per kelvin.
    pub alpha_temp: f64,
    power: PowerModel,
    resistance: ResistanceModel,
}

impl ObjectiveModel {
    /// Builds the objective model for a netlist on a chip.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model construction errors for invalid chip
    /// geometry.
    pub fn new(
        netlist: &Netlist,
        chip: &Chip,
        config: &PlacerConfig,
    ) -> Result<Self, crate::PlaceError> {
        // A 3D via crosses the bonding dielectric between tiers; its
        // capacitance is `C_per_ilv_length` times that crossing length.
        let power = PowerModel::new(netlist, &config.tech, chip.stack.interlayer_thickness);
        let resistance = ResistanceModel::new(chip.stack, chip.width, chip.depth)?;
        Ok(Self {
            alpha_ilv: config.alpha_ilv,
            alpha_temp: config.alpha_temp,
            power,
            resistance,
        })
    }

    /// The per-net power coefficients.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The straight-path resistance model.
    pub fn resistance(&self) -> &ResistanceModel {
        &self.resistance
    }

    /// `R_j^cell` for a cell of the given area at a position.
    pub fn cell_resistance(&self, x: f64, y: f64, layer: u16, cell_area: f64) -> f64 {
        self.resistance
            .cell_resistance(x, y, layer as usize, cell_area)
    }
}

/// Per-net geometry: HPWL components and layer span.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NetGeometry {
    /// X span of the net's pins, meters.
    pub wl_x: f64,
    /// Y span of the net's pins, meters.
    pub wl_y: f64,
    /// Layer span = number of interlayer boundaries the net crosses.
    pub ilv: f64,
}

impl NetGeometry {
    /// Half-perimeter wirelength, meters.
    #[inline]
    pub fn wirelength(&self) -> f64 {
        self.wl_x + self.wl_y
    }
}

/// Per-net, per-axis extremes with multiplicities: the min/max pin
/// coordinate on each axis plus the number of pins sitting exactly at each
/// extreme. `x_min_n == 0` marks a pinless net (canonical zero geometry).
///
/// The counts are what make O(1) updates sound: a move away from an
/// extreme only forces a rescan when the count says the moved pin was the
/// *only* one there.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
struct NetExtremes {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
    l_min: u16,
    l_max: u16,
    x_min_n: u32,
    x_max_n: u32,
    y_min_n: u32,
    y_max_n: u32,
    l_min_n: u32,
    l_max_n: u32,
}

impl NetExtremes {
    /// Derives the HPWL/ILV geometry. Bitwise identical to what the old
    /// full-scan produced: the same subtraction of the same extremes.
    #[inline]
    fn geometry(&self) -> NetGeometry {
        if self.x_min_n == 0 {
            return NetGeometry::default();
        }
        NetGeometry {
            wl_x: self.x_max - self.x_min,
            wl_y: self.y_max - self.y_min,
            ilv: (self.l_max - self.l_min) as f64,
        }
    }

    #[inline]
    fn first(px: f64, py: f64, l: u16) -> Self {
        Self {
            x_min: px,
            x_max: px,
            y_min: py,
            y_max: py,
            l_min: l,
            l_max: l,
            x_min_n: 1,
            x_max_n: 1,
            y_min_n: 1,
            y_max_n: 1,
            l_min_n: 1,
            l_max_n: 1,
        }
    }

    /// Folds one pin into the extremes (scan path).
    #[inline]
    fn accumulate(&mut self, px: f64, py: f64, l: u16) {
        if self.x_min_n == 0 {
            *self = Self::first(px, py, l);
            return;
        }
        acc_min(&mut self.x_min, &mut self.x_min_n, px);
        acc_max(&mut self.x_max, &mut self.x_max_n, px);
        acc_min(&mut self.y_min, &mut self.y_min_n, py);
        acc_max(&mut self.y_max, &mut self.y_max_n, py);
        acc_min(&mut self.l_min, &mut self.l_min_n, l);
        acc_max(&mut self.l_max, &mut self.l_max_n, l);
    }

    /// O(1) update for one pin moving `old → new` on every axis. Returns
    /// `false` when a unique extreme retreated and a rescan is required
    /// (`self` is then partially updated and must be discarded).
    #[inline]
    fn update(&mut self, (ox, oy, ol): (f64, f64, u16), (nx, ny, nl): (f64, f64, u16)) -> bool {
        upd_min(&mut self.x_min, &mut self.x_min_n, ox, nx)
            && upd_max(&mut self.x_max, &mut self.x_max_n, ox, nx)
            && upd_min(&mut self.y_min, &mut self.y_min_n, oy, ny)
            && upd_max(&mut self.y_max, &mut self.y_max_n, oy, ny)
            && upd_min(&mut self.l_min, &mut self.l_min_n, ol, nl)
            && upd_max(&mut self.l_max, &mut self.l_max_n, ol, nl)
    }
}

#[inline]
fn acc_min<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, v: T) {
    if v < *m {
        *m = v;
        *n = 1;
    } else if v == *m {
        *n += 1;
    }
}

#[inline]
fn acc_max<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, v: T) {
    if v > *m {
        *m = v;
        *n = 1;
    } else if v == *m {
        *n += 1;
    }
}

/// One pin leaves value `ov` and arrives at `nv`; maintain the min and its
/// multiplicity. `false` = the unique min pin retreated, rescan.
#[inline]
fn upd_min<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, ov: T, nv: T) -> bool {
    if ov == *m {
        if nv < *m {
            *m = nv;
            *n = 1;
        } else if nv != *m {
            if *n == 1 {
                return false;
            }
            *n -= 1;
        }
        true
    } else {
        acc_min(m, n, nv);
        true
    }
}

/// Mirror of [`upd_min`] for the max side.
#[inline]
fn upd_max<T: PartialOrd + Copy>(m: &mut T, n: &mut u32, ov: T, nv: T) -> bool {
    if ov == *m {
        if nv > *m {
            *m = nv;
            *n = 1;
        } else if nv != *m {
            if *n == 1 {
                return false;
            }
            *n -= 1;
        }
        true
    } else {
        acc_max(m, n, nv);
        true
    }
}

/// Full pin scan of one net, with up to a handful of staged position
/// overrides (later entries win). Pin order matches the builder's net pin
/// order, so the result is deterministic and thread-count independent.
fn scan_net_extremes(
    netlist: &Netlist,
    placement: &Placement,
    e: NetId,
    moved: &[(CellId, (f64, f64, u16))],
) -> NetExtremes {
    let mut ext = NetExtremes::default();
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let cell = pin.cell();
        let mut pos = placement.position(cell);
        for &(m, mp) in moved {
            if m == cell {
                pos = mp;
            }
        }
        ext.accumulate(pos.0 + pin.offset_x(), pos.1 + pin.offset_y(), pos.2);
    }
    ext
}

/// Count-free bounding-box scan with one cell's position overridden —
/// the arithmetic of the pre-delta-engine per-probe kernel, kept as the
/// benchmark reference and test oracle for
/// [`IncrementalObjective::delta_move_rescan`].
fn scan_net_bbox(
    netlist: &Netlist,
    placement: &Placement,
    e: NetId,
    moved: CellId,
    pos: (f64, f64, u16),
) -> NetGeometry {
    let mut first = true;
    let (mut x0, mut x1, mut y0, mut y1) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let (mut l0, mut l1) = (0u16, 0u16);
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let cell = pin.cell();
        let (cx, cy, cl) = if cell == moved {
            pos
        } else {
            placement.position(cell)
        };
        let (px, py) = (cx + pin.offset_x(), cy + pin.offset_y());
        if first {
            (x0, x1, y0, y1, l0, l1) = (px, px, py, py, cl, cl);
            first = false;
        } else {
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
            l0 = l0.min(cl);
            l1 = l1.max(cl);
        }
    }
    if first {
        return NetGeometry::default();
    }
    NetGeometry {
        wl_x: x1 - x0,
        wl_y: y1 - y0,
        ilv: (l1 - l0) as f64,
    }
}

/// Per-cell distinct-incident-net CSR: for each cell, one entry per
/// *distinct* net it touches (first-occurrence order, which equals pin
/// order for netlists without shared-net pins), with the cell's pins on
/// that net grouped together. Shared by pricing and commit so a
/// multi-pin-same-net cell prices each net exactly once.
#[derive(Clone, Debug, Default)]
struct DistinctNets {
    /// `entries[offsets[c]..offsets[c+1]]` are cell `c`'s distinct nets.
    offsets: Vec<u32>,
    /// `(net, pin_lo, pin_hi)`: pins are `pins[pin_lo..pin_hi]`.
    entries: Vec<(NetId, u32, u32)>,
    /// Pin IDs grouped by (cell, net).
    pins: Vec<PinId>,
}

impl DistinctNets {
    fn build(netlist: &Netlist) -> Self {
        let mut offsets = Vec::with_capacity(netlist.num_cells() + 1);
        let mut entries = Vec::with_capacity(netlist.num_pins());
        let mut pins = Vec::with_capacity(netlist.num_pins());
        let mut buf: Vec<(NetId, PinId)> = Vec::new();
        offsets.push(0u32);
        for c in 0..netlist.num_cells() {
            buf.clear();
            for &p in netlist.cell_pins(CellId::new(c)) {
                buf.push((netlist.pin(p).net(), p));
            }
            for i in 0..buf.len() {
                let (e, _) = buf[i];
                if buf[..i].iter().any(|&(e2, _)| e2 == e) {
                    continue; // net already emitted for this cell
                }
                let lo = pins.len() as u32;
                for &(e2, p2) in &buf[i..] {
                    if e2 == e {
                        pins.push(p2);
                    }
                }
                entries.push((e, lo, pins.len() as u32));
            }
            offsets.push(entries.len() as u32);
        }
        Self {
            offsets,
            entries,
            pins,
        }
    }

    #[inline]
    fn range(&self, cell: CellId) -> std::ops::Range<usize> {
        self.offsets[cell.index()] as usize..self.offsets[cell.index() + 1] as usize
    }
}

/// Per-(cell, net) probe-cache entry: the net's extremes *excluding* the
/// cell's own pins, plus the committed geometry. A candidate position
/// folds in with six branchless min/max ops — no rescan can ever be
/// needed, because the moved pins are not part of the reduced extremes.
///
/// Sentinels (`f64::INFINITY` / `u16::MAX` on the min side and their
/// mirrors on the max side) make a net whose only pins belong to the cell
/// fold correctly without a branch.
#[derive(Clone, Copy, Debug)]
struct ProbeEntry {
    /// Extremes of the other cells' pins on this net.
    rx0: f64,
    rx1: f64,
    ry0: f64,
    ry1: f64,
    /// Own pin offset (when the cell has exactly one pin on the net —
    /// the overwhelmingly common case; more pins fall back to the CSR).
    dx: f64,
    dy: f64,
    /// Committed geometry, for the `new − old` delta terms.
    old_wl: f64,
    old_ilv: f64,
    rl0: u16,
    rl1: u16,
    /// Number of the cell's own pins on this net.
    own_pins: u32,
}

impl Default for ProbeEntry {
    fn default() -> Self {
        Self {
            rx0: f64::INFINITY,
            rx1: f64::NEG_INFINITY,
            ry0: f64::INFINITY,
            ry1: f64::NEG_INFINITY,
            dx: 0.0,
            dy: 0.0,
            old_wl: 0.0,
            old_ilv: 0.0,
            rl0: u16::MAX,
            rl1: 0,
            own_pins: 0,
        }
    }
}

/// Builds the probe entry for distinct-net CSR slot `idx` of `cell`: the
/// net's extremes with the cell's own pins excluded, plus the committed
/// geometry. Shared by the probe cache and [`FrozenPricer`] so both
/// price bitwise identically.
fn probe_entry_at(
    netlist: &Netlist,
    placement: &Placement,
    nets: &[NetExtremes],
    cell_nets: &DistinctNets,
    idx: usize,
    cell: CellId,
) -> ProbeEntry {
    let (e, plo, phi) = cell_nets.entries[idx];
    let mut entry = ProbeEntry {
        own_pins: phi - plo,
        ..ProbeEntry::default()
    };
    if entry.own_pins == 1 {
        let pin = netlist.pin(cell_nets.pins[plo as usize]);
        entry.dx = pin.offset_x();
        entry.dy = pin.offset_y();
    }
    let ext = &nets[e.index()];
    let og = ext.geometry();
    entry.old_wl = og.wirelength();
    entry.old_ilv = og.ilv;

    // Fast path: the committed extremes carry multiplicity counts, so
    // when every extreme keeps at least one non-cell holder the
    // exclusion extremes ARE the committed ones — O(own pins) instead of
    // a full net scan, and bitwise identical to it (the counts were
    // accumulated from the very same `position + offset` arithmetic).
    // An own pin that empties an extreme's holder count falls through to
    // the scan, which recovers the unstored runner-up.
    if ext.x_min_n != 0 && netlist.net_pins(e).len() as u32 > entry.own_pins {
        let (cx, cy, cl) = placement.position(cell);
        let mut nx0 = ext.x_min_n;
        let mut nx1 = ext.x_max_n;
        let mut ny0 = ext.y_min_n;
        let mut ny1 = ext.y_max_n;
        let mut nl0 = ext.l_min_n;
        let mut nl1 = ext.l_max_n;
        for &p in &cell_nets.pins[plo as usize..phi as usize] {
            let pin = netlist.pin(p);
            let px = cx + pin.offset_x();
            let py = cy + pin.offset_y();
            nx0 -= (px == ext.x_min) as u32;
            nx1 -= (px == ext.x_max) as u32;
            ny0 -= (py == ext.y_min) as u32;
            ny1 -= (py == ext.y_max) as u32;
            nl0 -= (cl == ext.l_min) as u32;
            nl1 -= (cl == ext.l_max) as u32;
        }
        if nx0 > 0 && nx1 > 0 && ny0 > 0 && ny1 > 0 && nl0 > 0 && nl1 > 0 {
            entry.rx0 = ext.x_min;
            entry.rx1 = ext.x_max;
            entry.ry0 = ext.y_min;
            entry.ry1 = ext.y_max;
            entry.rl0 = ext.l_min;
            entry.rl1 = ext.l_max;
            return entry;
        }
    }
    for &p in netlist.net_pins(e) {
        let pin = netlist.pin(p);
        let c = pin.cell();
        if c == cell {
            continue;
        }
        let (cx, cy, cl) = placement.position(c);
        let (px, py) = (cx + pin.offset_x(), cy + pin.offset_y());
        entry.rx0 = entry.rx0.min(px);
        entry.rx1 = entry.rx1.max(px);
        entry.ry0 = entry.ry0.min(py);
        entry.ry1 = entry.ry1.max(py);
        entry.rl0 = entry.rl0.min(cl);
        entry.rl1 = entry.rl1.max(cl);
    }
    entry
}

/// New geometry of one net of a probe: folds the cell's pins at `pos`
/// into the entry's exclusion extremes. Bitwise equal to the geometry
/// the staged path derives from its updated [`NetExtremes`] — the same
/// extremes of the same pin multiset, subtracted the same way.
#[inline]
fn probe_entry_geometry(
    netlist: &Netlist,
    cell_nets: &DistinctNets,
    idx: usize,
    entry: &ProbeEntry,
    pos: (f64, f64, u16),
) -> NetGeometry {
    let (mut x0, mut x1) = (entry.rx0, entry.rx1);
    let (mut y0, mut y1) = (entry.ry0, entry.ry1);
    let (mut l0, mut l1) = (entry.rl0, entry.rl1);
    if entry.own_pins == 1 {
        let (px, py) = (pos.0 + entry.dx, pos.1 + entry.dy);
        x0 = x0.min(px);
        x1 = x1.max(px);
        y0 = y0.min(py);
        y1 = y1.max(py);
        l0 = l0.min(pos.2);
        l1 = l1.max(pos.2);
    } else {
        let (_, plo, phi) = cell_nets.entries[idx];
        for &p in &cell_nets.pins[plo as usize..phi as usize] {
            let pin = netlist.pin(p);
            let (px, py) = (pos.0 + pin.offset_x(), pos.1 + pin.offset_y());
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
            l0 = l0.min(pos.2);
            l1 = l1.max(pos.2);
        }
    }
    NetGeometry {
        wl_x: x1 - x0,
        wl_y: y1 - y0,
        ilv: (l1 - l0) as f64,
    }
}

/// Prices one net of a probe: the WL + α_ILV·ILV change of folding the
/// cell's pins at `pos` into the entry's exclusion extremes.
#[inline]
fn probe_entry_delta(
    netlist: &Netlist,
    cell_nets: &DistinctNets,
    idx: usize,
    entry: &ProbeEntry,
    pos: (f64, f64, u16),
    alpha_ilv: f64,
) -> f64 {
    let ng = probe_entry_geometry(netlist, cell_nets, idx, entry, pos);
    (ng.wirelength() - entry.old_wl) + alpha_ilv * (ng.ilv - entry.old_ilv)
}

/// Records the driver of net `e`, which a move of `cell` reshapes, for
/// the thermal term: once each, and never the moved cell itself (its
/// power change is priced together with its resistance change).
#[inline]
fn note_driver(netlist: &Netlist, e: NetId, cell: CellId, drivers: &mut Vec<CellId>) {
    if let Some(d) = netlist.net_driver_cell(e) {
        if d != cell && !drivers.contains(&d) {
            drivers.push(d);
        }
    }
}

/// The thermal part of one move's price (Eq. 3's α_TEMP·Σ R·P), folded
/// onto the geometry part `delta` in a fixed order: each driver `d` of a
/// reshaped net pays `α·R_d·(P_new − P_old)` at its current resistance,
/// then the moved cell pays `α·(R_new·P_new − R_old·P_old)`. `before`
/// gives a cell's `(power, resistance)` ahead of the move and `geometry`
/// a net's geometry after it. Every new power is recomputed from scratch
/// — the arithmetic `rebuild` uses, so committed caches stay bitwise
/// equal to a rebuild — and handed to `new_power`, the drivers' in
/// order and then the moved cell's. The staged path and the snapshot
/// probes both price through here.
#[allow(clippy::too_many_arguments)]
fn thermal_tail(
    model: &ObjectiveModel,
    netlist: &Netlist,
    cell: CellId,
    r_new: f64,
    drivers: &[CellId],
    before: impl Fn(CellId) -> (f64, f64),
    geometry: impl Fn(NetId) -> NetGeometry,
    mut new_power: impl FnMut(f64),
    mut delta: f64,
) -> f64 {
    let alpha_temp = model.alpha_temp;
    let power_after = |c: CellId| {
        model.power.cell_power(netlist, c, |e| {
            let g = geometry(e);
            (g.wirelength(), g.ilv)
        })
    };
    for &d in drivers {
        let (p_old, r_d) = before(d);
        let p_new = power_after(d);
        delta += alpha_temp * r_d * (p_new - p_old);
        new_power(p_new);
    }
    let (p_old, r_old) = before(cell);
    let p_new = power_after(cell);
    delta += alpha_temp * (r_new * p_new - r_old * p_old);
    new_power(p_new);
    delta
}

/// Read-only pricing snapshot over the committed caches, for
/// data-parallel proposal generation (DESIGN.md §16, §17). It is `Sync` —
/// unlike [`IncrementalObjective`], whose interior-mutable staging
/// workspace pins it to one thread — because it borrows only the
/// immutable caches: net extremes, the placement, and the per-cell power
/// and resistance caches. It prices the full Eq. 3 objective, the
/// thermal term included: with `alpha_temp > 0` every probe adds the
/// power change of the drivers of the nets the move reshapes and the
/// moved cell's own `R·P` change, through the same arithmetic the
/// staged path commits with.
///
/// Deltas are priced against the state at snapshot time. Callers that
/// interleave commits must re-validate each proposal against the live
/// objective before applying — the coarse batched passes do exactly
/// that.
pub struct FrozenPricer<'b> {
    netlist: &'b Netlist,
    model: &'b ObjectiveModel,
    placement: &'b Placement,
    nets: &'b [NetExtremes],
    cell_power: &'b [f64],
    cell_resistance: &'b [f64],
    cell_nets: &'b DistinctNets,
}

/// Per-worker scratch for [`FrozenPricer`]: the probe entries of the one
/// cell currently being priced, plus the thermal term's buffers. Caller-
/// owned so each worker thread prices without shared mutable state.
/// Entries are only valid against the snapshot that built them — drop
/// the scratch when taking a new [`FrozenPricer`].
#[derive(Default)]
pub struct FrozenScratch {
    cell: Option<CellId>,
    entries: Vec<ProbeEntry>,
    /// Thermal term: the probed move's new geometry of each incident
    /// net, in CSR order.
    geometry: Vec<(NetId, NetGeometry)>,
    /// Thermal term: drivers (other than the moved cell) of the nets
    /// whose geometry the move changes, deduplicated in first-seen order.
    drivers: Vec<CellId>,
}

/// Cross-worker probe-entry memo for one [`FrozenPricer`] snapshot:
/// each cell's entries build once — by whichever worker probes the cell
/// first — and are shared read-only afterwards. Built for the coarse
/// passes' swap-partner pricing, where the candidate regions of a whole
/// batch of cells revisit the same hot-bin residents and rebuilding a
/// partner's entries is all cache-miss traffic (net extremes, CSR
/// spans, pin arrays).
///
/// Thread-invariance: entry values are a pure function of the snapshot,
/// so racing builders initialize identical values and every priced
/// delta is bitwise equal to [`FrozenScratch`] pricing, at any thread
/// count.
///
/// Entries hold net geometry only (never power or resistance), so they
/// stay valid across snapshots until a commit touches one of the cell's
/// nets — drop those with
/// [`invalidate_moved`](FrozenSharedCache::invalidate_moved) before
/// pricing against the next [`FrozenPricer`].
pub struct FrozenSharedCache {
    slots: Vec<std::sync::OnceLock<Box<[ProbeEntry]>>>,
}

impl FrozenSharedCache {
    /// An empty cache for a design of `num_cells` cells.
    pub fn new(num_cells: usize) -> Self {
        Self {
            slots: (0..num_cells).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    /// Drops the memoized entries of every cell whose pricing inputs a
    /// committed move may have changed: the moved cells themselves and
    /// every cell sharing a net with one. Everything else's entries
    /// stay valid against the *next* snapshot too — a net's extremes
    /// (and the positions a probe build reads) only change when one of
    /// that net's pin cells moves — which is what lets one cache
    /// persist across an entire batched pass instead of being rebuilt
    /// per snapshot.
    pub fn invalidate_moved(&mut self, netlist: &Netlist, moved: &[CellId]) {
        for &m in moved {
            for &p in netlist.cell_pins(m) {
                let e = netlist.pin(p).net();
                for &q in netlist.net_pins(e) {
                    self.slots[netlist.pin(q).cell().index()] = std::sync::OnceLock::new();
                }
            }
            self.slots[m.index()] = std::sync::OnceLock::new();
        }
    }
}

impl FrozenPricer<'_> {
    /// The snapshot's placement.
    #[inline]
    pub fn placement(&self) -> &Placement {
        self.placement
    }

    /// The snapshot's cached power of `cell` (Eq. 10), W — the value
    /// [`IncrementalObjective::cell_power`] had at snapshot time.
    #[inline]
    pub fn cell_power(&self, cell: CellId) -> f64 {
        self.cell_power[cell.index()]
    }

    /// Objective change if `cell` moved to `(x, y, layer)`, priced
    /// against the snapshot. Bitwise equal to what
    /// [`IncrementalObjective::delta_move`] returned at snapshot time —
    /// both price the same probe entries through the same code.
    /// Repeated probes of one cell reuse its entries; a new cell
    /// rebuilds the scratch once.
    pub fn delta_move(
        &self,
        scratch: &mut FrozenScratch,
        cell: CellId,
        x: f64,
        y: f64,
        layer: u16,
    ) -> f64 {
        self.ensure_entries(scratch, cell);
        let FrozenScratch {
            entries,
            geometry,
            drivers,
            ..
        } = scratch;
        self.price(entries, geometry, drivers, cell, (x, y, layer))
    }

    /// Calls `push` with one `(x0, x1, y0, y1)` exclusion rectangle per
    /// own pin of `cell` whose net has at least one pin on another cell —
    /// the inputs of the coarse global pass's optimal-region medians.
    /// Reuses the very probe entries [`delta_move`](Self::delta_move)
    /// prices with (building them on miss), so each rectangle is bitwise
    /// identical to a fresh exclude-the-cell scan of the net, at
    /// O(own pins) in the common case instead of O(net degree).
    pub fn exclusion_rects(
        &self,
        scratch: &mut FrozenScratch,
        cell: CellId,
        mut push: impl FnMut(f64, f64, f64, f64),
    ) {
        self.ensure_entries(scratch, cell);
        for entry in &scratch.entries {
            // A finite min marks a non-empty exclusion (positions are
            // always finite); nets the cell fully owns are skipped, like
            // the historical scan's `others > 0` test. Multi-pin nets
            // repeat their rectangle once per own pin, matching the
            // per-pin iteration order's multiset of median inputs.
            if entry.rx0 != f64::INFINITY {
                for _ in 0..entry.own_pins {
                    push(entry.rx0, entry.rx1, entry.ry0, entry.ry1);
                }
            }
        }
    }

    /// [`delta_move`](Self::delta_move) through a [`FrozenSharedCache`]:
    /// the first probe of a cell — on any worker — builds its entries
    /// into the cache's slot; every later probe of the same cell, at
    /// any position, reuses them. Bitwise identical to the
    /// scratch-based path (the same entries fold in the same CSR
    /// order). `scratch` lends only the thermal term's buffers; its
    /// cached entries for another cell are left alone.
    pub fn delta_move_memo(
        &self,
        cache: &FrozenSharedCache,
        scratch: &mut FrozenScratch,
        cell: CellId,
        x: f64,
        y: f64,
        layer: u16,
    ) -> f64 {
        let entries = cache.slots[cell.index()].get_or_init(|| {
            self.cell_nets
                .range(cell)
                .map(|idx| {
                    probe_entry_at(
                        self.netlist,
                        self.placement,
                        self.nets,
                        self.cell_nets,
                        idx,
                        cell,
                    )
                })
                .collect()
        });
        self.price(
            entries,
            &mut scratch.geometry,
            &mut scratch.drivers,
            cell,
            (x, y, layer),
        )
    }

    /// Prices one move from the cell's probe entries (`entries[i]` for
    /// the cell's `i`-th distinct net): the WL + α_ILV·ILV fold, then —
    /// with the thermal term active — the [`thermal_tail`] of the nets
    /// the move reshapes, against the snapshot's powers and
    /// resistances. The live probe of [`IncrementalObjective`] prices
    /// through here too.
    fn price(
        &self,
        entries: &[ProbeEntry],
        geometry: &mut Vec<(NetId, NetGeometry)>,
        drivers: &mut Vec<CellId>,
        cell: CellId,
        pos: (f64, f64, u16),
    ) -> f64 {
        let alpha_ilv = self.model.alpha_ilv;
        let alpha_temp = self.model.alpha_temp;
        let mut delta = 0.0;
        if alpha_temp == 0.0 {
            for (entry, idx) in entries.iter().zip(self.cell_nets.range(cell)) {
                delta +=
                    probe_entry_delta(self.netlist, self.cell_nets, idx, entry, pos, alpha_ilv);
            }
            return delta;
        }

        geometry.clear();
        drivers.clear();
        for (entry, idx) in entries.iter().zip(self.cell_nets.range(cell)) {
            let (e, _, _) = self.cell_nets.entries[idx];
            let ng = probe_entry_geometry(self.netlist, self.cell_nets, idx, entry, pos);
            delta += (ng.wirelength() - entry.old_wl) + alpha_ilv * (ng.ilv - entry.old_ilv);
            geometry.push((e, ng));
            if ng != self.nets[e.index()].geometry() {
                note_driver(self.netlist, e, cell, drivers);
            }
        }
        let geometry: &[(NetId, NetGeometry)] = geometry;
        thermal_tail(
            self.model,
            self.netlist,
            cell,
            resistance_at(self.model, self.netlist, cell, pos),
            drivers,
            |c| (self.cell_power[c.index()], self.cell_resistance[c.index()]),
            |e| {
                geometry
                    .iter()
                    .find(|&&(n, _)| n == e)
                    .map_or_else(|| self.nets[e.index()].geometry(), |&(_, g)| g)
            },
            |_| {},
            delta,
        )
    }

    /// Builds (or reuses) the scratch's probe entries for `cell`.
    fn ensure_entries(&self, scratch: &mut FrozenScratch, cell: CellId) {
        if scratch.cell != Some(cell) {
            scratch.entries.clear();
            scratch
                .entries
                .extend(self.cell_nets.range(cell).map(|idx| {
                    probe_entry_at(
                        self.netlist,
                        self.placement,
                        self.nets,
                        self.cell_nets,
                        idx,
                        cell,
                    )
                }));
            scratch.cell = Some(cell);
        }
    }
}

/// Reusable staging area for pricing: epoch-stamped sparse overlays over
/// the committed net/power/resistance caches, plus the staged move list
/// and per-move deltas. Pricing writes only here; commit patches the
/// staged values into the caches. Begin-of-probe cost is O(1) — clearing
/// is done by bumping the epoch, not by touching the stamp arrays.
#[derive(Clone, Debug, Default)]
struct DeltaWorkspace {
    epoch: u32,
    net_stamp: Vec<u32>,
    net_slot: Vec<u32>,
    net_entries: Vec<(NetId, NetExtremes)>,
    power_stamp: Vec<u32>,
    power_val: Vec<f64>,
    power_cells: Vec<CellId>,
    res_stamp: Vec<u32>,
    res_val: Vec<f64>,
    res_cells: Vec<CellId>,
    /// Staged moves, in pricing order (later entries win on conflict).
    moves: Vec<(CellId, (f64, f64, u16))>,
    /// Per-move deltas; commit folds them into `total` one by one, so a
    /// committed swap perturbs `total` exactly like two sequential moves.
    deltas: Vec<f64>,
    /// Scratch: drivers touched by the move being priced (deduplicated).
    drivers: Vec<CellId>,
    /// Scratch: the new powers [`thermal_tail`] computes, drivers first.
    new_power: Vec<f64>,
    /// Scratch: a probe's new geometry per incident net (thermal term).
    probe_geometry: Vec<(NetId, NetGeometry)>,
    /// Probe cache: one [`ProbeEntry`] per distinct-net CSR entry, valid
    /// for cell `c` while `cell_probe_version[c] == probe_version`.
    /// Commits bump `probe_version`, invalidating everything at once.
    probe_version: u64,
    cell_probe_version: Vec<u64>,
    probe_entries: Vec<ProbeEntry>,
}

impl DeltaWorkspace {
    fn sized(nets: usize, cells: usize, csr_entries: usize) -> Self {
        Self {
            epoch: 0,
            net_stamp: vec![0; nets],
            net_slot: vec![0; nets],
            power_stamp: vec![0; cells],
            power_val: vec![0.0; cells],
            res_stamp: vec![0; cells],
            res_val: vec![0.0; cells],
            probe_version: 1,
            cell_probe_version: vec![0; cells],
            probe_entries: vec![ProbeEntry::default(); csr_entries],
            ..Self::default()
        }
    }

    /// Invalidates every cell's probe cache (the placement changed).
    fn invalidate_probes(&mut self) {
        if self.probe_version == u64::MAX {
            self.cell_probe_version.fill(0);
            self.probe_version = 0;
        }
        self.probe_version += 1;
    }

    /// Starts a fresh pricing sequence (invalidates all staged state).
    fn begin(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: reset the stamps once every 2^32 - 1 probes.
            self.net_stamp.fill(0);
            self.power_stamp.fill(0);
            self.res_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.net_entries.clear();
        self.power_cells.clear();
        self.res_cells.clear();
        self.moves.clear();
        self.deltas.clear();
    }

    /// The position a cell would have after the staged moves.
    #[inline]
    fn effective_position(&self, placement: &Placement, cell: CellId) -> (f64, f64, u16) {
        let mut pos = placement.position(cell);
        for &(m, p) in &self.moves {
            if m == cell {
                pos = p;
            }
        }
        pos
    }
}

/// One candidate relocation, for the multi-move pricing/commit APIs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CellMove {
    /// The cell to move.
    pub cell: CellId,
    /// Target x, meters (cell center).
    pub x: f64,
    /// Target y, meters (cell center).
    pub y: f64,
    /// Target device layer.
    pub layer: u16,
}

/// Objective evaluator maintaining per-net extreme caches, per-cell power
/// and resistance caches, and the scalar total. Probes price in O(1)
/// amortized per incident net, without mutating or allocating.
#[derive(Clone, Debug)]
pub struct IncrementalObjective<'a> {
    netlist: &'a Netlist,
    model: &'a ObjectiveModel,
    placement: Placement,
    nets: Vec<NetExtremes>,
    cell_power: Vec<f64>,
    cell_resistance: Vec<f64>,
    total: f64,
    cell_nets: DistinctNets,
    pricing: RefCell<DeltaWorkspace>,
}

impl<'a> IncrementalObjective<'a> {
    /// Builds the evaluator for a placement.
    pub fn new(netlist: &'a Netlist, model: &'a ObjectiveModel, placement: Placement) -> Self {
        let cell_nets = DistinctNets::build(netlist);
        let workspace = DeltaWorkspace::sized(
            netlist.num_nets(),
            netlist.num_cells(),
            cell_nets.entries.len(),
        );
        let mut this = Self {
            netlist,
            model,
            placement,
            nets: vec![NetExtremes::default(); netlist.num_nets()],
            cell_power: vec![0.0; netlist.num_cells()],
            cell_resistance: vec![0.0; netlist.num_cells()],
            total: 0.0,
            cell_nets,
            pricing: RefCell::new(workspace),
        };
        this.rebuild();
        this
    }

    /// Recomputes every cache from scratch (used after bulk placement
    /// changes and by consistency tests).
    ///
    /// Both passes are elementwise maps, parallelized over chunks of nets
    /// and cells; each element's arithmetic is independent of the
    /// chunking, so the rebuilt caches are bitwise identical for every
    /// thread count. Only the scalar reduction in `compute_total` is
    /// association-sensitive (see there).
    pub fn rebuild(&mut self) {
        let netlist = self.netlist;
        let mut nets = std::mem::take(&mut self.nets);
        {
            let placement = &self.placement;
            parallel::for_each_chunk_mut_cutoff(
                &mut nets,
                REBUILD_MIN_CHUNK,
                REBUILD_SERIAL_BELOW,
                |start, chunk| {
                    for (off, slot) in chunk.iter_mut().enumerate() {
                        *slot = scan_net_extremes(netlist, placement, NetId::new(start + off), &[]);
                    }
                },
            );
        }
        self.nets = nets;

        let mut cell_power = std::mem::take(&mut self.cell_power);
        let mut cell_resistance = std::mem::take(&mut self.cell_resistance);
        {
            let model = self.model;
            let placement = &self.placement;
            let nets = &self.nets;
            parallel::for_each_chunk_mut2_cutoff(
                &mut cell_power,
                &mut cell_resistance,
                REBUILD_MIN_CHUNK,
                REBUILD_SERIAL_BELOW,
                |start, powers, resistances| {
                    for (off, (p, r)) in powers.iter_mut().zip(resistances.iter_mut()).enumerate() {
                        let cell = CellId::new(start + off);
                        *p = model.power.cell_power(netlist, cell, |e| {
                            let g = nets[e.index()].geometry();
                            (g.wirelength(), g.ilv)
                        });
                        *r = resistance_at(model, netlist, cell, placement.position(cell));
                    }
                },
            );
        }
        self.cell_power = cell_power;
        self.cell_resistance = cell_resistance;

        self.total = self.compute_total();
        self.pricing.get_mut().invalidate_probes();
    }

    /// The objective from the current caches: the net sum plus, with the
    /// thermal term active, the cell sum added once. One thread: each
    /// sum is a single-accumulator loop. Parallel: chunk partials folded
    /// in chunk order — identical across all thread counts ≥ 2, and
    /// within ~1e-9 relative of the serial value (reassociation only;
    /// bitwise equal to it while each sum fits in one chunk).
    fn compute_total(&self) -> f64 {
        if parallel::threads() == 1 {
            let mut total = 0.0;
            for ext in &self.nets {
                let g = ext.geometry();
                total += g.wirelength() + self.model.alpha_ilv * g.ilv;
            }
            if self.model.alpha_temp > 0.0 {
                let mut thermal = 0.0;
                for c in 0..self.netlist.num_cells() {
                    thermal += self.model.alpha_temp * self.cell_resistance[c] * self.cell_power[c];
                }
                total += thermal;
            }
            return total;
        }
        let alpha_ilv = self.model.alpha_ilv;
        let nets = &self.nets;
        let mut total = parallel::sum_chunks(nets.len(), SUM_MIN_CHUNK, |range| {
            nets[range]
                .iter()
                .map(|ext| {
                    let g = ext.geometry();
                    g.wirelength() + alpha_ilv * g.ilv
                })
                .sum()
        });
        if self.model.alpha_temp > 0.0 {
            let alpha_temp = self.model.alpha_temp;
            let cell_power = &self.cell_power;
            let cell_resistance = &self.cell_resistance;
            total += parallel::sum_chunks(cell_power.len(), SUM_MIN_CHUNK, |range| {
                cell_resistance[range.clone()]
                    .iter()
                    .zip(&cell_power[range])
                    .map(|(r, p)| alpha_temp * r * p)
                    .sum()
            });
        }
        total
    }

    /// The current objective value.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The current placement.
    #[inline]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The objective model this evaluator prices against.
    #[inline]
    pub fn model(&self) -> &ObjectiveModel {
        self.model
    }

    /// Consumes the evaluator, returning the placement.
    pub fn into_placement(self) -> Placement {
        self.placement
    }

    /// Geometry of net `e`.
    #[inline]
    pub fn net_geometry(&self, e: NetId) -> NetGeometry {
        self.nets[e.index()].geometry()
    }

    /// Cached power of `cell` (Eq. 10), W.
    ///
    /// Maintained incrementally only while the thermal term is active
    /// (`alpha_temp > 0`); with the term off the cache stays at its last
    /// [`rebuild`](Self::rebuild) value — it never enters the objective
    /// then, and every consumer either scales it by `alpha_temp` or
    /// recomputes from the model.
    #[inline]
    pub fn cell_power(&self, cell: CellId) -> f64 {
        self.cell_power[cell.index()]
    }

    /// Cached thermal resistance of `cell`, K/W. Same maintenance
    /// contract as [`cell_power`](Self::cell_power).
    #[inline]
    pub fn cell_resistance(&self, cell: CellId) -> f64 {
        self.cell_resistance[cell.index()]
    }

    fn resistance_at(&self, cell: CellId, pos: (f64, f64, u16)) -> f64 {
        resistance_at(self.model, self.netlist, cell, pos)
    }

    /// The staged (if any) or committed geometry of a net.
    #[inline]
    fn staged_geometry(&self, ws: &DeltaWorkspace, e: NetId) -> NetGeometry {
        let ei = e.index();
        if ws.net_stamp[ei] == ws.epoch {
            ws.net_entries[ws.net_slot[ei] as usize].1.geometry()
        } else {
            self.nets[ei].geometry()
        }
    }

    /// Rescan of net `e` with all staged moves plus the candidate applied.
    fn rescan(
        &self,
        ws: &DeltaWorkspace,
        e: NetId,
        cell: CellId,
        pos: (f64, f64, u16),
    ) -> NetExtremes {
        let mut ext = NetExtremes::default();
        for &p in self.netlist.net_pins(e) {
            let pin = self.netlist.pin(p);
            let c = pin.cell();
            let cpos = if c == cell {
                pos
            } else {
                ws.effective_position(&self.placement, c)
            };
            ext.accumulate(cpos.0 + pin.offset_x(), cpos.1 + pin.offset_y(), cpos.2);
        }
        ext
    }

    /// Prices one move on top of the staged state, staging its geometry,
    /// power, and resistance effects. The returned delta is exactly what
    /// committing this move (after the already-staged ones) adds to
    /// `total`.
    fn price_move(&self, ws: &mut DeltaWorkspace, cell: CellId, pos: (f64, f64, u16)) -> f64 {
        let alpha_ilv = self.model.alpha_ilv;
        let alpha_temp = self.model.alpha_temp;
        let old_pos = ws.effective_position(&self.placement, cell);
        let mut delta = 0.0;
        ws.drivers.clear();

        for idx in self.cell_nets.range(cell) {
            let (e, plo, phi) = self.cell_nets.entries[idx];
            let ei = e.index();
            let staged = ws.net_stamp[ei] == ws.epoch;
            let old_ext = if staged {
                ws.net_entries[ws.net_slot[ei] as usize].1
            } else {
                self.nets[ei]
            };
            let mut new_ext = old_ext;
            let mut ok = true;
            for &p in &self.cell_nets.pins[plo as usize..phi as usize] {
                let pin = self.netlist.pin(p);
                let (dx, dy) = (pin.offset_x(), pin.offset_y());
                if !new_ext.update(
                    (old_pos.0 + dx, old_pos.1 + dy, old_pos.2),
                    (pos.0 + dx, pos.1 + dy, pos.2),
                ) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                new_ext = self.rescan(ws, e, cell, pos);
            }
            let og = old_ext.geometry();
            let ng = new_ext.geometry();
            delta += (ng.wirelength() - og.wirelength()) + alpha_ilv * (ng.ilv - og.ilv);
            if staged {
                ws.net_entries[ws.net_slot[ei] as usize].1 = new_ext;
            } else {
                ws.net_stamp[ei] = ws.epoch;
                ws.net_slot[ei] = ws.net_entries.len() as u32;
                ws.net_entries.push((e, new_ext));
            }
            if alpha_temp > 0.0 && ng != og {
                note_driver(self.netlist, e, cell, &mut ws.drivers);
            }
        }

        if alpha_temp > 0.0 {
            // Price against the staged state, then stage the new powers
            // and the moved cell's new resistance.
            let r_new = self.resistance_at(cell, pos);
            let mut new_power = std::mem::take(&mut ws.new_power);
            new_power.clear();
            delta = {
                let ws: &DeltaWorkspace = ws;
                thermal_tail(
                    self.model,
                    self.netlist,
                    cell,
                    r_new,
                    &ws.drivers,
                    |c| {
                        let ci = c.index();
                        let p = if ws.power_stamp[ci] == ws.epoch {
                            ws.power_val[ci]
                        } else {
                            self.cell_power[ci]
                        };
                        let r = if ws.res_stamp[ci] == ws.epoch {
                            ws.res_val[ci]
                        } else {
                            self.cell_resistance[ci]
                        };
                        (p, r)
                    },
                    |e| self.staged_geometry(ws, e),
                    |p| new_power.push(p),
                    delta,
                )
            };
            for (&c, &p) in ws.drivers.iter().chain([&cell]).zip(&new_power) {
                let ci = c.index();
                if ws.power_stamp[ci] != ws.epoch {
                    ws.power_stamp[ci] = ws.epoch;
                    ws.power_cells.push(c);
                }
                ws.power_val[ci] = p;
            }
            let ci = cell.index();
            if ws.res_stamp[ci] != ws.epoch {
                ws.res_stamp[ci] = ws.epoch;
                ws.res_cells.push(cell);
            }
            ws.res_val[ci] = r_new;
            ws.new_power = new_power;
        }

        ws.moves.push((cell, pos));
        ws.deltas.push(delta);
        delta
    }

    /// Patches all staged values into the caches.
    fn commit(&mut self, ws: &DeltaWorkspace) {
        for &(e, ext) in &ws.net_entries {
            self.nets[e.index()] = ext;
        }
        for &c in &ws.power_cells {
            self.cell_power[c.index()] = ws.power_val[c.index()];
        }
        for &c in &ws.res_cells {
            self.cell_resistance[c.index()] = ws.res_val[c.index()];
        }
        for &(c, (x, y, l)) in &ws.moves {
            self.placement.set(c, x, y, l);
        }
        for &d in &ws.deltas {
            self.total += d;
        }
    }

    /// (Re)builds the probe cache for `cell`: each incident net's
    /// extremes with the cell's own pins scanned out, plus the committed
    /// geometry. O(sum of incident net degrees) — amortized away when a
    /// cell is probed with several candidates between commits, which is
    /// exactly how the coarse and detail loops price.
    fn build_probe_cache(&self, ws: &mut DeltaWorkspace, cell: CellId) {
        for idx in self.cell_nets.range(cell) {
            ws.probe_entries[idx] = probe_entry_at(
                self.netlist,
                &self.placement,
                &self.nets,
                &self.cell_nets,
                idx,
                cell,
            );
        }
        ws.cell_probe_version[cell.index()] = ws.probe_version;
    }

    /// True in WL-only mode, where a single move commits in place and
    /// moves of cells on disjoint nets price independently. The thermal
    /// term needs staged power bookkeeping for both: a commit updates
    /// power and resistance caches, and two such moves can share a
    /// driver whose power both change.
    #[inline]
    fn fast_probes(&self) -> bool {
        self.model.alpha_temp == 0.0
    }

    /// A [`FrozenPricer`] snapshot of the committed state, pricing the
    /// full objective (thermal term included when `alpha_temp > 0`).
    pub fn frozen_pricer(&self) -> FrozenPricer<'_> {
        FrozenPricer {
            netlist: self.netlist,
            model: self.model,
            placement: &self.placement,
            nets: &self.nets,
            cell_power: &self.cell_power,
            cell_resistance: &self.cell_resistance,
            cell_nets: &self.cell_nets,
        }
    }

    /// Objective change if `cell` moved to `(x, y, layer)`, without
    /// committing. Read-only and allocation-free. Negative is an
    /// improvement.
    ///
    /// Prices against the cell's cached exclusion extremes (built on
    /// miss, kept until the next commit): per incident net six
    /// branchless min/max folds, never a rescan, through the same code
    /// as [`FrozenPricer::delta_move`]. Bitwise equal to the staged path
    /// a commit takes — both derive each net's new geometry from the
    /// same pin multiset and subtract the same committed geometry, in
    /// the same CSR order, and share one thermal arithmetic.
    pub fn delta_move(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        let mut ws = self.pricing.borrow_mut();
        let ws = &mut *ws;
        if ws.cell_probe_version[cell.index()] != ws.probe_version {
            self.build_probe_cache(ws, cell);
        }
        self.frozen_pricer().price(
            &ws.probe_entries[self.cell_nets.range(cell)],
            &mut ws.probe_geometry,
            &mut ws.drivers,
            cell,
            (x, y, layer),
        )
    }

    /// Objective change for executing `moves` in order (later moves are
    /// priced on top of earlier ones), without committing. The sum equals
    /// folding the per-move deltas left to right, exactly as
    /// [`apply_moves`](Self::apply_moves) would add them to `total`.
    pub fn delta_moves(&self, moves: &[CellMove]) -> f64 {
        match moves {
            [m] => self.delta_move(m.cell, m.x, m.y, m.layer),
            [a, b] if self.fast_probes() && self.nets_disjoint(a.cell, b.cell) => {
                // Disjoint cells price independently: the staged path
                // would see no cross-talk between the two legs, so two
                // cached probes summed in order are bitwise identical.
                let mut sum = self.delta_move(a.cell, a.x, a.y, a.layer);
                sum += self.delta_move(b.cell, b.x, b.y, b.layer);
                sum
            }
            _ => {
                let mut ws = self.pricing.borrow_mut();
                let ws = &mut *ws;
                ws.begin();
                let mut sum = 0.0;
                for m in moves {
                    sum += self.price_move(ws, m.cell, (m.x, m.y, m.layer));
                }
                sum
            }
        }
    }

    /// True when `a` and `b` share no net (their moves price
    /// independently). O(deg(a) · deg(b)) over the distinct-net CSR —
    /// cell degrees are small.
    fn nets_disjoint(&self, a: CellId, b: CellId) -> bool {
        if a == b {
            return false;
        }
        let ra = self.cell_nets.range(a);
        for idx in self.cell_nets.range(b) {
            let (e, _, _) = self.cell_nets.entries[idx];
            if self.cell_nets.entries[ra.clone()]
                .iter()
                .any(|&(e2, _, _)| e2 == e)
            {
                return false;
            }
        }
        true
    }

    /// Objective change for swapping the positions of two cells, without
    /// committing. Read-only: `total`, the caches, and the placement are
    /// untouched.
    pub fn delta_swap(&self, a: CellId, b: CellId) -> f64 {
        let pa = self.placement.position(a);
        let pb = self.placement.position(b);
        self.delta_moves(&[
            CellMove {
                cell: a,
                x: pb.0,
                y: pb.1,
                layer: pb.2,
            },
            CellMove {
                cell: b,
                x: pa.0,
                y: pa.1,
                layer: pa.2,
            },
        ])
    }

    /// Moves `cell` to `(x, y, layer)`, updating all caches. Returns the
    /// objective change that was applied.
    pub fn apply_move(&mut self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        if !self.fast_probes() {
            return self.apply_moves(&[CellMove { cell, x, y, layer }]);
        }
        // WL-only single-move commit: patch the caches in place — the
        // same per-net update-or-rescan and the same delta arithmetic as
        // the staged path, minus the staging round trip. A commit is the
        // staged path's one-move sequence, so the returned delta is
        // bitwise identical (and equals the cached probe's).
        let pos = (x, y, layer);
        let old_pos = self.placement.position(cell);
        let alpha_ilv = self.model.alpha_ilv;
        let mut delta = 0.0;
        for idx in self.cell_nets.range(cell) {
            let (e, plo, phi) = self.cell_nets.entries[idx];
            let old_ext = self.nets[e.index()];
            let mut new_ext = old_ext;
            let mut ok = true;
            for &p in &self.cell_nets.pins[plo as usize..phi as usize] {
                let pin = self.netlist.pin(p);
                let (dx, dy) = (pin.offset_x(), pin.offset_y());
                if !new_ext.update(
                    (old_pos.0 + dx, old_pos.1 + dy, old_pos.2),
                    (pos.0 + dx, pos.1 + dy, pos.2),
                ) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                new_ext = scan_net_extremes(self.netlist, &self.placement, e, &[(cell, pos)]);
            }
            let og = old_ext.geometry();
            let ng = new_ext.geometry();
            delta += (ng.wirelength() - og.wirelength()) + alpha_ilv * (ng.ilv - og.ilv);
            self.nets[e.index()] = new_ext;
        }
        self.placement.set(cell, x, y, layer);
        self.total += delta;
        self.pricing.get_mut().invalidate_probes();
        delta
    }

    /// Executes `moves` in order, updating all caches once. Returns the
    /// total objective change, bitwise equal to what
    /// [`delta_moves`](Self::delta_moves) predicted.
    pub fn apply_moves(&mut self, moves: &[CellMove]) -> f64 {
        let mut ws = self.pricing.take();
        ws.begin();
        let mut sum = 0.0;
        for m in moves {
            sum += self.price_move(&mut ws, m.cell, (m.x, m.y, m.layer));
        }
        self.commit(&ws);
        ws.invalidate_probes();
        *self.pricing.get_mut() = ws;
        sum
    }

    /// Commits one planned row of shift moves. Every entry goes through
    /// the single-move commit path in order, so the caches, `total`, and
    /// the returned summed delta are bitwise identical to calling
    /// [`apply_move`](Self::apply_move) per cell — the contract the
    /// row-parallel shift engine's serial commit phase relies on. Unlike
    /// [`apply_moves`](Self::apply_moves) this never stages: a row plan
    /// touches each cell at most once, so there is no cross-move
    /// dependence to stage for, and in WL+ILV mode every commit takes
    /// the in-place fast path.
    pub fn apply_row_moves(&mut self, moves: &[CellMove]) -> f64 {
        let mut sum = 0.0;
        for m in moves {
            sum += self.apply_move(m.cell, m.x, m.y, m.layer);
        }
        sum
    }

    /// Swaps the positions of two cells. Returns the objective change.
    pub fn apply_swap(&mut self, a: CellId, b: CellId) -> f64 {
        let pa = self.placement.position(a);
        let pb = self.placement.position(b);
        self.apply_moves(&[
            CellMove {
                cell: a,
                x: pb.0,
                y: pb.1,
                layer: pb.2,
            },
            CellMove {
                cell: b,
                x: pa.0,
                y: pa.1,
                layer: pa.2,
            },
        ])
    }

    /// Reference pricing kernel: prices a move by fully rescanning every
    /// incident net's bounding box, one scan per pin — the pre-delta-engine
    /// algorithm. Kept for benches (the speedup baseline) and as an
    /// independent oracle in tests. With `alpha_temp == 0` it returns the
    /// same delta as [`delta_move`](Self::delta_move) bitwise (for
    /// netlists without shared-net pins; with them, this kernel
    /// double-counts — the historical bug the distinct-net CSR fixes).
    pub fn delta_move_rescan(&self, cell: CellId, x: f64, y: f64, layer: u16) -> f64 {
        let pos = (x, y, layer);
        let alpha_ilv = self.model.alpha_ilv;
        let alpha_temp = self.model.alpha_temp;
        let mut delta = 0.0;
        let mut moved_cell_dp = 0.0;
        for &p in self.netlist.cell_pins(cell) {
            let e = self.netlist.pin(p).net();
            let old = self.nets[e.index()].geometry();
            let new = scan_net_bbox(self.netlist, &self.placement, e, cell, pos);
            delta += (new.wirelength() - old.wirelength()) + alpha_ilv * (new.ilv - old.ilv);
            if alpha_temp > 0.0 {
                let dp = self.model.power.s_wl(e) * (new.wirelength() - old.wirelength())
                    + self.model.power.s_ilv(e) * (new.ilv - old.ilv);
                if dp != 0.0 {
                    if let Some(driver) = self.netlist.net_driver_cell(e) {
                        if driver == cell {
                            moved_cell_dp += dp;
                        } else {
                            delta += alpha_temp * self.cell_resistance[driver.index()] * dp;
                        }
                    }
                }
            }
        }
        if alpha_temp > 0.0 {
            let c = cell.index();
            let old_r = self.cell_resistance[c];
            let new_r = self.resistance_at(cell, pos);
            let old_p = self.cell_power[c];
            let new_p = old_p + moved_cell_dp;
            delta += alpha_temp * (new_r * new_p - old_r * old_p);
        }
        delta
    }

    /// Sum of `WL_i` over all nets, meters.
    pub fn total_wirelength(&self) -> f64 {
        self.nets
            .iter()
            .map(|ext| ext.geometry().wirelength())
            .sum()
    }

    /// Sum of `ILV_i` over all nets.
    pub fn total_ilv(&self) -> f64 {
        self.nets.iter().map(|ext| ext.geometry().ilv).sum()
    }

    /// Total dynamic power at the current placement, W.
    pub fn total_power(&self) -> f64 {
        (0..self.netlist.num_nets())
            .map(|e| {
                let g = self.nets[e].geometry();
                self.model
                    .power
                    .net_power(NetId::new(e), g.wirelength(), g.ilv)
            })
            .sum()
    }

    /// Recomputes the objective from scratch and returns it (for
    /// consistency checks; does not modify the caches).
    pub fn recompute_total(&self) -> f64 {
        let mut clone = Self {
            netlist: self.netlist,
            model: self.model,
            placement: self.placement.clone(),
            nets: vec![NetExtremes::default(); self.netlist.num_nets()],
            cell_power: vec![0.0; self.netlist.num_cells()],
            cell_resistance: vec![0.0; self.netlist.num_cells()],
            total: 0.0,
            cell_nets: DistinctNets::default(),
            pricing: RefCell::new(DeltaWorkspace::default()),
        };
        clone.rebuild();
        clone.total
    }

    /// Re-syncs the accumulated `total` with a from-scratch recomputation
    /// and returns the drift (`accumulated − recomputed`) that was
    /// corrected. Called at stage boundaries so float round-off from long
    /// move sequences never compounds across stages.
    pub fn resync_total(&mut self) -> f64 {
        let fresh = self.recompute_total();
        let drift = self.total - fresh;
        self.total = fresh;
        drift
    }
}

fn resistance_at(
    model: &ObjectiveModel,
    netlist: &Netlist,
    cell: CellId,
    (x, y, layer): (f64, f64, u16),
) -> f64 {
    if model.alpha_temp == 0.0 {
        return 0.0; // never read when the thermal term is off
    }
    model.cell_resistance(x, y, layer, netlist.cell(cell).area())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};
    use tvp_bookshelf::synth::{generate, SynthConfig};
    use tvp_netlist::{NetlistBuilder, PinDirection};

    fn fixture(alpha_temp: f64) -> (Netlist, Chip, PlacerConfig) {
        let netlist = generate(&SynthConfig::named("t", 120, 6.0e-10)).unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(alpha_temp);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        (netlist, chip, config)
    }

    fn random_spread(netlist: &Netlist, chip: &Chip, seed: u64) -> Placement {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Placement::centered(netlist.num_cells(), chip);
        for i in 0..netlist.num_cells() {
            p.set(
                CellId::new(i),
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
        }
        p
    }

    #[test]
    fn centered_start_has_zero_wl_and_ilv() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        assert_eq!(obj.total_wirelength(), 0.0);
        assert_eq!(obj.total_ilv(), 0.0);
        assert_eq!(obj.total(), 0.0);
        // Power is still positive: pin capacitances are placement-free.
        assert!(obj.total_power() > 0.0);
    }

    #[test]
    fn incremental_matches_scratch_wl_only() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 1);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..200 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            obj.apply_move(c, x, y, l);
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-9 * scratch.abs().max(1e-12),
            "incremental {} vs scratch {}",
            obj.total(),
            scratch
        );
    }

    #[test]
    fn incremental_matches_scratch_with_thermal() {
        let (netlist, chip, config) = fixture(1.0e-4);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 3);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..200 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            obj.apply_move(c, x, y, l);
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-6 * scratch.abs().max(1e-12),
            "incremental {} vs scratch {}",
            obj.total(),
            scratch
        );
    }

    #[test]
    fn delta_move_is_pure_and_matches_apply() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 5);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let before = obj.total();
        let c = CellId::new(17);
        let d_probe = obj.delta_move(c, chip.width * 0.1, chip.depth * 0.9, 2);
        assert_eq!(obj.total(), before, "delta_move must not mutate");
        let d_applied = obj.apply_move(c, chip.width * 0.1, chip.depth * 0.9, 2);
        assert_eq!(d_probe, d_applied, "probe and commit price identically");
        assert!((obj.total() - (before + d_applied)).abs() < 1e-12 * before.max(1.0));
    }

    #[test]
    fn delta_matches_rescan_reference_wl_only() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 9);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(10);
        for _ in 0..500 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            assert_eq!(
                obj.delta_move(c, x, y, l),
                obj.delta_move_rescan(c, x, y, l),
                "incremental and full-rescan pricing must agree bitwise"
            );
        }
    }

    #[test]
    fn cached_probe_matches_staged_commit_wl_only() {
        // WL-only probes go through the exclusion-cache fast path while
        // commits price through the staged path; the two must agree
        // bitwise, for moves and for swaps (disjoint and net-sharing).
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 11);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut shared = 0;
        for i in 0..500 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            if i % 3 == 0 {
                let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
                if b == c {
                    b = CellId::new((b.index() + 1) % netlist.num_cells());
                }
                if netlist
                    .cell_nets(c)
                    .any(|e| netlist.cell_nets(b).any(|e2| e2 == e))
                {
                    shared += 1;
                }
                let probe = obj.delta_swap(c, b);
                let applied = obj.apply_swap(c, b);
                assert_eq!(probe, applied, "swap probe == staged commit");
            } else {
                let x = rng.random_range(0.0..chip.width);
                let y = rng.random_range(0.0..chip.depth);
                let l = rng.random_range(0..chip.num_layers as u16);
                let probe = obj.delta_move(c, x, y, l);
                let applied = obj.apply_move(c, x, y, l);
                assert_eq!(probe, applied, "move probe == staged commit");
            }
        }
        // The random pairs must have covered both swap pricing paths.
        assert!(shared > 0, "no net-sharing swap pair was exercised");
    }

    #[test]
    fn delta_swap_probe_leaves_everything_bitwise_unchanged() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 6);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        let snapshot = obj.clone();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let a = CellId::new(rng.random_range(0..netlist.num_cells()));
            let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
            if b == a {
                b = CellId::new((b.index() + 1) % netlist.num_cells());
            }
            let _ = obj.delta_swap(a, b);
        }
        // `total`, every cache, and the placement are bitwise untouched.
        assert_eq!(obj.total(), snapshot.total());
        assert_eq!(obj.nets, snapshot.nets);
        assert_eq!(obj.cell_power, snapshot.cell_power);
        assert_eq!(obj.cell_resistance, snapshot.cell_resistance);
        assert_eq!(obj.placement, snapshot.placement);
    }

    #[test]
    fn delta_swap_probe_matches_apply() {
        let (netlist, chip, config) = fixture(5.0e-5);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 6);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let before = obj.total();
        let pa = obj.placement().position(CellId::new(1));
        let pb = obj.placement().position(CellId::new(2));
        let probe = obj.delta_swap(CellId::new(1), CellId::new(2));
        assert_eq!(obj.total(), before, "probe must not perturb total");
        assert_eq!(obj.placement().position(CellId::new(1)), pa);
        assert_eq!(obj.placement().position(CellId::new(2)), pb);
        let applied = obj.apply_swap(CellId::new(1), CellId::new(2));
        assert_eq!(probe, applied, "swap probe and commit price identically");
        assert_eq!(obj.placement().position(CellId::new(1)), pb);
        assert_eq!(obj.placement().position(CellId::new(2)), pa);
    }

    #[test]
    fn shared_net_pins_price_each_net_once() {
        // A cell with two pins on the same net: the per-pin view counted
        // that net's WL/ILV delta twice. The distinct-net CSR prices it
        // once; the probe must match the true objective change.
        let mut b = NetlistBuilder::new().allow_shared_net_pins();
        let m = b.add_cell("m", 1.0e-6, 1.0e-6);
        let s = b.add_cell("s", 1.0e-6, 1.0e-6);
        let t = b.add_cell("t", 1.0e-6, 1.0e-6);
        let n = b.add_net("n");
        b.connect_with_offset(n, m, PinDirection::Output, -2.0e-7, 0.0)
            .unwrap();
        b.connect_with_offset(n, m, PinDirection::Input, 2.0e-7, 1.0e-7)
            .unwrap();
        b.connect(n, s, PinDirection::Input).unwrap();
        let n2 = b.add_net("n2");
        b.connect(n2, m, PinDirection::Input).unwrap();
        b.connect(n2, t, PinDirection::Output).unwrap();
        let netlist = b.build().unwrap();
        let config = PlacerConfig::new(4)
            .with_alpha_ilv(1.0e-5)
            .with_alpha_temp(1.0e-4);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 21);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);

        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..50 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            let x = rng.random_range(0.0..chip.width);
            let y = rng.random_range(0.0..chip.depth);
            let l = rng.random_range(0..chip.num_layers as u16);
            let before = obj.total();
            let probe = obj.delta_move(c, x, y, l);
            let applied = obj.apply_move(c, x, y, l);
            assert_eq!(probe, applied);
            // The delta must be the true objective change, not the
            // double-counted one: compare against a from-scratch total.
            let scratch = obj.recompute_total();
            assert!(
                (before + applied - scratch).abs() < 1e-9 * scratch.abs().max(1e-15),
                "delta {applied} drifts from scratch change {}",
                scratch - before
            );
        }
        // And the caches stay bitwise equal to a rebuild.
        let mut fresh = obj.clone();
        fresh.rebuild();
        assert_eq!(obj.nets, fresh.nets);
        assert_eq!(obj.cell_power, fresh.cell_power);
        assert_eq!(obj.cell_resistance, fresh.cell_resistance);
    }

    #[test]
    fn caches_stay_bitwise_equal_to_rebuild() {
        for &alpha_temp in &[0.0, 1.0e-4] {
            let (netlist, chip, config) = fixture(alpha_temp);
            let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
            let placement = random_spread(&netlist, &chip, 31);
            let mut obj = IncrementalObjective::new(&netlist, &model, placement);
            let mut rng = SmallRng::seed_from_u64(32);
            for i in 0..500 {
                let c = CellId::new(rng.random_range(0..netlist.num_cells()));
                if i % 3 == 0 {
                    let mut b = CellId::new(rng.random_range(0..netlist.num_cells()));
                    if b == c {
                        b = CellId::new((b.index() + 1) % netlist.num_cells());
                    }
                    obj.apply_swap(c, b);
                } else {
                    obj.apply_move(
                        c,
                        rng.random_range(0.0..chip.width),
                        rng.random_range(0.0..chip.depth),
                        rng.random_range(0..chip.num_layers as u16),
                    );
                }
            }
            let mut fresh = obj.clone();
            fresh.rebuild();
            assert_eq!(obj.nets, fresh.nets, "net extremes == rebuild");
            if alpha_temp > 0.0 {
                // Thermal caches are only maintained while the term is
                // active; with it off they freeze at the rebuild values.
                assert_eq!(obj.cell_power, fresh.cell_power, "cell power == rebuild");
                assert_eq!(
                    obj.cell_resistance, fresh.cell_resistance,
                    "cell resistance == rebuild"
                );
            }
        }
    }

    #[test]
    fn total_drift_stays_bounded_and_resyncs() {
        let (netlist, chip, config) = fixture(1.0e-4);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 41);
        let mut obj = IncrementalObjective::new(&netlist, &model, placement);
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let c = CellId::new(rng.random_range(0..netlist.num_cells()));
            obj.apply_move(
                c,
                rng.random_range(0.0..chip.width),
                rng.random_range(0.0..chip.depth),
                rng.random_range(0..chip.num_layers as u16),
            );
        }
        let scratch = obj.recompute_total();
        assert!(
            (obj.total() - scratch).abs() < 1e-6 * scratch.abs().max(1e-12),
            "accumulated {} vs recomputed {} after 10k moves",
            obj.total(),
            scratch
        );
        let drift = obj.resync_total();
        assert!(drift.abs() < 1e-6 * scratch.abs().max(1e-12));
        assert_eq!(
            obj.total(),
            scratch,
            "resync pins total to the recomputation"
        );
        // A second resync is a no-op.
        assert_eq!(obj.resync_total(), 0.0);
    }

    #[test]
    fn moving_apart_increases_wirelength_term() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        // Pick a cell that actually has nets (the generator can leave a
        // few cells unconnected).
        let connected = (0..netlist.num_cells())
            .map(CellId::new)
            .find(|&c| netlist.cell_nets(c).next().is_some())
            .expect("some connected cell");
        let d = obj.apply_move(connected, 0.0, 0.0, 0);
        assert!(d >= 0.0, "moving a cell away from the pack cannot help");
        assert!(obj.total_wirelength() > 0.0);
    }

    #[test]
    fn ilv_counts_layer_span() {
        let (netlist, chip, config) = fixture(0.0);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut obj = IncrementalObjective::new(
            &netlist,
            &model,
            Placement::centered(netlist.num_cells(), &chip),
        );
        // Move one cell to layer 3: every net it touches now spans 3
        // boundaries.
        let c = CellId::new(0);
        let nets: Vec<NetId> = netlist.cell_nets(c).collect();
        obj.apply_move(c, chip.width / 2.0, chip.depth / 2.0, 3);
        for e in nets {
            assert_eq!(obj.net_geometry(e).ilv, 3.0);
        }
    }

    #[test]
    fn thermal_term_prefers_lower_layers() {
        let (netlist, chip, config) = fixture(1.0e-3);
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let placement = random_spread(&netlist, &chip, 8);
        let obj = IncrementalObjective::new(&netlist, &model, placement);
        // Pick a driver cell and compare moving it down vs up, keeping
        // x/y identical so only the thermal term differs meaningfully.
        let driver = (0..netlist.num_cells())
            .map(CellId::new)
            .find(|&c| netlist.driven_nets(c).next().is_some() && obj.cell_power(c) > 0.0)
            .expect("some driver exists");
        let (x, y, _) = obj.placement().position(driver);
        let d_down = obj.delta_move(driver, x, y, 0);
        let d_up = obj.delta_move(driver, x, y, (chip.num_layers - 1) as u16);
        assert!(
            d_down - d_up < 0.0 - 1e-18 || obj.cell_power(driver) == 0.0,
            "down {d_down} should beat up {d_up} for a powered driver"
        );
    }

    #[test]
    fn extreme_multiplicity_survives_coincident_pins() {
        // Three cells at the same x: moving one off the shared extreme
        // must not force a stale bbox (the multiplicity path), and moving
        // the unique extreme must trigger a correct rescan.
        let mut b = NetlistBuilder::new();
        let c0 = b.add_cell("c0", 1.0e-6, 1.0e-6);
        let c1 = b.add_cell("c1", 1.0e-6, 1.0e-6);
        let c2 = b.add_cell("c2", 1.0e-6, 1.0e-6);
        let n = b.add_net("n");
        b.connect(n, c0, PinDirection::Output).unwrap();
        b.connect(n, c1, PinDirection::Input).unwrap();
        b.connect(n, c2, PinDirection::Input).unwrap();
        let netlist = b.build().unwrap();
        let config = PlacerConfig::new(2);
        let chip = Chip::from_netlist(&netlist, &config).unwrap();
        let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
        let mut p = Placement::centered(3, &chip);
        let (w, d) = (chip.width, chip.depth);
        p.set(c0, 0.0, 0.0, 0);
        p.set(c1, 0.0, d * 0.5, 0);
        p.set(c2, w * 0.5, d * 0.25, 0);
        let mut obj = IncrementalObjective::new(&netlist, &model, p);
        let e = NetId::new(0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.5);
        // Two pins share x_min = 0; moving one away keeps the extreme.
        obj.apply_move(c1, w * 0.25, d * 0.5, 0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.5);
        // Moving the last pin at x_min forces the rescan path.
        obj.apply_move(c0, w * 0.5, 0.0, 0);
        assert_eq!(obj.net_geometry(e).wl_x, w * 0.25);
        let mut fresh = obj.clone();
        fresh.rebuild();
        assert_eq!(obj.nets, fresh.nets);
    }

    /// A random builder design that synth cannot produce: every pin sits
    /// at a nonzero offset from its cell center, and cells regularly
    /// hold several pins on one net (the first pin of every net drives
    /// it, so the thermal term sees drivers whose power moves).
    fn offset_design(seed: u64, cells: usize, nets: usize) -> Netlist {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = NetlistBuilder::new().allow_shared_net_pins();
        let ids: Vec<CellId> = (0..cells)
            .map(|i| b.add_cell(format!("c{i}"), rng.random_range(0.5e-6..2.0e-6), 1.0e-6))
            .collect();
        for n in 0..nets {
            let net = b.add_net(format!("n{n}"));
            let degree = rng.random_range(2..6usize);
            let mut pins = Vec::with_capacity(degree + 1);
            for _ in 0..degree {
                pins.push(ids[rng.random_range(0..cells)]);
            }
            if rng.random_bool(0.3) {
                pins.push(pins[rng.random_range(0..degree)]); // a second pin, same net
            }
            for (k, &cell) in pins.iter().enumerate() {
                let direction = if k == 0 {
                    PinDirection::Output
                } else {
                    PinDirection::Input
                };
                let (ox, oy) = (
                    rng.random_range(-4.0e-7..4.0e-7),
                    rng.random_range(-4.0e-7..4.0e-7),
                );
                b.connect_with_offset(net, cell, direction, ox, oy).unwrap();
            }
        }
        b.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// With the thermal term on, the live probe `delta_move` is
        /// bitwise equal to the staged path a commit takes, and the
        /// frozen snapshot probe — scratch and memo paths alike — to the
        /// live probe, on designs with pin offsets and shared-net pins.
        /// A memo cache kept across commits and patched by
        /// `invalidate_moved` must keep pricing like a fresh build.
        #[test]
        fn frozen_thermal_probe_is_bitwise_the_live_probe(
            seed in 0u64..10_000,
            cells in 12usize..40,
            alpha_exp in 3i32..8,
        ) {
            let netlist = offset_design(seed, cells, cells + cells / 2);
            let config = PlacerConfig::new(4)
                .with_alpha_ilv(1.0e-5)
                .with_alpha_temp(10f64.powi(-alpha_exp));
            let chip = Chip::from_netlist(&netlist, &config).unwrap();
            let model = ObjectiveModel::new(&netlist, &chip, &config).unwrap();
            let mut obj =
                IncrementalObjective::new(&netlist, &model, random_spread(&netlist, &chip, seed));
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7E57);
            let probe = |rng: &mut SmallRng| {
                (
                    CellId::new(rng.random_range(0..netlist.num_cells())),
                    rng.random_range(0.0..chip.width),
                    rng.random_range(0.0..chip.depth),
                    rng.random_range(0..chip.num_layers as u16),
                )
            };
            let mut cache = FrozenSharedCache::new(netlist.num_cells());
            for _round in 0..4 {
                {
                    let frozen = obj.frozen_pricer();
                    let mut scratch = FrozenScratch::default();
                    let mut memo_scratch = FrozenScratch::default();
                    let fresh = FrozenSharedCache::new(netlist.num_cells());
                    for _ in 0..40 {
                        let (c, x, y, l) = probe(&mut rng);
                        let live = obj.delta_move(c, x, y, l);
                        let staged = obj.clone().apply_move(c, x, y, l);
                        proptest::prop_assert_eq!(live.to_bits(), staged.to_bits());
                        let snap = frozen.delta_move(&mut scratch, c, x, y, l);
                        let kept = frozen.delta_move_memo(&cache, &mut memo_scratch, c, x, y, l);
                        let built = frozen.delta_move_memo(&fresh, &mut memo_scratch, c, x, y, l);
                        proptest::prop_assert_eq!(live.to_bits(), snap.to_bits());
                        proptest::prop_assert_eq!(live.to_bits(), kept.to_bits());
                        proptest::prop_assert_eq!(live.to_bits(), built.to_bits());
                    }
                }
                // Commit a few moves; only their neighborhoods' memo
                // entries are dropped, the rest carry into the next
                // snapshot.
                let mut moved = Vec::new();
                for _ in 0..3 {
                    let (c, x, y, l) = probe(&mut rng);
                    obj.apply_move(c, x, y, l);
                    moved.push(c);
                }
                cache.invalidate_moved(&netlist, &moved);
            }
        }
    }
}
