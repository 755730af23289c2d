//! Output checks that share no code with the placer's objective.
//!
//! HPWL and ILV are recomputed here from the returned positions and the
//! netlist's pin offsets alone, then compared with what the run reported.

use tvp_core::{detail, Degradation, PlacementResult};
use tvp_netlist::{CellId, Netlist};

/// Relative tolerance for the recomputed wirelength: summation order may
/// differ from the engine's, nothing else may.
const WL_REL_TOL: f64 = 1e-9;

/// Half-perimeter wirelength (m) and interlayer via count of every net,
/// with pin `(x + offset_x, y + offset_y, layer)`.
fn hpwl_and_ilv(netlist: &Netlist, result: &PlacementResult) -> (f64, f64) {
    let placement = &result.placement;
    let (mut wl, mut ilv) = (0.0, 0.0);
    for (net, _) in netlist.iter_nets() {
        let pins = netlist.net_pins(net);
        if pins.is_empty() {
            continue;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut l0, mut l1) = (u16::MAX, 0u16);
        for &p in pins {
            let pin = netlist.pin(p);
            let (x, y, l) = placement.position(pin.cell());
            let (px, py) = (x + pin.offset_x(), y + pin.offset_y());
            x0 = x0.min(px);
            x1 = x1.max(px);
            y0 = y0.min(py);
            y1 = y1.max(py);
            l0 = l0.min(l);
            l1 = l1.max(l);
        }
        wl += (x1 - x0) + (y1 - y0);
        ilv += f64::from(l1 - l0);
    }
    (wl, ilv)
}

/// FNV-1a over every cell's `(x, y, layer)` bits.
fn placement_hash(netlist: &Netlist, result: &PlacementResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in 0..netlist.num_cells() {
        let (x, y, l) = result.placement.position(CellId::new(i));
        eat(x.to_bits());
        eat(y.to_bits());
        eat(u64::from(l));
    }
    h
}

/// The counters every run reports without an observer; they must repeat
/// exactly for one design.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunFingerprint {
    pub placement_hash: u64,
    pub cg_iterations: usize,
    pub partition_retries: usize,
}

fn partition_retries(result: &PlacementResult) -> usize {
    result
        .degradations
        .iter()
        .map(|d| match d {
            Degradation::PartitionRetried { retries } => *retries,
            _ => 0,
        })
        .sum()
}

/// Checks one returned placement: not stopped early, legal, and HPWL/ILV
/// equal to the reported metrics. Returns its fingerprint.
pub fn check_result(netlist: &Netlist, result: &PlacementResult) -> Result<RunFingerprint, String> {
    if result.stopped_early {
        return Err("run stopped early".to_string());
    }
    if result.placement.len() != netlist.num_cells() {
        return Err(format!(
            "placement has {} cells, netlist {}",
            result.placement.len(),
            netlist.num_cells()
        ));
    }
    if let Some(violation) = detail::check_legal(netlist, &result.chip, &result.placement) {
        return Err(format!("illegal placement: {violation}"));
    }
    let (wl, ilv) = hpwl_and_ilv(netlist, result);
    let m = &result.metrics;
    // Written so that a NaN report fails too.
    let wl_agrees = (wl - m.wirelength).abs() <= WL_REL_TOL * wl.abs().max(f64::MIN_POSITIVE);
    if !wl_agrees {
        return Err(format!(
            "wirelength mismatch: recomputed {wl}, reported {}",
            m.wirelength
        ));
    }
    if ilv != m.ilv_count {
        return Err(format!(
            "ILV mismatch: recomputed {ilv}, reported {}",
            m.ilv_count
        ));
    }
    Ok(RunFingerprint {
        placement_hash: placement_hash(netlist, result),
        cg_iterations: result
            .thermal_trajectory
            .iter()
            .map(|s| s.cg_iterations)
            .sum(),
        partition_retries: partition_retries(result),
    })
}
