//! Bitwise placement regression for the hotpaths reference designs.
//!
//! The threading contract says the pipeline's result is a pure function
//! of the input and the seed — never the worker count. These tests pin
//! that promise on the exact designs the hotpaths harness uses: the
//! FNV-1a digest of every cell's `(x, y, layer)` bits must be identical
//! at 1, 2, and 4 threads. Any divergence means a reduction or
//! work-decomposition order leaked thread count into the math.
//!
//! (The digest itself is hardware-run history, not an assertion: pinning
//! the literal would couple the test to one libm/CPU; pinning
//! cross-thread equality catches the bugs this guards against on every
//! machine. On the reference box the 1k value was `ebbdbc0c5bcd4a79`
//! through the serial coarse-pass era and moved to `eb13799fa98c9973`
//! when the coarse global/local passes switched to the batched
//! propose/commit engine — a documented transition with measured quality
//! parity: objective 2.400667e-2 vs 2.340347e-2 (+2.6%, noise-scale at
//! 1k) and at 10k (`91c23d0deb32ba2f`) objective 5.462374e-1 vs
//! 5.460820e-1 (+0.03%) with ILV *improved* 8974 → 8837. The digests
//! moved a second time when cell shifting switched to the row-parallel
//! frozen-pricing engine with stall-detected convergence-adaptive
//! spreads (DESIGN.md §17): 1k `eb13799fa98c9973` → `f82aa0d01e436964`
//! with objective 2.400667e-2 → 2.403208e-2 (+0.11%) and 10k
//! `91c23d0deb32ba2f` → `c71075bc67d2a904` with objective 5.462374e-1 →
//! 5.475507e-1 (+0.24%), ILV 8837 → 8846 — noise-scale both ways.
//! The thermal-mode reference (1k, α_TEMP 1e-4) moved `a16e1be21c8a1f7c`
//! → `5ffb710d8971ca6b` when thermal mode left the serial coarse loops
//! for the batched engines with exact snapshot thermal pricing (DESIGN.md
//! §17, "thermal digest transition"); the WL digests above did not move.)

use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::{Degradation, Placer, PlacerConfig};
use tvp_netlist::CellId;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Places the reference design with thermal coefficient `alpha_temp` and
/// returns the digest of its placement plus the relaxed-tolerance
/// bisection retries global placement made.
fn place_reference(cells: usize, threads: usize, alpha_temp: f64) -> (u64, usize) {
    let netlist =
        generate(&SynthConfig::named("hot", cells, cells as f64 * 5.0e-12)).expect("synth");
    let placer = Placer::new(
        PlacerConfig::new(4)
            .with_partition_starts(4)
            .with_alpha_temp(alpha_temp)
            .with_threads(threads),
    );
    let result = placer.place(&netlist).expect("placement succeeds");
    let mut bytes = Vec::with_capacity(netlist.num_cells() * 18);
    for i in 0..netlist.num_cells() {
        let (x, y, layer) = result.placement.position(CellId::new(i));
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        bytes.extend_from_slice(&y.to_bits().to_le_bytes());
        bytes.extend_from_slice(&layer.to_le_bytes());
    }
    let retries = result
        .degradations
        .iter()
        .find_map(|d| match d {
            Degradation::PartitionRetried { retries } => Some(*retries),
            _ => None,
        })
        .unwrap_or(0);
    (fnv1a(&bytes), retries)
}

#[test]
fn reference_1k_placement_hash_is_identical_across_threads() {
    let (serial, retries) = place_reference(1000, 1, 0.0);
    // Relaxed-tolerance retries count re-run region bisections, not
    // faults (`GlobalStats::partition_retries`); this clean run needs
    // none.
    assert_eq!(retries, 0, "1k clean-run partition retries");
    for threads in [2usize, 4] {
        assert_eq!(
            (serial, retries),
            place_reference(1000, threads, 0.0),
            "placement digest diverged at threads={threads}"
        );
    }
}

/// The 10k design drives the batched coarse engine through many more
/// batches (and the parallel phase-A chunking through many more chunk
/// boundaries) than the 1k design does, so it exercises the
/// deterministic-merge contract where it is most likely to break.
#[test]
fn reference_10k_placement_hash_is_identical_across_threads() {
    let serial = place_reference(10_000, 1, 0.0);
    // Clean runs retry routinely once regions get tight tolerances.
    assert!(serial.1 > 0, "10k clean run made no partition retries");
    for threads in [2usize, 4] {
        assert_eq!(
            serial,
            place_reference(10_000, threads, 0.0),
            "placement digest diverged at threads={threads}"
        );
    }
}

/// The paper's thermal mode (Eq. 3 with α_TEMP > 0) runs the same
/// batched coarse engines, pricing the thermal term read-only from each
/// snapshot, so its placement must be just as thread-invariant.
#[test]
fn reference_1k_thermal_placement_hash_is_identical_across_threads() {
    let serial = place_reference(1000, 1, 1.0e-4);
    for threads in [2usize, 4] {
        assert_eq!(
            serial,
            place_reference(1000, threads, 1.0e-4),
            "thermal placement digest diverged at threads={threads}"
        );
    }
}
