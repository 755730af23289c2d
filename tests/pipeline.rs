//! End-to-end pipeline integration tests spanning all crates.

use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_core::{Placer, PlacerConfig};

#[test]
fn pipeline_handles_a_range_of_sizes_and_layer_counts() {
    for &(cells, layers) in &[(60usize, 1usize), (200, 2), (350, 4), (150, 6)] {
        let netlist = generate(&SynthConfig::named("pipe", cells, cells as f64 * 5.0e-12)).unwrap();
        let result = Placer::new(PlacerConfig::new(layers))
            .place(&netlist)
            .unwrap_or_else(|e| panic!("{cells} cells / {layers} layers failed: {e}"));
        assert_eq!(result.legalize.placed, cells);
        assert!(result.metrics.wirelength > 0.0);
        assert!(result.metrics.avg_temperature > 0.0);
        if layers == 1 {
            assert_eq!(result.metrics.ilv_count, 0.0);
        }
    }
}

#[test]
fn pipeline_is_deterministic() {
    let netlist = generate(&SynthConfig::named("det", 250, 1.25e-9)).unwrap();
    let config = PlacerConfig::new(4).with_seed(17);
    let a = Placer::new(config.clone()).place(&netlist).unwrap();
    let b = Placer::new(config).place(&netlist).unwrap();
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn different_seeds_give_different_placements_but_similar_quality() {
    let netlist = generate(&SynthConfig::named("seeds", 300, 1.5e-9)).unwrap();
    let a = Placer::new(PlacerConfig::new(2).with_seed(1))
        .place(&netlist)
        .unwrap();
    let b = Placer::new(PlacerConfig::new(2).with_seed(2))
        .place(&netlist)
        .unwrap();
    assert_ne!(a.placement, b.placement);
    let ratio = a.metrics.wirelength / b.metrics.wirelength;
    assert!(
        (0.7..1.4).contains(&ratio),
        "seeds should not change quality wildly: {ratio}"
    );
}

#[test]
fn metrics_totals_are_internally_consistent() {
    let netlist = generate(&SynthConfig::named("cons", 200, 1.0e-9)).unwrap();
    let result = Placer::new(PlacerConfig::new(4)).place(&netlist).unwrap();
    let m = &result.metrics;
    // Objective with α_TEMP = 0 is exactly WL + α_ILV·ILV.
    let expected = m.wirelength + 1.0e-5 * m.ilv_count;
    assert!(
        (m.objective - expected).abs() < 1e-9 * expected,
        "objective {} vs WL+αILV·ILV {}",
        m.objective,
        expected
    );
    assert!(m.max_temperature >= m.avg_temperature);
    assert!(m.ilv_density_per_interlayer > 0.0);
}

#[test]
fn more_partition_starts_do_not_hurt_quality_much() {
    let netlist = generate(&SynthConfig::named("starts", 250, 1.25e-9)).unwrap();
    let one = Placer::new(PlacerConfig::new(2).with_partition_starts(1))
        .place(&netlist)
        .unwrap();
    let four = Placer::new(PlacerConfig::new(2).with_partition_starts(4))
        .place(&netlist)
        .unwrap();
    // §7: more restarts buy quality; allow noise but catch regressions.
    assert!(
        four.metrics.objective < one.metrics.objective * 1.10,
        "4 starts: {}, 1 start: {}",
        four.metrics.objective,
        one.metrics.objective
    );
}

#[test]
fn bookshelf_design_places_like_a_generated_netlist() {
    // Export a synthetic design to Bookshelf text, reassemble it, and
    // verify the placer accepts the reassembled netlist.
    use tvp_bookshelf::{write_nets, write_nodes, Design, DesignBuilderOptions};
    let netlist = generate(&SynthConfig::named("bs", 150, 7.5e-10)).unwrap();
    let design = Design::from_netlist("bs", netlist);
    let opts = DesignBuilderOptions::default();
    let (nodes, nets, _, _) = design.to_files(opts);
    let design2 = Design::assemble_streaming(
        "bs2",
        &write_nodes(&nodes),
        &write_nets(&nets),
        None,
        None,
        None,
        opts,
    )
    .unwrap();
    let result = Placer::new(PlacerConfig::new(2))
        .place(&design2.netlist)
        .unwrap();
    assert_eq!(result.legalize.placed, 150);
}
