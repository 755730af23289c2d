//! Adversarial netlist shapes: degenerate topologies a robust placer must
//! survive (and stay legal on), even though no sane benchmark looks like
//! this.

use tvp_core::detail::check_legal;
use tvp_core::{
    validate, DiagnosticCode, PlaceError, PlaceOptions, Placer, PlacerConfig, ValidateOptions,
};
use tvp_netlist::{BuildNetlistError, CellId, CellKind, Netlist, NetlistBuilder, PinDirection};

fn place_and_check(netlist: &Netlist, layers: usize) {
    let result = Placer::new(PlacerConfig::new(layers))
        .place(netlist)
        .expect("placement succeeds");
    assert_eq!(
        check_legal(netlist, &result.chip, &result.placement),
        None,
        "placement must be legal"
    );
}

#[test]
fn one_giant_net_connecting_everything() {
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..120)
        .map(|i| b.add_cell(format!("c{i}"), 2e-6, 1.6e-6))
        .collect();
    let net = b.add_net("everything");
    for (i, &c) in cells.iter().enumerate() {
        let dir = if i == 0 {
            PinDirection::Output
        } else {
            PinDirection::Input
        };
        b.connect(net, c, dir).unwrap();
    }
    place_and_check(&b.build().unwrap(), 2);
}

#[test]
fn completely_disconnected_cells() {
    let mut b = NetlistBuilder::new();
    for i in 0..100 {
        b.add_cell(format!("c{i}"), 2e-6, 1.6e-6);
    }
    place_and_check(&b.build().unwrap(), 4);
}

#[test]
fn single_cell_design() {
    let mut b = NetlistBuilder::new();
    b.add_cell("only", 2e-6, 1.6e-6);
    place_and_check(&b.build().unwrap(), 1);
    let mut b = NetlistBuilder::new();
    b.add_cell("only", 2e-6, 1.6e-6);
    place_and_check(&b.build().unwrap(), 4);
}

#[test]
fn chain_topology() {
    // A single long chain: pathological for balance-driven bisection.
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..150)
        .map(|i| b.add_cell(format!("c{i}"), 2e-6, 1.6e-6))
        .collect();
    for w in cells.windows(2) {
        let n = b.add_net(format!("n{}", w[0].index()));
        b.connect(n, w[0], PinDirection::Output).unwrap();
        b.connect(n, w[1], PinDirection::Input).unwrap();
    }
    let netlist = b.build().unwrap();
    place_and_check(&netlist, 2);
}

#[test]
fn one_enormous_cell_among_ants() {
    // One cell 30× wider than the rest: stresses row packing and the
    // capacity slack.
    let mut b = NetlistBuilder::new();
    let big = b.add_cell("whale", 60e-6, 1.6e-6);
    let mut prev = big;
    for i in 0..80 {
        let c = b.add_cell(format!("c{i}"), 2e-6, 1.6e-6);
        let n = b.add_net(format!("n{i}"));
        b.connect(n, prev, PinDirection::Output).unwrap();
        b.connect(n, c, PinDirection::Input).unwrap();
        prev = c;
    }
    let netlist = b.build().unwrap();
    let result = Placer::new(PlacerConfig::new(2)).place(&netlist).unwrap();
    assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);
    // The whale must fit inside the chip.
    let (x, _, _) = result.placement.position(big);
    let half = netlist.cell(big).area() / result.chip.row_height / 2.0;
    assert!(x - half >= -1e-9 && x + half <= result.chip.width + 1e-9);
}

#[test]
fn nets_with_single_pins_are_harmless() {
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..60)
        .map(|i| b.add_cell(format!("c{i}"), 2e-6, 1.6e-6))
        .collect();
    // Half the nets are degenerate single-pin stubs.
    for (i, &c) in cells.iter().enumerate() {
        let n = b.add_net(format!("stub{i}"));
        b.connect(n, c, PinDirection::Output).unwrap();
        if i + 1 < cells.len() && i % 2 == 0 {
            let n2 = b.add_net(format!("pair{i}"));
            b.connect(n2, c, PinDirection::Input).unwrap();
            b.connect(n2, cells[i + 1], PinDirection::Output).unwrap();
        }
    }
    place_and_check(&b.build().unwrap(), 2);
}

#[test]
fn wildly_mixed_cell_sizes() {
    // Widths spanning a factor 20 with random-ish assignment.
    let mut b = NetlistBuilder::new();
    let mut cells = Vec::new();
    for i in 0..120 {
        let w = 1.0e-6 * (1.0 + (i % 20) as f64);
        cells.push(b.add_cell(format!("c{i}"), w, 1.6e-6));
    }
    for chunk in cells.chunks(5) {
        let n = b.add_net(format!("n{}", chunk[0].index()));
        for (j, &c) in chunk.iter().enumerate() {
            let dir = if j == 0 {
                PinDirection::Output
            } else {
                PinDirection::Input
            };
            b.connect(n, c, dir).unwrap();
        }
    }
    place_and_check(&b.build().unwrap(), 3);
}

#[test]
fn all_cells_fixed_never_panics_and_validate_flags_it() {
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..40)
        .map(|i| b.add_cell_with_kind(format!("p{i}"), 2e-6, 1.6e-6, CellKind::Fixed))
        .collect();
    for w in cells.windows(2) {
        let n = b.add_net(format!("n{}", w[0].index()));
        b.connect(n, w[0], PinDirection::Output).unwrap();
        b.connect(n, w[1], PinDirection::Input).unwrap();
    }
    let netlist = b.build().unwrap();

    // Preflight names the problem precisely.
    let fixed: Vec<(CellId, f64, f64, u16)> = cells
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, 4e-6 * i as f64, 0.8e-6, 0))
        .collect();
    let report = validate(
        &netlist,
        &ValidateOptions {
            fixed_positions: &fixed,
            ..ValidateOptions::default()
        },
    );
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == DiagnosticCode::NoMovableCells));
    assert!(!report.is_placeable());

    // The placer itself must end in a typed error or a legal placement —
    // never a panic.
    match Placer::new(PlacerConfig::new(2)).place_with_options(
        &netlist,
        &fixed,
        PlaceOptions::default(),
    ) {
        Ok(result) => {
            assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);
        }
        Err(e) => {
            let msg = e.to_string();
            assert!(!msg.is_empty(), "typed error with a real message");
        }
    }
}

#[test]
fn zero_movable_area_never_panics() {
    // Movable cells exist but carry (almost) no area: whitespace math,
    // tolerances, and thermal power-per-area all divide by sums that
    // approach zero.
    let mut b = NetlistBuilder::new();
    let tiny = 1.0e-9; // 1 nm wide: area ~ 1e-15 of a normal cell
    let cells: Vec<_> = (0..50)
        .map(|i| b.add_cell(format!("c{i}"), tiny, tiny))
        .collect();
    for w in cells.windows(2) {
        let n = b.add_net(format!("n{}", w[0].index()));
        b.connect(n, w[0], PinDirection::Output).unwrap();
        b.connect(n, w[1], PinDirection::Input).unwrap();
    }
    let netlist = b.build().unwrap();
    match Placer::new(PlacerConfig::new(2)).place(&netlist) {
        Ok(result) => {
            assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);
        }
        Err(e) => assert!(!e.to_string().is_empty()),
    }
}

#[test]
fn single_cell_on_many_layers_stays_legal() {
    // One movable cell spread over deep stacks: every bisection level is
    // degenerate.
    for layers in [1usize, 2, 4, 8] {
        let mut b = NetlistBuilder::new();
        b.add_cell("only", 2e-6, 1.6e-6);
        place_and_check(&b.build().unwrap(), layers);
    }
}

#[test]
fn net_referencing_missing_cell_is_a_typed_build_error() {
    let mut b = NetlistBuilder::new();
    b.add_cell("real", 2e-6, 1.6e-6);
    let n = b.add_net("dangling");
    let ghost = CellId::new(999);
    let err = b
        .connect(n, ghost, PinDirection::Input)
        .expect_err("connecting a never-added cell must fail");
    assert!(matches!(err, BuildNetlistError::UnknownCell(c) if c == ghost));
    // The builder survives the rejected connection and still builds.
    let netlist = b.build().unwrap();
    assert_eq!(netlist.num_cells(), 1);
}

#[test]
fn validate_warns_on_degenerate_nets_and_disconnected_cells() {
    let mut b = NetlistBuilder::new();
    let a = b.add_cell("a", 2e-6, 1.6e-6);
    let c = b.add_cell("b", 2e-6, 1.6e-6);
    b.add_cell("loner", 2e-6, 1.6e-6);
    let pair = b.add_net("pair");
    b.connect(pair, a, PinDirection::Output).unwrap();
    b.connect(pair, c, PinDirection::Input).unwrap();
    let stub = b.add_net("stub");
    b.connect(stub, a, PinDirection::Input).unwrap();
    b.add_net("empty");
    let netlist = b.build().unwrap();

    let report = validate(&netlist, &ValidateOptions::default());
    let codes: Vec<DiagnosticCode> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&DiagnosticCode::SinglePinNet), "{codes:?}");
    assert!(codes.contains(&DiagnosticCode::EmptyNet), "{codes:?}");
    assert!(
        codes.contains(&DiagnosticCode::DisconnectedCell),
        "{codes:?}"
    );
    // All of those are warnings: the design still places.
    assert!(report.is_placeable());
    place_and_check(&netlist, 2);
}

#[test]
fn place_error_display_is_stable_for_empty_netlists() {
    let netlist = NetlistBuilder::new().build().unwrap();
    let err = Placer::new(PlacerConfig::new(2))
        .place(&netlist)
        .expect_err("empty netlist is a typed error");
    assert!(matches!(err, PlaceError::EmptyNetlist));
}

#[test]
fn thermal_objective_on_degenerate_designs() {
    // Thermal machinery must survive designs with no switching activity
    // signal (all activities equal) and stub nets.
    let mut b = NetlistBuilder::new();
    let cells: Vec<_> = (0..80)
        .map(|i| b.add_cell(format!("c{i}"), 2e-6, 1.6e-6))
        .collect();
    for w in cells.windows(2) {
        let n = b.add_net(format!("n{}", w[0].index()));
        b.set_switching_activity(n, 0.15).unwrap();
        b.connect(n, w[0], PinDirection::Output).unwrap();
        b.connect(n, w[1], PinDirection::Input).unwrap();
    }
    let netlist = b.build().unwrap();
    let result = Placer::new(PlacerConfig::new(4).with_alpha_temp(1.0e-4))
        .place(&netlist)
        .unwrap();
    assert_eq!(check_legal(&netlist, &result.chip, &result.placement), None);
    assert!(result.metrics.avg_temperature > 0.0);
}
