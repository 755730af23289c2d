//! Bookshelf interoperability: write a placed design to the IBM-PLACE file
//! format and read it back.
//!
//! Real IBM-PLACE benchmarks drop into the same path: point
//! [`tvp_bookshelf::Design::load`] at a downloaded `.aux`, or hand the
//! file texts to [`tvp_bookshelf::Design::assemble_streaming`] as below.
//!
//! ```sh
//! cargo run --release --example bookshelf_roundtrip [outdir]
//! ```

use std::fs;
use std::path::PathBuf;
use tvp_bookshelf::synth::{generate, SynthConfig};
use tvp_bookshelf::{
    write_aux, write_nets, write_nodes, write_pl, write_wts, AuxFile, Design, DesignBuilderOptions,
};
use tvp_core::{Placer, PlacerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let outdir = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "target/bookshelf_demo".to_string()),
    );
    fs::create_dir_all(&outdir)?;

    // Generate and place a small design.
    let netlist = generate(&SynthConfig::named("demo", 600, 3.0e-9))?;
    let result = Placer::new(PlacerConfig::new(2)).place(&netlist)?;
    let positions: Vec<(f64, f64, u32)> = (0..netlist.num_cells())
        .map(|i| {
            let c = tvp_netlist::CellId::new(i);
            let (x, y, l) = result.placement.position(c);
            (x, y, l as u32)
        })
        .collect();
    let design = Design {
        name: "demo".into(),
        netlist,
        positions,
        rows: Vec::new(),
    };

    // Export to Bookshelf text.
    let opts = DesignBuilderOptions::default();
    let (nodes, nets, wts, pl) = design.to_files(opts);
    let pl = pl.expect("positions were provided");
    fs::write(outdir.join("demo.nodes"), write_nodes(&nodes))?;
    fs::write(outdir.join("demo.nets"), write_nets(&nets))?;
    fs::write(outdir.join("demo.wts"), write_wts(&wts))?;
    fs::write(outdir.join("demo.pl"), write_pl(&pl))?;
    let aux = AuxFile {
        style: "RowBasedPlacement".into(),
        files: vec![
            "demo.nodes".into(),
            "demo.nets".into(),
            "demo.wts".into(),
            "demo.pl".into(),
        ],
    };
    fs::write(outdir.join("demo.aux"), write_aux(&aux))?;
    println!("wrote {}", outdir.display());

    // Read everything back and verify the round trip.
    let read = |ext: &str| fs::read_to_string(outdir.join(format!("demo.{ext}")));
    let design2 = Design::assemble_streaming(
        "demo",
        &read("nodes")?,
        &read("nets")?,
        Some(&read("wts")?),
        Some(&read("pl")?),
        None,
        opts,
    )?;

    assert_eq!(design.netlist.num_cells(), design2.netlist.num_cells());
    assert_eq!(design.netlist.num_nets(), design2.netlist.num_nets());
    assert_eq!(design.netlist.num_pins(), design2.netlist.num_pins());
    println!(
        "round trip ok: {} cells, {} nets, {} pins",
        design2.netlist.num_cells(),
        design2.netlist.num_nets(),
        design2.netlist.num_pins()
    );
    Ok(())
}
