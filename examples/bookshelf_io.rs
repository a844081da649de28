//! Bookshelf I/O: write a benchmark to the GSRC text formats, read it
//! back, and floorplan the parsed copy — the workflow for running the
//! real GSRC/MCNC releases through this crate.
//!
//! ```sh
//! cargo run --release --example bookshelf_io
//! ```

use gfp::core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp::netlist::{bookshelf, suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Export the synthetic n10 to the standard bookshelf triple.
    let bench = suite::gsrc_n10();
    let files = bookshelf::write(&bench.netlist, 1.0 / 3.0, 3.0);
    let dir = std::env::temp_dir().join("gfp_bookshelf_demo");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("n10.blocks"), &files.blocks)?;
    std::fs::write(dir.join("n10.nets"), &files.nets)?;
    std::fs::write(dir.join("n10.pl"), &files.pl)?;
    println!("wrote bookshelf files to {}", dir.display());

    // Read them back, as one would with the real benchmark release.
    let reread = bookshelf::BookshelfFiles {
        blocks: std::fs::read_to_string(dir.join("n10.blocks"))?,
        nets: std::fs::read_to_string(dir.join("n10.nets"))?,
        pl: std::fs::read_to_string(dir.join("n10.pl"))?,
    };
    let netlist = bookshelf::parse(&reread)?;
    println!(
        "parsed back: {} modules, {} pads, {} nets",
        netlist.num_modules(),
        netlist.pads().len(),
        netlist.nets().len()
    );

    // Floorplan the parsed copy.
    let problem = GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::default())?;
    let mut settings = FloorplannerSettings::fast();
    settings.max_iter = 4;
    let result = SolveSupervisor::new(settings).solve(&problem).floorplan;
    println!(
        "floorplanned parsed netlist: {} iterations, rank gap {:.2e}",
        result.iterations, result.rank_gap
    );
    Ok(())
}
