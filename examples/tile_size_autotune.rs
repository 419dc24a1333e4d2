//! Tile-size auto-tuning: `autotune::tune_plan` probes candidate tile
//! sizes through the calibrated plan selector, choosing the elimination
//! tree jointly with the tile size over one device's measured curves, and
//! compares the winner with the paper's fixed choice of 16.
//!
//! ```text
//! cargo run --release --example tile_size_autotune [probe_size]
//! ```

use tileqr::hetero::{autotune, profiles};

fn main() {
    let probe: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1280);

    let candidates = [4usize, 8, 12, 16, 20, 24, 28, 32, 48, 64];
    println!("probing a {probe}x{probe} matrix at tile sizes {candidates:?} ...");

    // The sweep runs through the plan selector over one calibrated device
    // profile. The service-level online tuner (tileqr::TunedQrService)
    // feeds *measured* profiles into this same selector.
    let device = profiles::paper_testbed(16).device(0).clone();
    let unified = autotune::tune_plan(&device, probe, &candidates);
    println!("\nselector sweep on {}:", device.name);
    println!(" tile |  predicted time (best tree)");
    for (b, secs) in &unified.probes {
        let marker = if *b == unified.best_tile {
            "  <- best"
        } else {
            ""
        };
        println!("{b:>5} |  {secs:>10.5} s{marker}");
    }
    println!("\nauto-tuned tile size: {}", unified.best_tile);
    println!("paper's fixed choice: 16 (\"because the number of cores of the CPU and GPUs are the power of 2\")");
    let time_of = |tile| {
        unified
            .probes
            .iter()
            .find(|(b, _)| *b == tile)
            .map(|&(_, t)| t)
    };
    if let (Some(fixed), Some(best)) = (time_of(16), time_of(unified.best_tile)) {
        println!(
            "auto-tuned vs fixed-16: {:+.1}%",
            100.0 * (best / fixed - 1.0)
        );
    }
    println!("OK");
}
