//! §III-C launch tuning: the paper's grid search over threads-per-block
//! (powers of two, 32…1024) and blocks-per-SM (1…16), concluding that
//! "64 threads per block and 8 blocks per multiprocessor" is optimal or
//! nearly optimal across graphs and devices, with other ~512-threads-per-SM
//! combinations matching on the GTX 980 but not on the older cards.

use tc_core::count::{Backend, GpuOptions};
use tc_gen::suite::GraphSpec;
use tc_simt::{DeviceConfig, LaunchConfig};

use crate::report::Table;

use super::{gpu_run, ExpConfig};

/// One grid cell.
#[derive(Clone, Debug)]
pub struct Cell {
    pub device: &'static str,
    pub threads_per_block: u32,
    pub blocks_per_sm: u32,
    pub kernel_ms: f64,
}

/// The paper's tuned point.
pub const PAPER_THREADS: u32 = 64;
pub const PAPER_BLOCKS_PER_SM: u32 = 8;

/// Sweep the launch grid on the LiveJournal analog for the given device.
/// `thin` subsamples blocks-per-SM (1, 2, 4, 8, 16) to keep the smoke
/// configuration fast; the full 1..=16 sweep runs at bench scale.
pub fn run_device(cfg: &ExpConfig, device: &DeviceConfig, thin: bool) -> Vec<Cell> {
    let g = GraphSpec::LiveJournal.generate(cfg.scale, cfg.seed);
    let mut cells = Vec::new();
    let blocks_axis: Vec<u32> = if thin {
        vec![1, 2, 4, 8, 16]
    } else {
        (1..=16).collect()
    };
    for threads in [32u32, 64, 128, 256, 512, 1024] {
        if threads > device.max_threads_per_sm {
            continue;
        }
        for &bpsm in &blocks_axis {
            // Skip configurations the occupancy limits would clamp anyway
            // (they alias a smaller resident set and waste grid slots).
            if bpsm > device.resident_blocks(threads) {
                continue;
            }
            let mut opts = GpuOptions::new(device.clone().with_unlimited_memory());
            opts.launch = Some(LaunchConfig::new(bpsm * device.num_sms, threads));
            let report = gpu_run(&g, Backend::Gpu(opts)).expect("tuning pipeline");
            cells.push(Cell {
                device: device.name,
                threads_per_block: threads,
                blocks_per_sm: bpsm,
                kernel_ms: report.kernel.time_s * 1e3,
            });
        }
    }
    cells
}

/// Run the sweep on the GTX 980 and Tesla C2050 presets.
pub fn run(cfg: &ExpConfig) -> Vec<Cell> {
    let thin = cfg.scale == tc_gen::Scale::Smoke;
    let mut cells = run_device(cfg, &DeviceConfig::gtx_980(), thin);
    cells.extend(run_device(cfg, &DeviceConfig::tesla_c2050(), thin));
    cells
}

/// The best cell per device, plus how close the paper's 64×8 sits to it.
pub fn paper_point_gap(cells: &[Cell], device: &str) -> Option<(f64, f64)> {
    let best = cells
        .iter()
        .filter(|c| c.device == device)
        .map(|c| c.kernel_ms)
        .fold(f64::MAX, f64::min);
    let paper = cells
        .iter()
        .find(|c| {
            c.device == device
                && c.threads_per_block == PAPER_THREADS
                && c.blocks_per_sm == PAPER_BLOCKS_PER_SM
        })?
        .kernel_ms;
    Some((best, paper))
}

pub fn render(cells: &[Cell]) -> Table {
    let mut t = Table::new(
        "Section III-C: launch-tuning grid (counting-kernel ms on the livejournal analog; * = paper's 64x8)",
        &["device", "threads/block", "blocks/SM", "kernel [ms]"],
    );
    for c in cells {
        let star = if c.threads_per_block == PAPER_THREADS && c.blocks_per_sm == PAPER_BLOCKS_PER_SM
        {
            " *"
        } else {
            ""
        };
        t.push(vec![
            c.device.to_string(),
            c.threads_per_block.to_string(),
            format!("{}{}", c.blocks_per_sm, star),
            format!("{:.4}", c.kernel_ms),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_contains_paper_point_and_it_is_competitive() {
        let cfg = ExpConfig::smoke();
        let cells = run_device(&cfg, &DeviceConfig::gtx_980(), true);
        assert!(!cells.is_empty());
        let (best, paper) = paper_point_gap(&cells, "GTX 980").expect("64x8 in grid");
        // The paper's point must be within 2x of the grid optimum even at
        // smoke scale (at bench scale it is nearly optimal).
        assert!(paper <= 2.0 * best, "paper 64x8 {paper} vs best {best}");
        // Degenerate launches must be clearly worse than the best.
        let worst = cells.iter().map(|c| c.kernel_ms).fold(0.0f64, f64::max);
        assert!(worst > 1.2 * best, "grid should show real spread");
    }
}
