//! One module per paper experiment. Each exposes `run(&ExpConfig)`
//! returning typed rows and `render(...)` producing a printable
//! [`crate::report::Table`].

pub mod ablations;
pub mod amdahl;
pub mod approx_comparison;
pub mod balance;
pub mod bench_json;
pub mod cluster;
pub mod figure1;
pub mod hash;
pub mod input_format;
pub mod profile;
pub mod table1;
pub mod table2;
pub mod throughput;
pub mod tuning;

use tc_core::{Backend, CoreError, CountRequest, GpuReport};
use tc_gen::{Scale, Seed};
use tc_graph::EdgeArray;

/// Shared experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Graph suite scale (see [`tc_gen::suite`]).
    pub scale: Scale,
    /// Repetitions for host-measured timings; the paper runs each
    /// experiment five times and reports means.
    pub repeats: usize,
    /// Suite seed.
    pub seed: Seed,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: Scale::Bench,
            repeats: 3,
            seed: tc_gen::suite::SUITE_SEED,
        }
    }
}

impl ExpConfig {
    pub fn smoke() -> Self {
        ExpConfig {
            scale: Scale::Smoke,
            repeats: 1,
            ..Default::default()
        }
    }
}

/// Mean host seconds of `f` over `repeats` runs (first run warms caches and
/// is *included*, like the paper's mean-of-five protocol).
pub(crate) fn time_host<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let repeats = repeats.max(1);
    let start = std::time::Instant::now();
    for _ in 0..repeats {
        f();
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

/// The report of a one-shot simulated-GPU run of `backend` on `g`.
pub(crate) fn gpu_run(g: &EdgeArray, backend: Backend) -> Result<GpuReport, CoreError> {
    let counted = CountRequest::new(backend).run(g)?;
    Ok(counted.gpu.expect("simulated-GPU backends report"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_host_averages() {
        let mut runs = 0;
        let t = time_host(4, || {
            runs += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(runs, 4);
        assert!(t >= 0.002, "{t}");
        assert!(t < 0.05);
    }
}
