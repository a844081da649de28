//! Minimal std-only micro-benchmark harness.
//!
//! The offline build cannot fetch `criterion`, so the `benches/`
//! targets (all `harness = false`) drive their measurements through
//! this module instead: warm up once, run a fixed number of timed
//! samples, and report min / mean / max wall time per sample.
//! Deterministic sample counts keep runs comparable between commits;
//! no statistics are estimated beyond the three reported figures.

use std::hint::black_box;
use std::time::Instant;

/// A named group of related measurements, printed as an aligned block.
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group and prints its header.
    pub fn new(name: &str) -> Self {
        println!("== {name} ==");
        Group { name: name.to_string() }
    }

    /// Runs `f` once to warm up, then `samples` timed times, and
    /// prints one result line. Returns the mean seconds per sample.
    pub fn bench<R, F: FnMut() -> R>(&self, id: &str, samples: usize, mut f: F) -> f64 {
        assert!(samples > 0, "need at least one sample");
        black_box(f());
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64());
        }
        let min = times.iter().copied().fold(f64::INFINITY, f64::min);
        let max = times.iter().copied().fold(0.0f64, f64::max);
        let mean = times.iter().sum::<f64>() / samples as f64;
        println!(
            "{}/{id:<28} {samples:>3} samples  min {}  mean {}  max {}",
            self.name,
            format_secs(min),
            format_secs(mean),
            format_secs(max),
        );
        mean
    }
}

/// Human-readable seconds with an adaptive unit.
fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:>8.3} s")
    } else if s >= 1e-3 {
        format!("{:>8.3} ms", s * 1e3)
    } else {
        format!("{:>8.3} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_positive_mean() {
        let g = Group::new("test");
        let mean = g.bench("spin", 3, || (0..1000u64).sum::<u64>());
        assert!(mean >= 0.0);
    }

    #[test]
    fn formats_pick_sensible_units() {
        assert!(format_secs(2.5).ends_with(" s"));
        assert!(format_secs(0.002).ends_with(" ms"));
        assert!(format_secs(2e-6).ends_with(" µs"));
    }
}
