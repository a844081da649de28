//! Experiment budgets: quick (CI-sized) vs standard vs full.

use gfp_conic::AdmmSettings;
use gfp_core::FloorplannerSettings;

/// How much compute an experiment binary may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Smallest benchmarks, lowest solver budgets (seconds).
    Quick,
    /// The default: n10–n50 class benchmarks, moderate budgets
    /// (minutes).
    Standard,
    /// Everything including n100/n200 (tens of minutes to hours, like
    /// the paper's 2.5 h n200 runs).
    Full,
}

impl Budget {
    /// Parses `--quick` / `--full` from the command line.
    pub fn from_args() -> Budget {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Budget::Quick
        } else if args.iter().any(|a| a == "--full") {
            Budget::Full
        } else {
            Budget::Standard
        }
    }

    /// Benchmark names for the GSRC comparison experiments (Table II).
    pub fn gsrc_names(self) -> Vec<&'static str> {
        match self {
            Budget::Quick => vec!["n10"],
            Budget::Standard => vec!["n10", "n30", "n50"],
            Budget::Full => vec!["n10", "n30", "n50", "n100", "n200"],
        }
    }

    /// Benchmark names for Table III.
    pub fn table3_names(self) -> Vec<&'static str> {
        match self {
            Budget::Quick => vec!["ami33"],
            Budget::Standard => vec!["ami33", "ami49"],
            Budget::Full => vec!["ami33", "ami49", "n100", "n200"],
        }
    }

    /// SDP floorplanner settings scaled to the instance size,
    /// following the paper's per-size tuning (larger benchmarks start
    /// at a larger α and run fewer iterations). Quality scales with
    /// budget exactly as the paper's MOSEK-hours do: `Quick` may trail
    /// the AR baseline slightly, `Standard` is competitive, `Full`
    /// wins (see EXPERIMENTS.md).
    pub fn sdp_settings(self, n: usize) -> FloorplannerSettings {
        let mut s = FloorplannerSettings::fast();
        match self {
            Budget::Quick => {
                // fast(): α from 16 with x8 growth, 6 inner iterations.
                s.max_iter = 6;
            }
            Budget::Standard => {
                // Finer α search finds the smallest rank-2 α (the
                // paper's best-quality point).
                s.alpha0 = 8.0;
                s.alpha_growth = 2.0;
                s.max_alpha_rounds = 14;
                s.max_iter = 10;
            }
            Budget::Full => {
                s.alpha0 = 8.0;
                s.alpha_growth = 2.0;
                s.max_alpha_rounds = 14;
                s.max_iter = 20;
                s.backend = gfp_core::Backend::Admm(AdmmSettings {
                    eps: 1e-5,
                    max_iter: 12_000,
                });
            }
        }
        if n >= 100 {
            // Paper: "α starts from 1024" for n100/n200, max_iter 100/20.
            s.alpha0 = 1024.0;
            s.alpha_growth = 4.0;
            s.max_alpha_rounds = 8;
            s.max_iter = if n >= 200 { 3 } else { 5 };
            s.backend = gfp_core::Backend::Admm(AdmmSettings {
                eps: 1e-4,
                max_iter: if n >= 200 { 2000 } else { 3000 },
            });
        }
        s
    }

    /// Annealer settings of the budget.
    pub fn anneal_settings(self) -> gfp_baselines::annealing::AnnealSettings {
        use gfp_baselines::annealing::AnnealSettings;
        let (moves, steps) = match self {
            Budget::Quick => (80, 40),
            Budget::Standard => (250, 80),
            Budget::Full => (400, 120),
        };
        // The same move count at every size: the O(n²) packing lets
        // big instances take their time, as Parquet does.
        AnnealSettings {
            moves_per_temp: moves,
            temp_steps: steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_benchmarks() {
        assert_eq!(Budget::Quick.gsrc_names(), vec!["n10"]);
        assert!(Budget::Full.gsrc_names().contains(&"n200"));
        assert!(Budget::Standard.table3_names().contains(&"ami49"));
    }

    #[test]
    fn large_instances_get_paper_alpha() {
        let s = Budget::Standard.sdp_settings(100);
        assert_eq!(s.alpha0, 1024.0);
        let s = Budget::Standard.sdp_settings(30);
        assert!(s.alpha0 < 1024.0);
    }
}
