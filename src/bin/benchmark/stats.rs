//! Order statistics, span self time and the regression verdict.
//!
//! Everything here is pure arithmetic on slices so the unit tests run
//! in well under a second as part of the root package's `cargo test`.

/// Median (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones an outside
/// harness computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (s[0], s[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Quartile spread as a share of the median: `(q3 − q1) / median`.
/// Zero when every value is equal (including a single value).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if q3 == q1 {
        0.0
    } else if m == 0.0 {
        f64::INFINITY
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Linear-interpolation percentile (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = (p / 100.0).clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, so a reported tail is never one or two
/// outliers. `None` below 20 samples, where not even the median has
/// ten beyond it.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Per-mille, so "exactly ten beyond" is decided in integers.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| samples * (1000 - pm) >= 10 * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// Integral over `[a, b]` of the piecewise-linear function through
/// `points` (`(t, value)` sorted by `t`), held at the end values
/// before the first point and after the last. `NaN` without points;
/// zero when `b <= a`.
pub fn integrate(points: &[(f64, f64)], a: f64, b: f64) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return f64::NAN;
    };
    let value = |t: f64| {
        let i = points.partition_point(|p| p.0 <= t);
        if i == 0 {
            first.1
        } else if i == points.len() {
            last.1
        } else {
            let ((t0, v0), (t1, v1)) = (points[i - 1], points[i]);
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    };
    let mut knots = vec![a];
    knots.extend(points.iter().map(|p| p.0).filter(|&t| t > a && t < b));
    knots.push(b);
    knots
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| (w[1] - w[0]) * (value(w[0]) + value(w[1])) / 2.0)
        .sum()
}

/// Geometric mean of positive values; `NaN` when empty or any value
/// is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || !values.iter().all(|&v| v > 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One recorded span: `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub request: u64,
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span id, 0 for a root.
    pub parent: u64,
    /// Layer the span times (`core`, `legalize`, `service`, ...).
    pub layer: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start, microseconds since the run began.
    pub start_us: u64,
    /// End, microseconds since the run began.
    pub end_us: u64,
}

/// Self time of `span` in microseconds: its duration minus the part
/// of its interval covered by its direct children (overlapping
/// children are counted once).
pub fn self_time_us(span: &Span, all: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|s| s.parent == span.id && s.id != span.id)
        .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_us;
    for (a, b) in kids {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    (span.end_us - span.start_us).saturating_sub(covered)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `"lower"` / `"higher"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing a change's runs against a base's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than the base's own
    /// quartile spread.
    Better,
    /// The change's median is worse than the base's by more than the
    /// bound.
    Worse,
    /// Within the bound and not clearly better.
    Unchanged,
    /// The runs spread wider than the bound, so "within the bound"
    /// cannot be told apart from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed relative change from `base` to `new`, positive when `new`
/// is worse.
fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == new {
        return 0.0;
    }
    let d = (new - base) / base.abs();
    match better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

/// Compares the change's runs `new` against the base's runs `base`
/// for one metric with the given regression `bound` (a share of the
/// base median).
///
/// * Unresolved — either side's quartile spread exceeds the bound,
///   unless every new run beats every base run (then Better).
/// * Worse — the median worsened by more than the bound.
/// * Better — new runs win at least nine tenths of all (base, new)
///   pairs and the median improved by more than the base's spread.
/// * Unchanged — otherwise.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = base.len() * new.len();
    let wins = base
        .iter()
        .map(|&b| {
            new.iter()
                .filter(|&&n| worsening(b, n, better) < 0.0)
                .count()
        })
        .sum::<usize>();
    if spread(base) > bound || spread(new) > bound {
        return if wins == pairs {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let d = worsening(median(base), median(new), better);
    if d > bound {
        Verdict::Worse
    } else if 10 * wins >= 9 * pairs && -d > spread(base) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 8.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentiles_and_geomean() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn integrate_is_exact_on_piecewise_linear_speed() {
        let pts = [(1.0, 1.0), (3.0, 0.5), (4.0, 0.5)];
        assert!(integrate(&[], 0.0, 1.0).is_nan());
        // Held at 1 before t = 1, then falling linearly to 0.5 at t = 3.
        assert_eq!(integrate(&pts, 0.0, 1.0), 1.0);
        assert_eq!(integrate(&pts, 1.0, 3.0), 1.5);
        assert_eq!(integrate(&pts, 2.0, 3.0), 0.625);
        // Across knots, and held at 0.5 after the last point.
        assert_eq!(integrate(&pts, 0.0, 6.0), 1.0 + 1.5 + 1.5);
        assert_eq!(integrate(&pts, 5.0, 5.0), 0.0);
        // One point: a constant factor.
        assert_eq!(integrate(&[(2.0, 0.8)], 0.0, 10.0), 8.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(360), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    fn span(id: u64, parent: u64, start_us: u64, end_us: u64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            layer: "x",
            name: "x",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 0, 100);
        let all = vec![
            root.clone(),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),  // overlaps 2: union 10..50
            span(4, 1, 90, 120), // clipped to 90..100
            span(5, 2, 12, 14),  // grandchild: not subtracted from root
        ];
        assert_eq!(self_time_us(&root, &all), 100 - 40 - 10);
        assert_eq!(self_time_us(&all[1], &all), 20 - 2);
        assert_eq!(self_time_us(&all[4], &all), 2);
    }

    #[test]
    fn verdicts_cover_all_four_outcomes() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Latency 30% higher with a 10% bound: worse.
        let slower = [13.0, 13.1, 12.9, 13.0, 13.05];
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        // 5% higher: inside the bound.
        let slightly = [10.5, 10.6, 10.4, 10.5, 10.55];
        assert_eq!(
            verdict(&base, &slightly, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% lower: better by far more than the base spread.
        let faster = [8.0, 8.1, 7.9, 8.0, 8.05];
        assert_eq!(verdict(&base, &faster, Better::Lower, 0.1), Verdict::Better);
        // The same numbers read as throughput flip direction.
        assert_eq!(verdict(&base, &faster, Better::Higher, 0.1), Verdict::Worse);
        // Runs spread wider than the bound: unresolved, unless every
        // new run beats every base run.
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let noisy_but_faster = [5.0, 6.0, 9.0, 7.0, 8.0];
        assert_eq!(
            verdict(&base, &noisy_but_faster, Better::Lower, 0.1),
            Verdict::Better
        );
        // A median 5% lower, but the runs interleave: not a gain.
        let mixed = [9.3, 10.1, 9.4, 9.5, 10.05];
        assert_eq!(
            verdict(&base, &mixed, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // Identical deterministic values are unchanged.
        assert_eq!(
            verdict(&[3.0; 3], &[3.0; 3], Better::Lower, 0.005),
            Verdict::Unchanged
        );
    }
}
