//! Timing primitives: the harness's own spans around each public call,
//! order statistics over their durations, and the correctness gate every
//! timed parallel result passes through.
//!
//! Every clock read goes through `stats_telemetry::clock::monotonic_ns`,
//! the workspace's single sanctioned wall-clock read point.

use stats_core::ChunkDecision;
use stats_telemetry::clock::monotonic_ns;
use std::collections::BTreeMap;

/// Durations of the harness's spans, by span name, kept in memory and
/// summarised when the benchmark ends. Each span wraps exactly one call
/// into a layer's public entry point.
#[derive(Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    /// Run `f` inside a span named `name`; returns its duration in ns and
    /// its result.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (u64, R) {
        let t0 = monotonic_ns();
        let result = f();
        let ns = monotonic_ns() - t0;
        self.by_name.entry(name).or_default().push(ns);
        (ns, result)
    }

    /// The durations (ns) recorded under `name`, in recording order.
    pub fn ns(&self, name: &str) -> &[u64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The durations recorded under `name`, in milliseconds.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.ns(name).iter().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// One line per span name: sample count, median and total.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, ns) in &self.by_name {
            let ms: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e6).collect();
            out.push_str(&format!(
                "# span {name:<32} n={:<6} p50={:>12.4} ms  total={:>10.1} ms\n",
                ms.len(),
                median(&ms),
                ms.iter().sum::<f64>(),
            ));
        }
        out
    }
}

/// A deadline `seconds` from now on the monotonic clock.
pub fn deadline_after(seconds: f64) -> u64 {
    monotonic_ns() + (seconds * 1e9) as u64
}

/// Whether the monotonic clock has passed `deadline`.
pub fn passed(deadline: u64) -> bool {
    monotonic_ns() >= deadline
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN
/// for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; NaN for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the `(TAIL_BEYOND + 1)`-th largest sample. Returns the value and
/// the percentile it stands for (the maximum, at 100, when there are too
/// few samples).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    (
        v[n - TAIL_BEYOND - 1],
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    )
}

/// The mean; NaN for no samples.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// What a correct parallel run must reproduce: the semantic protocol's
/// decisions, output count and the bit pattern of the quality score.
pub struct Reference {
    pub decisions: Vec<ChunkDecision>,
    pub outputs: usize,
    pub quality: f64,
}

/// Operations attempted and failed; a failed operation is a run whose
/// result disagrees with the [`Reference`].
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Count one operation named `what`, failed unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: {what} disagrees with the semantic protocol");
        }
    }

    /// Count one parallel run, which must reproduce `reference` exactly.
    pub fn check_run(
        &mut self,
        what: &str,
        reference: &Reference,
        decisions: &[ChunkDecision],
        outputs: usize,
        quality: f64,
    ) {
        self.expect(
            what,
            decisions == reference.decisions.as_slice()
                && outputs == reference.outputs
                && quality.to_bits() == reference.quality.to_bits(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&v), 10.5);
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(tail(&v), (10.0, 50.0));
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }
}
