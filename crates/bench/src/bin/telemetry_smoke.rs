//! Telemetry-overhead smoke check: run swaptions on the shared worker
//! pool with telemetry off and on, and fail if the counters cost more
//! than `--max-overhead` percent.
//!
//! The hot-path recording is a relaxed atomic add on a per-worker shard;
//! this harness is the regression gate keeping it that cheap. The
//! overhead is the median of paired on/off time ratios
//! ([`profiling_overhead_pct`]), so host drift lands on both sides.
//! Arguments and exit codes come from [`stats_bench::harness`].

use stats_bench::harness;
use stats_bench::native_attribution::profiling_overhead_pct;
use stats_bench::pipeline::{tuned_config, Scale};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::threaded::run_threaded_on;
use stats_telemetry::{Counter, TelemetrySink};
use stats_workloads::{dispatch, Workload, WorkloadVisitor};

const USAGE: &str = "usage: telemetry_smoke [--scale F] [--reps N] [--max-overhead PCT]";

const SEED: u64 = 42;

struct Args {
    scale: Scale,
    reps: usize,
    max_overhead: f64,
}

impl WorkloadVisitor for &Args {
    type Output = f64;
    fn visit<W: Workload>(self, w: &W) -> f64 {
        let pool = WorkerPool::shared();
        let counters = |chunks| Some(TelemetrySink::new(chunks));
        let overhead =
            profiling_overhead_pct(w, pool, self.scale, SEED, self.reps, |_| None, counters);
        // The instrumented side must really record, or the budget would
        // pass vacuously.
        let (n, cfg) = (self.scale.inputs_for(w), tuned_config(w, 28, self.scale));
        let sink = TelemetrySink::new(cfg.chunks);
        let run = run_threaded_on(pool, w, &w.generate_inputs(n, SEED), cfg, SEED, Some(&sink));
        assert_eq!(run.outputs.len(), n);
        assert!(sink.snapshot().get(Counter::ChunksStarted) > 0);
        println!(
            "benchmark: {} ({n} inputs, {} chunks, {} paired reps)\n\
             overhead:  {overhead:.2}% (median paired ratio; budget {:.1}%)",
            w.name(),
            cfg.chunks,
            self.reps,
            self.max_overhead,
        );
        overhead
    }
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(1.0),
        reps: 5,
        max_overhead: 10.0,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--reps" => args.reps = v.count()?,
            "--max-overhead" => args.max_overhead = v.positive()?,
            other => return Err(format!("unknown option {other}")),
        }
        Ok(())
    })?;
    Ok(args)
}

fn main() {
    let args = harness::args_or_exit(USAGE, parse);
    let overhead = dispatch("swaptions", &args);
    harness::settle(
        true,
        overhead <= args.max_overhead,
        "OK: telemetry overhead within budget",
        "FAIL: telemetry overhead exceeds budget",
    );
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn ci_arguments_parse() {
        let args = parse(argv("--reps 5 --max-overhead 10")).unwrap();
        assert_eq!((args.reps, args.max_overhead), (5, 10.0));
    }

    #[test]
    fn nan_budget_is_rejected() {
        assert!(parse(argv("--max-overhead nan")).is_err());
    }

    #[test]
    fn negative_budget_is_rejected() {
        assert!(parse(argv("--max-overhead -5")).is_err());
    }

    #[test]
    fn fractional_reps_are_rejected() {
        assert!(parse(argv("--reps 2.7")).is_err());
    }
}
