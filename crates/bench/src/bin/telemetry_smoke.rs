//! Telemetry-overhead smoke check: run swaptions on the threaded runtime
//! with telemetry off and on, and fail if the instrumented run is more
//! than `--max-overhead` percent slower.
//!
//! The hot-path recording is a relaxed atomic add on a per-worker shard;
//! this harness is the regression gate keeping it that cheap. Timing uses
//! the minimum over `--reps` repetitions — the minimum is the standard
//! low-noise estimator for a deterministic workload under scheduler
//! jitter.
//!
//! Usage: `telemetry_smoke [--scale F] [--reps N] [--max-overhead PCT]`
//! Exits 0 when the overhead is within budget, 1 otherwise, 2 on bad args.

use stats_bench::pipeline::{tuned_config, Scale};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::threaded::{run_threaded, run_threaded_on};
use stats_telemetry::TelemetrySink;
use stats_workloads::{dispatch, Workload, WorkloadVisitor};
// stats-analyzer: allow(ND002): this harness measures real wall-clock overhead
use std::time::Instant;

const SEED: u64 = 42;

struct Smoke {
    scale: Scale,
    reps: usize,
    max_overhead: f64,
}

impl WorkloadVisitor for Smoke {
    type Output = i32;
    fn visit<W: Workload>(self, w: &W) -> i32 {
        let n = self.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, SEED);
        let cfg = tuned_config(w, 28, self.scale);

        // Warm up caches, the allocator, and thread spawn paths once.
        run_threaded(w, &inputs, cfg, SEED);

        let mut base = f64::INFINITY;
        for _ in 0..self.reps {
            // stats-analyzer: allow(ND002): overhead measurement harness
            let t0 = Instant::now();
            let run = run_threaded(w, &inputs, cfg, SEED);
            base = base.min(t0.elapsed().as_secs_f64());
            assert_eq!(run.outputs.len(), n);
        }

        let mut observed = f64::INFINITY;
        for _ in 0..self.reps {
            let sink = TelemetrySink::new(cfg.chunks);
            // stats-analyzer: allow(ND002): overhead measurement harness
            let t0 = Instant::now();
            let run = run_threaded_on(WorkerPool::shared(), w, &inputs, cfg, SEED, Some(&sink));
            observed = observed.min(t0.elapsed().as_secs_f64());
            assert_eq!(run.outputs.len(), n);
            assert!(sink.snapshot().get(stats_telemetry::Counter::ChunksStarted) > 0);
        }

        let overhead = ((observed - base) / base * 100.0).max(0.0);
        println!(
            "benchmark:    {} ({} inputs, {} chunks, {} reps)\n\
             baseline:     {:.3} ms (min)\n\
             instrumented: {:.3} ms (min)\n\
             overhead:     {overhead:.2}% (budget {:.1}%)",
            w.name(),
            n,
            cfg.chunks,
            self.reps,
            base * 1e3,
            observed * 1e3,
            self.max_overhead,
        );
        if base * 1e3 < 20.0 {
            println!("note: baseline under 20 ms; consider a larger --scale for stable numbers");
        }
        if overhead > self.max_overhead {
            println!("FAIL: telemetry overhead exceeds budget");
            1
        } else {
            println!("OK: telemetry overhead within budget");
            0
        }
    }
}

fn main() {
    let mut scale = Scale(1.0);
    let mut reps = 5usize;
    let mut max_overhead = 10.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        let num = |what: &str| -> f64 {
            value
                .as_deref()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("error: {what} expects a number");
                    std::process::exit(2);
                })
        };
        match args[i].as_str() {
            "--scale" => scale = Scale(num("--scale")),
            "--reps" => reps = num("--reps") as usize,
            "--max-overhead" => max_overhead = num("--max-overhead"),
            other => {
                eprintln!("error: unknown option {other}");
                eprintln!("usage: telemetry_smoke [--scale F] [--reps N] [--max-overhead PCT]");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if !(scale.0 > 0.0 && scale.0 <= 1.0) || reps == 0 {
        eprintln!("error: --scale must be in (0,1] and --reps positive");
        std::process::exit(2);
    }
    let code = dispatch(
        "swaptions",
        Smoke {
            scale,
            reps,
            max_overhead,
        },
    );
    std::process::exit(code);
}
