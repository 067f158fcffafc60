//! Native scaling sweep: speedup of the pooled threaded executor over
//! the sequential program on real hardware (the paper's Fig. 9 metric,
//! measured natively).
//!
//! Runs all six paper benchmarks, timing the sequential program
//! (`run_sequential`) and the threaded runtime (`run_threaded_on`) at
//! several pool widths, and emits `BENCH_native.json`. Timing uses the
//! minimum over `--reps` repetitions — the standard low-noise estimator
//! for a deterministic workload under scheduler jitter. Each repetition
//! runs the sequential program and then every width once, in an order
//! rotated per repetition, so host drift lands on all widths alike.
//!
//! Semantics are checked alongside performance: at every width the
//! threaded run must reproduce the semantic layer's (`run_speculative`)
//! commit/abort decisions and outputs exactly (outputs are compared
//! through length and the benchmark's scalar quality metric here; the
//! test suite asserts element-wise equality with concrete types).
//!
//! With `--gate`, the process exits non-zero unless
//!
//! * every row's decisions and outputs match the semantic layer, and
//! * on hosts with at least two hardware threads, width 2 is no slower
//!   than width 1 on every benchmark with at least two chunks: the
//!   median over repetitions of the paired width-2 / width-1 time ratio
//!   is at most 1 (Touati's paired design; the sweep must then include
//!   both widths).
//!
//! Arguments, exit codes and the report envelope come from
//! [`stats_bench::harness`].

use stats_bench::harness::{self, json_array, time_ms, Fingerprint};
use stats_bench::pipeline::{median, tuned_config, Scale, FIGURE_SEED};
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::sequential::run_sequential;
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::speculation::run_speculative;
use stats_telemetry::json::JsonObject;
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const USAGE: &str =
    "usage: native_scaling [--scale F] [--reps N] [--workers 1,2,4,8] [--out PATH] [--gate]";

struct Args {
    scale: Scale,
    reps: usize,
    workers: Vec<usize>,
    out: String,
    gate: bool,
}

/// One (benchmark, pool-width) measurement.
struct WidthRow {
    workers: usize,
    /// Wall time of each timed rep, in rep order.
    samples_ms: Vec<f64>,
    /// Every timed run matched the semantic layer's decisions.
    decisions_match: bool,
    /// Every timed run matched its output count and quality bits.
    outputs_match: bool,
}

impl WidthRow {
    fn min_ms(&self) -> f64 {
        self.samples_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// One benchmark's sweep: the sequential program's time plus a row per
/// pool width.
struct BenchRow {
    benchmark: &'static str,
    inputs: usize,
    chunks: usize,
    sequential_ms: f64,
    widths: Vec<WidthRow>,
}

impl BenchRow {
    /// Median over reps of the paired width-2 / width-1 time ratio, if
    /// the sweep ran both widths.
    fn w2_over_w1(&self) -> Option<f64> {
        let at = |n: usize| self.widths.iter().find(|wr| wr.workers == n);
        let (w1, w2) = (at(1)?, at(2)?);
        let ratios = w2.samples_ms.iter().zip(&w1.samples_ms);
        Some(median(ratios.map(|(a, b)| a / b).collect()))
    }
}

impl WorkloadVisitor for &Args {
    type Output = BenchRow;
    fn visit<W: Workload>(self, w: &W) -> BenchRow {
        let n = self.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(w, 28, self.scale); // pre-clamped to n

        let semantic = run_speculative(w, &inputs, cfg, FIGURE_SEED);
        let reference = Fingerprint::of(w, &inputs, &semantic.decisions(), &semantic.outputs);

        let pools: Vec<WorkerPool> = self.workers.iter().map(|&n| WorkerPool::new(n)).collect();
        let mut widths: Vec<WidthRow> = pools
            .iter()
            .map(|pool| WidthRow {
                workers: pool.workers(),
                samples_ms: Vec::with_capacity(self.reps),
                decisions_match: true,
                outputs_match: true,
            })
            .collect();
        let mut sequential_ms = f64::INFINITY;
        // Rep 0 warms caches, the allocator and every pool. Each rep
        // times the sequential program and then every width once, in an
        // order rotated per rep, so host drift during the sweep spreads
        // over all widths instead of landing on one.
        for rep in 0..=self.reps {
            let (seq_ms, _) = time_ms(|| run_sequential(w, &inputs, FIGURE_SEED));
            for i in (0..pools.len()).map(|i| (i + rep) % pools.len()) {
                let (ms, run) =
                    time_ms(|| run_threaded_on(&pools[i], w, &inputs, cfg, FIGURE_SEED, None));
                let got = Fingerprint::of(w, &inputs, &run.decisions, &run.outputs);
                let row = &mut widths[i];
                row.decisions_match &= got.decisions == reference.decisions;
                row.outputs_match &= got.outputs == reference.outputs;
                if rep > 0 {
                    row.samples_ms.push(ms);
                }
            }
            if rep > 0 {
                sequential_ms = sequential_ms.min(seq_ms);
            }
        }

        BenchRow {
            benchmark: w.name(),
            inputs: n,
            chunks: cfg.chunks,
            sequential_ms,
            widths,
        }
    }
}

/// The gate verdict over the whole sweep.
struct Gate {
    all_match: bool,
    /// Whether the host has the cores to make width 2 vs. width 1 a
    /// meaningful comparison.
    scaling_checked: bool,
    /// Benchmarks (chunks ≥ 2) whose median paired width-2 / width-1
    /// time ratio exceeds 1, or that lack either width in the sweep.
    scaling_failures: Vec<&'static str>,
}

impl Gate {
    fn evaluate(rows: &[BenchRow], host_parallelism: usize) -> Gate {
        let scaling_checked = host_parallelism >= 2;
        let scaling_failures = if scaling_checked {
            rows.iter()
                .filter(|row| row.chunks >= 2)
                .filter(|row| row.w2_over_w1().is_none_or(|ratio| ratio > 1.0))
                .map(|row| row.benchmark)
                .collect()
        } else {
            Vec::new()
        };
        Gate {
            all_match: rows
                .iter()
                .flat_map(|row| &row.widths)
                .all(|wr| wr.decisions_match && wr.outputs_match),
            scaling_checked,
            scaling_failures,
        }
    }

    fn pass(&self) -> bool {
        self.all_match && self.scaling_failures.is_empty()
    }
}

fn render_json(args: &Args, rows: &[BenchRow], gate: &Gate) -> String {
    let benches = json_array(rows.iter().map(|row| {
        let widths = json_array(row.widths.iter().map(|wr| {
            let mut o = JsonObject::new();
            o.u64("workers", wr.workers as u64)
                .f64("parallel_ms", wr.min_ms())
                .f64("speedup_vs_sequential", row.sequential_ms / wr.min_ms())
                .bool("decisions_match", wr.decisions_match)
                .bool("outputs_match", wr.outputs_match);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.str("benchmark", row.benchmark)
            .u64("inputs", row.inputs as u64)
            .u64("chunks", row.chunks as u64)
            .f64("sequential_ms", row.sequential_ms)
            .raw("workers", &widths);
        if let Some(ratio) = row.w2_over_w1() {
            o.f64("w2_over_w1_median", ratio);
        }
        o.finish()
    }));
    let failures = json_array(gate.scaling_failures.iter().map(|b| format!("\"{b}\"")));
    let verdict = |g: &mut JsonObject| {
        g.bool("all_match", gate.all_match)
            .bool("scaling_checked", gate.scaling_checked)
            .raw("w2_slower_than_w1", &failures);
    };
    let params = |o: &mut JsonObject| {
        o.u64("reps", args.reps as u64);
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("native_scaling", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.25),
        reps: 3,
        workers: vec![1, 2, 4, 8],
        out: "BENCH_native.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--reps" => args.reps = v.count()?,
            "--workers" => args.workers = v.counts()?,
            "--out" => args.out = v.value()?,
            "--gate" => args.gate = true,
            other => return Err(format!("unknown option {other}")),
        }
        Ok(())
    })?;
    Ok(args)
}

fn main() {
    let args = harness::args_or_exit(USAGE, parse);
    let host_parallelism = default_workers();
    println!(
        "native_scaling: scale {}, {} reps, pool widths {:?}, host parallelism {host_parallelism}",
        args.scale.0, args.reps, args.workers,
    );

    let rows: Vec<BenchRow> = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let row = dispatch(name, &args);
            println!(
                "{:<18} {:>6} inputs {:>3} chunks | sequential {:>9.2} ms",
                row.benchmark, row.inputs, row.chunks, row.sequential_ms
            );
            for wr in &row.widths {
                println!(
                    "  pool x{:<3} {:>9.2} ms  ({:.2}x vs sequential{})",
                    wr.workers,
                    wr.min_ms(),
                    row.sequential_ms / wr.min_ms(),
                    if wr.decisions_match && wr.outputs_match {
                        ""
                    } else {
                        ", MISMATCH"
                    },
                );
            }
            if let Some(ratio) = row.w2_over_w1() {
                println!("  width 2 / width 1 (median of paired reps): {ratio:.3}");
            }
            row
        })
        .collect();

    let gate = Gate::evaluate(&rows, host_parallelism);
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | parity: {} | width 2 vs 1: {}",
        args.out,
        if gate.all_match { "ok" } else { "MISMATCH" },
        match (gate.scaling_checked, gate.scaling_failures.is_empty()) {
            (false, _) => "not checked (single-core host)".to_string(),
            (true, true) => "no slower on every multi-chunk benchmark".to_string(),
            (true, false) => format!("slower (or missing) on {:?}", gate.scaling_failures),
        },
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: threaded runs match the semantic layer and width 2 is no slower than width 1",
        "FAIL: parity broke or width 2 was slower than width 1",
    );
}
