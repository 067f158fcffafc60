//! Tuning scaling sweep: pool-sharded batched design-space exploration
//! vs. the sequential autotuner loop on real hardware.
//!
//! Runs the Fig. 3 autotuning loop (Ensemble strategy, simulated-makespan
//! objective) for all six paper benchmarks, once sequentially
//! (`Tuner::tune`) and once per pool width (`Tuner::tune_parallel_on`),
//! and emits `BENCH_tune.json`. Timing uses the minimum over `--reps`
//! repetitions. Because the batched ask/tell core tells results back in
//! proposal order, every parallel run must produce a `TuningReport`
//! bit-identical to the sequential one — each row records that check as
//! `report_matches_sequential`.
//!
//! With `--gate`, rows at pool width ≥ 4 are *eligible* when the budget
//! is ≥ 4× the proposal batch (enough rounds for sharding to matter).
//! On a host with ≥ 4 cores the gate fails unless:
//!
//! * every row's report matches the sequential one,
//! * at least one eligible row is strictly faster than sequential,
//! * the geometric-mean ratio parallel/sequential over eligible rows is
//!   ≤ 1.0 (no regression).
//!
//! On a narrower host (CI shells, containers pinned to one core) real
//! width-4 speedup is physically impossible, so the gate degrades to
//! parity plus bounded sharding overhead (geomean ≤ 1.15) and says so —
//! honest numbers beat fabricated ones.
//!
//! Arguments, exit codes and the report envelope come from
//! [`stats_bench::harness`].

use stats_autotuner::{Strategy, Tuner, TuningReport, DEFAULT_BATCH};
use stats_bench::harness::{self, json_array, time_ms};
use stats_bench::pipeline::{Scale, FIGURE_SEED};
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::DesignSpace;
use stats_telemetry::json::JsonObject;
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const USAGE: &str = "usage: tune_scaling [--scale F] [--budget N] [--reps N] \
                     [--workers 1,2,4,8] [--out PATH] [--gate]";

/// A pool width is eligible for the speedup gate when the budget buys at
/// least this many full proposal batches (sharding needs rounds to win).
const MIN_BATCHES_FOR_GATE: usize = 4;

/// Width threshold for the speedup side of the gate.
const GATE_WIDTH: usize = 4;

/// Overhead bound for the degraded (narrow-host) gate: sharding batches
/// over a pool the host cannot actually parallelize must stay cheap.
const NARROW_HOST_OVERHEAD: f64 = 1.15;

struct Args {
    scale: Scale,
    budget: usize,
    reps: usize,
    workers: Vec<usize>,
    out: String,
    gate: bool,
}

/// One (benchmark, pool-width) measurement.
struct WidthRow {
    workers: usize,
    parallel_ms: f64,
    eligible: bool,
    report_matches_sequential: bool,
}

/// One benchmark's sweep: the sequential baseline plus a row per width.
struct BenchRow {
    benchmark: &'static str,
    inputs: usize,
    explored: usize,
    sequential_ms: f64,
    widths: Vec<WidthRow>,
}

fn min_ms<F: FnMut() -> TuningReport>(reps: usize, mut run: F) -> (f64, TuningReport) {
    let mut best = f64::INFINITY;
    let mut last = run(); // warm-up: caches, allocator, lazy pool state
    for _ in 0..reps {
        let (ms, report) = time_ms(&mut run);
        (best, last) = (best.min(ms), report);
    }
    (best, last)
}

/// Two reports are identical when every evaluation (configuration and
/// bit-exact cost, in order) and the chosen best agree.
fn reports_match(a: &TuningReport, b: &TuningReport) -> bool {
    a.best == b.best
        && a.best_cost.to_bits() == b.best_cost.to_bits()
        && a.evaluations.len() == b.evaluations.len()
        && a.evaluations
            .iter()
            .zip(&b.evaluations)
            .all(|((ca, va), (cb, vb))| ca == cb && va.to_bits() == vb.to_bits())
}

impl WorkloadVisitor for &Args {
    type Output = BenchRow;
    fn visit<W: Workload>(self, w: &W) -> BenchRow {
        let n = self.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let rt = SimulatedRuntime::paper_machine();
        let space = DesignSpace::for_inputs(n, 28, w.inner_parallelism().is_parallel());
        let tuner = Tuner::new(space, self.budget, FIGURE_SEED);
        let objective = |cfg| {
            rt.run(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                FIGURE_SEED,
            )
            .expect("valid config")
            .execution
            .makespan
            .get() as f64
        };

        let (sequential_ms, baseline) =
            min_ms(self.reps, || tuner.tune(Strategy::Ensemble, objective));

        let widths = self
            .workers
            .iter()
            .map(|&workers| {
                let pool = WorkerPool::new(workers);
                let (parallel_ms, report) = min_ms(self.reps, || {
                    tuner.tune_parallel_on(&pool, Strategy::Ensemble, objective, None)
                });
                WidthRow {
                    workers,
                    parallel_ms,
                    eligible: workers >= GATE_WIDTH
                        && self.budget >= MIN_BATCHES_FOR_GATE * tuner.batch(),
                    report_matches_sequential: reports_match(&report, &baseline),
                }
            })
            .collect();

        BenchRow {
            benchmark: w.name(),
            inputs: n,
            explored: baseline.configurations_explored(),
            sequential_ms,
            widths,
        }
    }
}

/// The gate verdict over all rows.
struct Gate {
    strict: bool,
    eligible_rows: usize,
    any_parallel_win: bool,
    all_match: bool,
    geomean_ratio: f64,
}

impl Gate {
    fn evaluate(rows: &[BenchRow], host_parallelism: usize) -> Gate {
        let mut log_sum = 0.0f64;
        let mut count = 0usize;
        let mut any_win = false;
        let mut all_match = true;
        for row in rows {
            for wr in &row.widths {
                all_match &= wr.report_matches_sequential;
                if !wr.eligible {
                    continue;
                }
                count += 1;
                any_win |= wr.parallel_ms < row.sequential_ms;
                log_sum += (wr.parallel_ms / row.sequential_ms).ln();
            }
        }
        Gate {
            strict: host_parallelism >= GATE_WIDTH,
            eligible_rows: count,
            any_parallel_win: any_win,
            all_match,
            geomean_ratio: if count > 0 {
                (log_sum / count as f64).exp()
            } else {
                f64::NAN
            },
        }
    }

    fn pass(&self) -> bool {
        if !(self.all_match && self.eligible_rows > 0) {
            return false;
        }
        if self.strict {
            self.any_parallel_win && self.geomean_ratio <= 1.0
        } else {
            self.geomean_ratio <= NARROW_HOST_OVERHEAD
        }
    }
}

fn render_json(args: &Args, rows: &[BenchRow], gate: &Gate) -> String {
    let benches = json_array(rows.iter().map(|row| {
        let widths = json_array(row.widths.iter().map(|wr| {
            let mut o = JsonObject::new();
            o.u64("workers", wr.workers as u64)
                .f64("parallel_ms", wr.parallel_ms)
                .f64("speedup_vs_sequential", row.sequential_ms / wr.parallel_ms)
                .bool("eligible", wr.eligible)
                .bool("report_matches_sequential", wr.report_matches_sequential);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.str("benchmark", row.benchmark)
            .u64("inputs", row.inputs as u64)
            .u64("explored", row.explored as u64)
            .f64("sequential_ms", row.sequential_ms)
            .raw("workers", &widths);
        o.finish()
    }));
    let verdict = |g: &mut JsonObject| {
        g.str("mode", if gate.strict { "strict" } else { "parity-only" })
            .u64("eligible_rows", gate.eligible_rows as u64)
            .bool("any_parallel_win", gate.any_parallel_win)
            .bool("all_match", gate.all_match)
            .f64("geomean_parallel_over_sequential", gate.geomean_ratio);
    };
    let params = |o: &mut JsonObject| {
        o.u64("budget", args.budget as u64)
            .u64("batch", DEFAULT_BATCH as u64)
            .u64("reps", args.reps as u64);
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("tune_scaling", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.1),
        budget: 80,
        reps: 1,
        workers: vec![1, 2, 4, 8],
        out: "BENCH_tune.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--budget" => args.budget = v.count()?,
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
    println!(
        "tune_scaling: scale {}, budget {}, batch {}, {} reps, pool widths {:?}, host parallelism {}",
        args.scale.0,
        args.budget,
        DEFAULT_BATCH,
        args.reps,
        args.workers,
        default_workers(),
    );

    let rows: Vec<BenchRow> = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let row = dispatch(name, &args);
            println!(
                "{:<18} {:>6} inputs {:>3} evals | sequential {:>9.2} ms",
                row.benchmark, row.inputs, row.explored, row.sequential_ms
            );
            for wr in &row.widths {
                println!(
                    "  pool x{:<3} {:>9.2} ms  ({:.2}x vs sequential{}{})",
                    wr.workers,
                    wr.parallel_ms,
                    row.sequential_ms / wr.parallel_ms,
                    if wr.eligible { ", eligible" } else { "" },
                    if wr.report_matches_sequential {
                        ""
                    } else {
                        ", REPORT MISMATCH"
                    },
                );
            }
            row
        })
        .collect();

    let gate = Gate::evaluate(&rows, default_workers());
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | eligible rows: {} | parallel/sequential geomean: {:.3} | parity: {} | gate mode: {}",
        args.out,
        gate.eligible_rows,
        gate.geomean_ratio,
        if gate.all_match { "ok" } else { "MISMATCH" },
        if gate.strict { "strict" } else { "parity-only" },
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: parallel tuning holds parity and scaling on this host",
        "FAIL: parallel tuning regressed against sequential (or parity broke)",
    );
}
