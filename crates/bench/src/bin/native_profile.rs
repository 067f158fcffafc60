//! Causal-profiler overhead and attribution sweep over the native
//! pooled runtime.
//!
//! For every paper benchmark this harness:
//!
//! * measures the wall-clock overhead of span capture — the median over
//!   `--reps` interleaved pairs of the profiled / counters-only time
//!   ratio on the same pool;
//! * checks that the counters-only telemetry path is byte-identical
//!   whether or not the profiler rides along (profiling is strictly
//!   additive);
//! * profiles `--seeds` runs, attributes the speedup loss to the six
//!   overhead groups with mean ± CI, and compares the attribution shape
//!   against the simulator's virtual-time attribution;
//!
//! and emits `BENCH_profile.json`. With `--gate`, the process exits
//! non-zero unless every benchmark kept decision/output parity and
//! counter parity, every shape comparison agreed, and the *median*
//! capture overhead across benchmarks stayed under `--threshold`
//! percent. The median (not the max) is gated because a time-shared
//! host still carries scheduler noise that can push any single
//! benchmark's delta around; the median is the robust estimate of the
//! capture cost itself. Arguments, exit codes and the report envelope
//! come from [`stats_bench::harness`].

use stats_bench::harness::{self, json_array};
use stats_bench::native_attribution::{
    compare_shapes, profile_workload, profiling_overhead_pct, simulated_reference, ProfileReport,
    ShapeComparison,
};
use stats_bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::threaded::run_threaded_on;
use stats_telemetry::json::JsonObject;
use stats_telemetry::{Counter, Profiler, TelemetrySink};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const USAGE: &str = "usage: native_profile [--scale F] [--reps N] [--workers N] [--seeds K] \
                     [--threshold PCT] [--out PATH] [--gate]";

struct Args {
    scale: Scale,
    reps: usize,
    workers: usize,
    seeds: usize,
    threshold: f64,
    out: String,
    gate: bool,
}

/// One benchmark's profile sweep result.
struct BenchRow {
    report: ProfileReport,
    shape: ShapeComparison,
    overhead_pct: f64,
    counters_unchanged: bool,
}

impl WorkloadVisitor for &Args {
    type Output = BenchRow;
    fn visit<W: Workload>(self, w: &W) -> BenchRow {
        let args = self;
        let pool = WorkerPool::new(args.workers);
        let seeds: Vec<u64> = (0..args.seeds as u64).map(|i| FIGURE_SEED + i).collect();

        let overhead_pct = profiling_overhead_pct(
            w,
            &pool,
            args.scale,
            FIGURE_SEED,
            args.reps,
            |chunks| Some(TelemetrySink::new(chunks)),
            |chunks| Some(TelemetrySink::new(chunks).with_profiler(Profiler::new(args.workers))),
        );
        let report = profile_workload(w, &pool, args.scale, &seeds);
        let (sim, sim_whatifs, sim_base) =
            simulated_reference(w, args.workers, args.scale, FIGURE_SEED);
        let shape = compare_shapes(&report, &sim, &sim_whatifs, sim_base);

        // The counters-only path must not notice the profiler: every
        // deterministic protocol counter (chunk fates, reruns, replicas,
        // copies, comparisons) must total the same with and without span
        // capture riding along. BusyTime is wall-clock and varies run to
        // run regardless (IdleTime is simulated-only), so neither is
        // compared.
        let n = args.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(w, 28, args.scale);
        let bare = TelemetrySink::new(cfg.chunks.max(1));
        run_threaded_on(&pool, w, &inputs, cfg, FIGURE_SEED, Some(&bare));
        let profiled =
            TelemetrySink::new(cfg.chunks.max(1)).with_profiler(Profiler::new(args.workers));
        run_threaded_on(&pool, w, &inputs, cfg, FIGURE_SEED, Some(&profiled));
        let (a, b) = (bare.snapshot(), profiled.snapshot());
        let counters_unchanged = [
            Counter::ChunksStarted,
            Counter::ChunksCommitted,
            Counter::ChunksAborted,
            Counter::Reruns,
            Counter::ReplicasValidated,
            Counter::StateCopies,
            Counter::StateComparisons,
        ]
        .iter()
        .all(|&c| a.get(c) == b.get(c));

        BenchRow {
            report,
            shape,
            overhead_pct,
            counters_unchanged,
        }
    }
}

/// The gate verdict across benchmarks.
struct Gate {
    all_parity: bool,
    all_counters_unchanged: bool,
    all_shapes_agree: bool,
    median_overhead_pct: f64,
    threshold_pct: f64,
}

impl Gate {
    fn evaluate(rows: &[BenchRow], threshold_pct: f64) -> Gate {
        let mut overheads: Vec<f64> = rows.iter().map(|r| r.overhead_pct).collect();
        overheads.sort_by(f64::total_cmp);
        let median = if overheads.is_empty() {
            f64::NAN
        } else {
            overheads[overheads.len() / 2]
        };
        Gate {
            all_parity: rows.iter().all(|r| r.report.parity),
            all_counters_unchanged: rows.iter().all(|r| r.counters_unchanged),
            all_shapes_agree: rows.iter().all(|r| r.shape.agrees()),
            median_overhead_pct: median,
            threshold_pct,
        }
    }

    fn pass(&self) -> bool {
        self.all_parity
            && self.all_counters_unchanged
            && self.all_shapes_agree
            && self.median_overhead_pct < self.threshold_pct
    }
}

fn render_json(args: &Args, rows: &[BenchRow], gate: &Gate) -> String {
    let benches = json_array(rows.iter().map(|row| {
        let shares = |groups: &[(stats_telemetry::WallLoss, f64)]| {
            let mut o = JsonObject::new();
            for (l, v) in groups {
                o.f64(l.name(), *v);
            }
            o.finish()
        };
        let mut shape = JsonObject::new();
        shape
            .raw("native_shares", &shares(&row.shape.native))
            .raw("simulated_shares", &shares(&row.shape.simulated))
            .u64("inversions", row.shape.inversions.len() as u64)
            .bool("whatif_directions_agree", row.shape.whatif_directions_agree)
            .bool("agrees", row.shape.agrees());
        let mut o = JsonObject::new();
        o.raw("profile", &row.report.to_json())
            .f64("overhead_pct", row.overhead_pct)
            .bool("counters_unchanged", row.counters_unchanged)
            .raw("shape", &shape.finish());
        o.finish()
    }));
    let verdict = |g: &mut JsonObject| {
        g.bool("all_parity", gate.all_parity)
            .bool("all_counters_unchanged", gate.all_counters_unchanged)
            .bool("all_shapes_agree", gate.all_shapes_agree)
            .f64("median_overhead_pct", gate.median_overhead_pct)
            .f64("threshold_pct", gate.threshold_pct);
    };
    let params = |o: &mut JsonObject| {
        o.u64("reps", args.reps as u64)
            .u64("seeds", args.seeds as u64)
            .u64("workers", args.workers as u64);
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("native_profile", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.1),
        reps: 3,
        workers: 4,
        seeds: 3,
        threshold: 10.0,
        out: "BENCH_profile.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--reps" => args.reps = v.count()?,
            "--workers" => args.workers = v.count()?,
            "--seeds" => args.seeds = v.count()?,
            "--threshold" => args.threshold = v.positive()?,
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
        "native_profile: scale {}, {} reps, {} seeds, pool x{}, host parallelism {}",
        args.scale.0,
        args.reps,
        args.seeds,
        args.workers,
        default_workers(),
    );

    let rows: Vec<BenchRow> =
        BENCHMARK_NAMES
            .iter()
            .map(|name| {
                let row = dispatch(name, &args);
                println!(
                "{:<18} overhead {:>6.2}% | projected {:.2}x ± {:.2} | dominant {} | shape {}{}{}",
                row.report.benchmark,
                row.overhead_pct,
                row.report.projected.mean,
                row.report.projected.half_width,
                row.report
                    .runs
                    .first()
                    .map_or("n/a", |r| r.dominant().name()),
                if row.shape.agrees() { "ok" } else { "DISAGREES" },
                if row.report.parity { "" } else { ", PARITY BROKEN" },
                if row.counters_unchanged {
                    ""
                } else {
                    ", COUNTERS CHANGED"
                },
            );
                row
            })
            .collect();

    let gate = Gate::evaluate(&rows, args.threshold);
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | median overhead {:.2}% (threshold {:.0}%) | parity {} | counters {} | shapes {}",
        args.out,
        gate.median_overhead_pct,
        gate.threshold_pct,
        if gate.all_parity { "ok" } else { "BROKEN" },
        if gate.all_counters_unchanged {
            "ok"
        } else {
            "CHANGED"
        },
        if gate.all_shapes_agree { "ok" } else { "DISAGREE" },
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: span capture stays under the overhead budget and changes nothing",
        "FAIL: profiling overhead or parity gate failed",
    );
}
