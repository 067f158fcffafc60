//! Snapshot-strategy sweep over the native pooled runtime: every paper
//! benchmark × {deep, cow} × pool widths.
//!
//! For each cell this harness runs the pooled executor `--reps` times
//! and records the min wall time plus the byte accounting
//! (`StateBytesLogical` / `StateBytesCopied`); for each benchmark at the
//! widest width it additionally profiles both strategies to close the
//! causal-profiler loop. With `--gate`, the process exits non-zero
//! unless:
//!
//! * **parity** — at every width, the cow run's decisions, outputs, and
//!   quality bits match the deep run exactly, and both strategies agree
//!   on `StateBytesLogical` (the logical copy volume is a property of
//!   the protocol, not the snapshot mechanism);
//! * **byte collapse** — on the tracker benchmarks, whose particle-cloud
//!   states update generationally and so never fault their shared
//!   generations, `StateBytesCopied(cow) <= 0.5 x deep` (in practice it
//!   is near zero — far beyond the 2x the acceptance bar asks for);
//! * **no slowdown** — the geomean over all (benchmark, width) cells of
//!   `cow_time / deep_time` stays within `--tolerance` percent of 1.0;
//! * **bracket** — on the trackers, the achieved cow speedup lands in
//!   the bracket the deep profile predicts: at least the deep measured
//!   speedup and at most the copies-free what-if projection, each side
//!   slackened by `--tolerance` percent plus the estimate's own CI
//!   (wall-clock speedups on a time-shared host carry scheduler noise
//!   the tolerance absorbs).
//!
//! Arguments, exit codes and the report envelope come from
//! [`stats_bench::harness`].

use stats_bench::harness::{self, estimate_json, json_array, Fingerprint};
use stats_bench::native_attribution::profile_workload_configured;
use stats_bench::pipeline::{geomean, tuned_config, Scale, FIGURE_SEED};
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::{Config, SnapshotStrategy};
use stats_telemetry::json::JsonObject;
use stats_telemetry::{Counter, Estimate, TelemetrySink};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const USAGE: &str = "usage: native_copies [--scale F] [--reps N] [--widths A,B] \
                     [--tolerance PCT] [--out PATH] [--gate]";

/// Benchmarks whose dominant state is a particle cloud: COW forks share
/// whole generations structurally, so physical copies must collapse.
/// The stream workloads merely *defer* their (tiny) copy to the first
/// post-fork write, which the byte gate deliberately does not reward.
const TRACKERS: [&str; 3] = ["bodytrack", "facetrack", "facedet-and-track"];

struct Args {
    scale: Scale,
    reps: usize,
    widths: Vec<usize>,
    tolerance: f64,
    out: String,
    gate: bool,
}

/// One (strategy, width) cell: timing plus byte accounting.
struct Cell {
    min_ns: u64,
    bytes_logical: u64,
    bytes_copied: u64,
}

/// Deep and cow at one width, with the parity verdict between them.
struct WidthPair {
    width: usize,
    deep: Cell,
    cow: Cell,
    parity: bool,
}

struct BenchRow {
    name: String,
    pairs: Vec<WidthPair>,
    /// Measured speedup of the deep-snapshot runs (profiled, widest width).
    deep_measured: Estimate,
    /// Measured speedup of the cow-snapshot runs (same pool and seeds).
    cow_measured: Estimate,
    /// The copies-free what-if, projected from the *deep* profile: the
    /// upper edge of the bracket the cow runs must land in.
    copies_free_deep: Estimate,
    is_tracker: bool,
}

impl WorkloadVisitor for &Args {
    type Output = BenchRow;
    fn visit<W: Workload>(self, w: &W) -> BenchRow {
        let args = self;
        let n = args.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let deep_cfg = tuned_config(w, 28, args.scale);
        let mut cow_cfg = deep_cfg;
        cow_cfg.snapshot = SnapshotStrategy::CopyOnWrite;

        let mut pairs = Vec::new();
        for &width in &args.widths {
            let pool = WorkerPool::new(width);
            let measure = |cfg: Config| {
                let sink = TelemetrySink::new(cfg.chunks.max(1));
                let first = run_threaded_on(&pool, w, &inputs, cfg, FIGURE_SEED, Some(&sink));
                let snap = sink.snapshot();
                let mut min_ns = u64::try_from(first.elapsed.as_nanos()).unwrap_or(u64::MAX);
                for _ in 1..args.reps {
                    let rep = run_threaded_on(&pool, w, &inputs, cfg, FIGURE_SEED, None);
                    min_ns = min_ns.min(u64::try_from(rep.elapsed.as_nanos()).unwrap_or(u64::MAX));
                }
                let cell = Cell {
                    min_ns,
                    bytes_logical: snap.get(Counter::StateBytesLogical),
                    bytes_copied: snap.get(Counter::StateBytesCopied),
                };
                (
                    cell,
                    Fingerprint::of(w, &inputs, &first.decisions, &first.outputs),
                )
            };
            let (deep, deep_run) = measure(deep_cfg);
            let (cow, cow_run) = measure(cow_cfg);
            let parity = deep_run == cow_run && deep.bytes_logical == cow.bytes_logical;
            pairs.push(WidthPair {
                width,
                deep,
                cow,
                parity,
            });
        }

        // Close the profiler loop at the widest width: the copies-free
        // what-if is measured under deep (where copies still cost), the
        // achieved speedup under cow.
        let widest = args.widths.iter().copied().max().unwrap_or(1);
        let pool = WorkerPool::new(widest);
        let seeds = [FIGURE_SEED, FIGURE_SEED + 1];
        let deep_report = profile_workload_configured(w, &pool, args.scale, &seeds, deep_cfg);
        let cow_report = profile_workload_configured(w, &pool, args.scale, &seeds, cow_cfg);

        BenchRow {
            name: w.name().to_string(),
            pairs,
            deep_measured: deep_report.measured,
            cow_measured: cow_report.measured,
            copies_free_deep: deep_report.whatif_copies_free,
            is_tracker: TRACKERS.contains(&w.name()),
        }
    }
}

struct Gate {
    all_parity: bool,
    trackers_collapse: bool,
    geomean_time_ratio: f64,
    brackets_hold: bool,
    tolerance_pct: f64,
}

impl Gate {
    fn evaluate(rows: &[BenchRow], tolerance_pct: f64) -> Gate {
        let slack = 1.0 + tolerance_pct / 100.0;
        let all_parity = rows.iter().all(|r| r.pairs.iter().all(|p| p.parity));
        let trackers_collapse = rows.iter().filter(|r| r.is_tracker).all(|r| {
            r.pairs
                .iter()
                .all(|p| 2 * p.cow.bytes_copied <= p.deep.bytes_copied)
        });
        let ratios: Vec<f64> = rows
            .iter()
            .flat_map(|r| r.pairs.iter())
            .map(|p| p.cow.min_ns as f64 / p.deep.min_ns.max(1) as f64)
            .collect();
        let geomean_time_ratio = geomean(&ratios);
        let brackets_hold = rows.iter().filter(|r| r.is_tracker).all(|r| {
            let ceiling = (r.copies_free_deep.mean + r.copies_free_deep.half_width) * slack;
            let floor = (r.deep_measured.mean - r.deep_measured.half_width) / slack;
            let achieved = r.cow_measured.mean;
            achieved - r.cow_measured.half_width <= ceiling
                && achieved + r.cow_measured.half_width >= floor
        });
        Gate {
            all_parity,
            trackers_collapse,
            geomean_time_ratio,
            brackets_hold,
            tolerance_pct,
        }
    }

    fn pass(&self) -> bool {
        self.all_parity
            && self.trackers_collapse
            && self.geomean_time_ratio <= 1.0 + self.tolerance_pct / 100.0
            && self.brackets_hold
    }
}

fn render_json(args: &Args, rows: &[BenchRow], gate: &Gate) -> String {
    let cell = |c: &Cell| {
        let mut o = JsonObject::new();
        o.u64("min_ns", c.min_ns)
            .u64("bytes_logical", c.bytes_logical)
            .u64("bytes_copied", c.bytes_copied);
        o.finish()
    };
    let benches = json_array(rows.iter().map(|row| {
        let widths = json_array(row.pairs.iter().map(|p| {
            let mut o = JsonObject::new();
            o.u64("width", p.width as u64)
                .raw("deep", &cell(&p.deep))
                .raw("cow", &cell(&p.cow))
                .bool("parity", p.parity);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.str("benchmark", &row.name)
            .bool("tracker", row.is_tracker)
            .raw("widths", &widths)
            .raw("deep_measured", &estimate_json(&row.deep_measured))
            .raw("cow_measured", &estimate_json(&row.cow_measured))
            .raw("copies_free_deep", &estimate_json(&row.copies_free_deep));
        o.finish()
    }));
    let verdict = |g: &mut JsonObject| {
        g.bool("all_parity", gate.all_parity)
            .bool("trackers_collapse", gate.trackers_collapse)
            .f64("geomean_time_ratio", gate.geomean_time_ratio)
            .bool("brackets_hold", gate.brackets_hold)
            .f64("tolerance_pct", gate.tolerance_pct);
    };
    let params = |o: &mut JsonObject| {
        o.u64("reps", args.reps as u64).raw(
            "widths",
            &json_array(args.widths.iter().map(usize::to_string)),
        );
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("native_copies", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.1),
        reps: 3,
        widths: vec![1, 4],
        tolerance: 10.0,
        out: "BENCH_copies.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--reps" => args.reps = v.count()?,
            "--widths" => args.widths = v.counts()?,
            "--tolerance" => args.tolerance = v.positive()?,
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
        "native_copies: scale {}, {} reps, widths {:?}, host parallelism {}",
        args.scale.0,
        args.reps,
        args.widths,
        default_workers(),
    );

    let rows: Vec<BenchRow> = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let row = dispatch(name, &args);
            for p in &row.pairs {
                println!(
                    "{:<18} w{} copied {:>12} -> {:>12} B ({}) | time x{:.3}{}",
                    row.name,
                    p.width,
                    p.deep.bytes_copied,
                    p.cow.bytes_copied,
                    if p.deep.bytes_copied > 0 && 2 * p.cow.bytes_copied <= p.deep.bytes_copied {
                        "collapsed"
                    } else {
                        "deferred"
                    },
                    p.cow.min_ns as f64 / p.deep.min_ns.max(1) as f64,
                    if p.parity { "" } else { " PARITY BROKEN" },
                );
            }
            println!(
                "{:<18} bracket: deep {:.2}x <= cow {:.2}x <= copies-free {:.2}x{}",
                "",
                row.deep_measured.mean,
                row.cow_measured.mean,
                row.copies_free_deep.mean,
                if row.is_tracker { " (gated)" } else { "" },
            );
            row
        })
        .collect();

    let gate = Gate::evaluate(&rows, args.tolerance);
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | parity {} | tracker bytes {} | geomean time x{:.3} | brackets {}",
        args.out,
        if gate.all_parity { "ok" } else { "BROKEN" },
        if gate.trackers_collapse {
            "collapsed"
        } else {
            "NOT COLLAPSED"
        },
        gate.geomean_time_ratio,
        if gate.brackets_hold { "hold" } else { "BROKEN" },
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: cow snapshots change bytes and time, never results",
        "FAIL: snapshot-strategy gate failed",
    );
}
