//! Speculation-breadth sweep over the native pooled runtime: every paper
//! benchmark × breadth {1, 2, 4} × {serial, overlapped} abort recovery.
//!
//! For each cell this harness runs the pooled executor over two seeds,
//! `--reps` times each, and records the summed min wall time, the abort
//! count, and the breadth counters (`SpecCandidates` / `CandidateHits` /
//! `RerunSegments`); for each benchmark it additionally profiles the
//! breadth-1 and breadth-2 configurations to close the causal-profiler
//! loop. With `--gate`, the process exits non-zero unless:
//!
//! * **parity** — in every cell the threaded decisions and quality bits
//!   match the simulated run exactly, and the overlapped-recovery cell
//!   matches its serial sibling exactly (overlap moves work, never
//!   results);
//! * **counters** — `SpecCandidates` equals speculative-chunks × breadth
//!   exactly, and `RerunSegments` equals the abort count under serial
//!   recovery (at most twice it when overlapped);
//! * **rescue** — on the abort-heavy trackers, breadth 2 strictly
//!   reduces the summed abort count, and the profiled mispeculation
//!   loss share strictly shrinks from breadth 1 to breadth 2;
//! * **no overlap slowdown** — the geomean over all (benchmark,
//!   breadth) cells of `overlapped_time / serial_time` stays within
//!   `--tolerance` percent of 1.0;
//! * **bracket** — on the trackers, the achieved breadth-2 speedup
//!   stays under the mispeculation-free what-if the breadth-1 profile
//!   projects (slackened by `--tolerance` percent plus the CIs); the
//!   floor — breadth must not cost wall time — additionally needs the
//!   host to have a thread for every candidate of every chunk, so it is
//!   only enforced when `host_parallelism >= 2 x chunks` (the JSON
//!   records whether it was).
//!
//! Arguments, exit codes and the report envelope come from
//! [`stats_bench::harness`].

use stats_bench::harness::{self, estimate_json, json_array, Fingerprint};
use stats_bench::native_attribution::{profile_workload_configured, ProfileReport};
use stats_bench::pipeline::{geomean, tuned_config, Scale, FIGURE_SEED};
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::{ChunkDecision, Config};
use stats_telemetry::json::JsonObject;
use stats_telemetry::{Counter, Estimate, TelemetrySink, WallLoss};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

const USAGE: &str = "usage: native_breadth [--scale F] [--reps N] [--tolerance PCT] \
                     [--out PATH] [--gate]";

/// Breadths swept per benchmark. 1 is the head-identical baseline; the
/// profiler bracket compares 1 against 2.
const BREADTHS: [usize; 3] = [1, 2, 4];

/// Seeds each cell runs over (abort patterns are seed-dependent; the
/// rescue gate sums across both so a lucky single seed cannot pass it).
const SEEDS: [u64; 2] = [FIGURE_SEED, FIGURE_SEED + 1];

/// Benchmarks whose tuned configurations actually mispeculate at the
/// sweep scale: breadth has aborts to rescue, so the rescue and bracket
/// gates apply. The face detector's aborts stem from a detection-count
/// discontinuity no sibling RNG stream crosses differently, so breadth
/// cannot rescue it — it stays a sweep row but not a gated one.
const ABORT_HEAVY: [&str; 2] = ["bodytrack", "facetrack"];

struct Args {
    scale: Scale,
    reps: usize,
    tolerance: f64,
    out: String,
    gate: bool,
}

/// One (breadth, overlap) cell, summed over [`SEEDS`].
struct Cell {
    min_ns: u64,
    aborts: u64,
    candidates: u64,
    hits: u64,
    segments: u64,
    /// Threaded decisions and quality bits matched the simulated run on
    /// every seed.
    sim_parity: bool,
}

/// Serial and overlapped recovery at one breadth.
struct BreadthPair {
    breadth: usize,
    serial: Cell,
    overlapped: Cell,
    /// Overlapped decisions and quality bits matched serial on every seed.
    overlap_parity: bool,
    /// The counter identities held in both cells.
    counters_ok: bool,
}

struct BenchRow {
    name: String,
    /// Pool width the sweep ran on: `2 x chunks`, so at breadth 2 every
    /// candidate of every chunk has a worker slot.
    width: usize,
    pairs: Vec<BreadthPair>,
    narrow_measured: Estimate,
    wide_measured: Estimate,
    /// The mispeculation-free what-if projected from the breadth-1
    /// profile: the upper edge of the bracket breadth 2 must land in.
    mispec_free_narrow: Estimate,
    narrow_mispec_share: f64,
    wide_mispec_share: f64,
    is_abort_heavy: bool,
}

fn mispec_share(r: &ProfileReport) -> f64 {
    r.normalized_losses()
        .iter()
        .find(|(l, _)| *l == WallLoss::Mispeculation)
        .map_or(0.0, |(_, s)| *s)
}

impl WorkloadVisitor for &Args {
    type Output = BenchRow;
    fn visit<W: Workload>(self, w: &W) -> BenchRow {
        let args = self;
        let n = args.scale.inputs_for(w);
        let base = tuned_config(w, 28, args.scale);
        let width = base.chunks * 2;
        let pool = WorkerPool::new(width);
        let rt = SimulatedRuntime::paper_machine();

        // One threaded cell: summed min-over-reps time, counters, and
        // the per-seed decision/quality record for the parity checks.
        let measure = |cfg: Config| {
            let mut cell = Cell {
                min_ns: 0,
                aborts: 0,
                candidates: 0,
                hits: 0,
                segments: 0,
                sim_parity: true,
            };
            let mut record = Vec::new();
            for &seed in &SEEDS {
                let inputs = w.generate_inputs(n, seed);
                let sink = TelemetrySink::new(cfg.chunks.max(1));
                let first = run_threaded_on(&pool, w, &inputs, cfg, seed, Some(&sink));
                let snap = sink.snapshot();
                let mut min_ns = u64::try_from(first.elapsed.as_nanos()).unwrap_or(u64::MAX);
                for _ in 1..args.reps {
                    let rep = run_threaded_on(&pool, w, &inputs, cfg, seed, None);
                    min_ns = min_ns.min(u64::try_from(rep.elapsed.as_nanos()).unwrap_or(u64::MAX));
                }
                let sim = rt
                    .run(w.name(), w, &inputs, cfg, w.inner_parallelism(), seed)
                    .expect("valid configuration");
                let got = Fingerprint::of(w, &inputs, &first.decisions, &first.outputs);
                cell.sim_parity &= got == Fingerprint::of(w, &inputs, &sim.decisions, &sim.outputs);
                cell.min_ns += min_ns;
                cell.aborts += first
                    .decisions
                    .iter()
                    .filter(|d| **d == ChunkDecision::Aborted)
                    .count() as u64;
                cell.candidates += snap.get(Counter::SpecCandidates);
                cell.hits += snap.get(Counter::CandidateHits);
                cell.segments += snap.get(Counter::RerunSegments);
                record.push(got);
            }
            (cell, record)
        };

        let mut pairs = Vec::new();
        for &breadth in &BREADTHS {
            let cfg = base.with_breadth(breadth);
            let (serial, serial_record) = measure(cfg);
            let (overlapped, overlapped_record) = measure(cfg.with_overlap(true));
            let overlap_parity = serial_record == overlapped_record;
            // Every seed contributes (chunks - 1) speculative chunks.
            let speculative = SEEDS.len() as u64 * (cfg.chunks as u64 - 1);
            let counters_ok = serial.candidates == speculative * breadth as u64
                && overlapped.candidates == serial.candidates
                && serial.segments == serial.aborts
                && overlapped.segments >= overlapped.aborts
                && overlapped.segments <= 2 * overlapped.aborts;
            pairs.push(BreadthPair {
                breadth,
                serial,
                overlapped,
                overlap_parity,
                counters_ok,
            });
        }

        // Close the profiler loop: the mispeculation-free what-if is
        // projected under breadth 1 (where reruns still cost), the
        // achieved speedup measured under breadth 2.
        let narrow = profile_workload_configured(w, &pool, args.scale, &SEEDS, base);
        let wide = profile_workload_configured(w, &pool, args.scale, &SEEDS, base.with_breadth(2));

        BenchRow {
            name: w.name().to_string(),
            width,
            pairs,
            narrow_measured: narrow.measured,
            wide_measured: wide.measured,
            mispec_free_narrow: narrow.whatif_mispeculation_free,
            narrow_mispec_share: mispec_share(&narrow),
            wide_mispec_share: mispec_share(&wide),
            is_abort_heavy: ABORT_HEAVY.contains(&w.name()),
        }
    }
}

struct Gate {
    all_parity: bool,
    counters_exact: bool,
    rescues: bool,
    geomean_overlap_ratio: f64,
    ceilings_hold: bool,
    /// Whether the host had the threads to enforce the wall-time floor
    /// on every gated row.
    floor_enforced: bool,
    floors_hold: bool,
    tolerance_pct: f64,
}

impl Gate {
    fn evaluate(rows: &[BenchRow], tolerance_pct: f64) -> Gate {
        let slack = 1.0 + tolerance_pct / 100.0;
        let all_parity = rows.iter().all(|r| {
            r.pairs
                .iter()
                .all(|p| p.serial.sim_parity && p.overlapped.sim_parity && p.overlap_parity)
        });
        let counters_exact = rows.iter().all(|r| r.pairs.iter().all(|p| p.counters_ok));
        fn cell(r: &BenchRow, breadth: usize) -> &BreadthPair {
            r.pairs
                .iter()
                .find(|p| p.breadth == breadth)
                .expect("swept breadth")
        }
        let rescues = rows.iter().filter(|r| r.is_abort_heavy).all(|r| {
            let (b1, b2) = (cell(r, 1), cell(r, 2));
            b1.serial.aborts > 0
                && b2.serial.aborts < b1.serial.aborts
                && r.wide_mispec_share < r.narrow_mispec_share
        });
        let ratios: Vec<f64> = rows
            .iter()
            .flat_map(|r| r.pairs.iter())
            .map(|p| p.overlapped.min_ns as f64 / p.serial.min_ns.max(1) as f64)
            .collect();
        let geomean_overlap_ratio = geomean(&ratios);
        let ceilings_hold = rows.iter().filter(|r| r.is_abort_heavy).all(|r| {
            let ceiling = (r.mispec_free_narrow.mean + r.mispec_free_narrow.half_width) * slack;
            r.wide_measured.mean - r.wide_measured.half_width <= ceiling
        });
        let floor_enforced = rows
            .iter()
            .filter(|r| r.is_abort_heavy)
            .all(|r| default_workers() >= r.width);
        let floors_hold = !floor_enforced
            || rows.iter().filter(|r| r.is_abort_heavy).all(|r| {
                let floor = (r.narrow_measured.mean - r.narrow_measured.half_width) / slack;
                r.wide_measured.mean + r.wide_measured.half_width >= floor
            });
        Gate {
            all_parity,
            counters_exact,
            rescues,
            geomean_overlap_ratio,
            ceilings_hold,
            floor_enforced,
            floors_hold,
            tolerance_pct,
        }
    }

    fn pass(&self) -> bool {
        self.all_parity
            && self.counters_exact
            && self.rescues
            && self.geomean_overlap_ratio <= 1.0 + self.tolerance_pct / 100.0
            && self.ceilings_hold
            && self.floors_hold
    }
}

fn render_json(args: &Args, rows: &[BenchRow], gate: &Gate) -> String {
    let cell = |c: &Cell| {
        let mut o = JsonObject::new();
        o.u64("min_ns", c.min_ns)
            .u64("aborts", c.aborts)
            .u64("candidates", c.candidates)
            .u64("hits", c.hits)
            .u64("segments", c.segments)
            .bool("sim_parity", c.sim_parity);
        o.finish()
    };
    let benches = json_array(rows.iter().map(|row| {
        let cells = json_array(row.pairs.iter().map(|p| {
            let mut o = JsonObject::new();
            o.u64("breadth", p.breadth as u64)
                .raw("serial", &cell(&p.serial))
                .raw("overlapped", &cell(&p.overlapped))
                .bool("overlap_parity", p.overlap_parity)
                .bool("counters_ok", p.counters_ok);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.str("benchmark", &row.name)
            .bool("abort_heavy", row.is_abort_heavy)
            .u64("width", row.width as u64)
            .raw("breadths", &cells)
            .raw("narrow_measured", &estimate_json(&row.narrow_measured))
            .raw("wide_measured", &estimate_json(&row.wide_measured))
            .raw(
                "mispec_free_narrow",
                &estimate_json(&row.mispec_free_narrow),
            )
            .f64("narrow_mispec_share", row.narrow_mispec_share)
            .f64("wide_mispec_share", row.wide_mispec_share);
        o.finish()
    }));
    let verdict = |g: &mut JsonObject| {
        g.bool("all_parity", gate.all_parity)
            .bool("counters_exact", gate.counters_exact)
            .bool("rescues", gate.rescues)
            .f64("geomean_overlap_ratio", gate.geomean_overlap_ratio)
            .bool("ceilings_hold", gate.ceilings_hold)
            .bool("floor_enforced", gate.floor_enforced)
            .bool("floors_hold", gate.floors_hold)
            .f64("tolerance_pct", gate.tolerance_pct);
    };
    let params = |o: &mut JsonObject| {
        o.u64("reps", args.reps as u64)
            .u64("seeds", SEEDS.len() as u64)
            .raw(
                "breadths",
                &json_array(BREADTHS.iter().map(usize::to_string)),
            );
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("native_breadth", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.08),
        reps: 2,
        tolerance: 10.0,
        out: "BENCH_breadth.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--reps" => args.reps = v.count()?,
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
        "native_breadth: scale {}, {} reps x {} seeds, breadths {:?}, host parallelism {}",
        args.scale.0,
        args.reps,
        SEEDS.len(),
        BREADTHS,
        default_workers(),
    );

    let rows: Vec<BenchRow> = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let row = dispatch(name, &args);
            for p in &row.pairs {
                println!(
                    "{:<18} b{} aborts {} -> hits {} | segments {} -> {} | overlap x{:.3}{}{}",
                    row.name,
                    p.breadth,
                    p.serial.aborts,
                    p.serial.hits,
                    p.serial.segments,
                    p.overlapped.segments,
                    p.overlapped.min_ns as f64 / p.serial.min_ns.max(1) as f64,
                    if p.serial.sim_parity && p.overlapped.sim_parity && p.overlap_parity {
                        ""
                    } else {
                        " PARITY BROKEN"
                    },
                    if p.counters_ok { "" } else { " COUNTERS OFF" },
                );
            }
            println!(
                "{:<18} bracket: b1 {:.2}x <= b2 {:.2}x <= mispec-free {:.2}x | \
                 mispec share {:.4} -> {:.4}{}",
                "",
                row.narrow_measured.mean,
                row.wide_measured.mean,
                row.mispec_free_narrow.mean,
                row.narrow_mispec_share,
                row.wide_mispec_share,
                if row.is_abort_heavy { " (gated)" } else { "" },
            );
            row
        })
        .collect();

    let gate = Gate::evaluate(&rows, args.tolerance);
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | parity {} | counters {} | rescues {} | overlap x{:.3} | \
         ceilings {} | floors {}",
        args.out,
        if gate.all_parity { "ok" } else { "BROKEN" },
        if gate.counters_exact { "exact" } else { "OFF" },
        if gate.rescues { "ok" } else { "MISSING" },
        gate.geomean_overlap_ratio,
        if gate.ceilings_hold { "hold" } else { "BROKEN" },
        if !gate.floor_enforced {
            "skipped (host too narrow)"
        } else if gate.floors_hold {
            "hold"
        } else {
            "BROKEN"
        },
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: breadth trades bounded extra work for fewer aborts, never results",
        "FAIL: speculation-breadth gate failed",
    );
}
