//! Differential chaos sweep over the fault-injection plane: every paper
//! benchmark × pool width {1, 2, 4} × seeded fault plans.
//!
//! Each cell runs the pooled executor fault-free and under a seeded
//! [`FaultPlan`](stats_core::FaultPlan), plus the simulated runtime
//! under the same plan, and checks that recovery is observationally
//! invisible (see `stats_bench::chaos`). With `--gate`, the process
//! exits non-zero unless:
//!
//! * **parity** — every faulted run's decisions and quality bits equal
//!   the fault-free run's, on every width and plan;
//! * **counters** — the twelve protocol counters are untouched by
//!   recovery, and all fifteen (protocol + fault) counters reconcile
//!   exactly between the threaded and simulated runtimes;
//! * **accounting** — observed fault counters equal the plan's derived
//!   totals, and retries stay within `injections × max_retries`;
//! * **coverage** — all six injection kinds executed somewhere in the
//!   sweep (a kind that never fires is a kind that was never tested).
//!
//! Arguments, exit codes and the report envelope come from
//! [`stats_bench::harness`].

use stats_bench::chaos::{ChaosGate, ChaosRow, ChaosSweep, ALL_KINDS, WIDTHS};
use stats_bench::harness::{self, json_array};
use stats_bench::pipeline::Scale;
use stats_core::runtime::pool::default_workers;
use stats_telemetry::json::JsonObject;
use stats_workloads::{dispatch, BENCHMARK_NAMES};

const USAGE: &str = "usage: chaos [--scale F] [--plans N] [--injections N] [--out PATH] [--gate]";

struct Args {
    scale: Scale,
    plans: usize,
    injections: usize,
    out: String,
    gate: bool,
}

/// A JSON array of string literals.
fn names<'a>(items: impl IntoIterator<Item = &'a &'static str>) -> String {
    json_array(items.into_iter().map(|k| format!("\"{k}\"")))
}

fn render_json(args: &Args, rows: &[ChaosRow], gate: &ChaosGate) -> String {
    let benches = json_array(rows.iter().map(|row| {
        let cells = json_array(row.cells.iter().map(|c| {
            let mut o = JsonObject::new();
            o.u64("width", c.width as u64)
                .u64("plan_seed", c.plan_seed)
                .u64("planned", c.planned as u64)
                .u64("injected", c.injected)
                .u64("retries", c.retries)
                .u64("workers_lost", c.workers_lost)
                .u64("aborts", c.aborts)
                .bool("decisions_match", c.decisions_match)
                .bool("quality_match", c.quality_match)
                .bool("protocol_match", c.protocol_match)
                .bool("sim_reconciled", c.sim_reconciled)
                .bool("totals_exact", c.totals_exact)
                .bool("retries_bounded", c.retries_bounded)
                .raw("kinds_executed", &names(&c.kinds_executed));
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.str("benchmark", &row.name).raw("cells", &cells);
        o.finish()
    }));
    let verdict = |g: &mut JsonObject| {
        g.bool("all_ok", gate.all_ok)
            .raw("kinds_covered", &names(&gate.kinds_covered))
            .bool("full_coverage", gate.full_coverage);
    };
    let params = |o: &mut JsonObject| {
        o.u64("plans_per_width", args.plans as u64)
            .u64("injections_per_plan", args.injections as u64)
            .raw("widths", &json_array(WIDTHS.iter().map(usize::to_string)));
    };
    let gate = harness::gate_json(args.gate, verdict, gate.pass());
    harness::envelope("chaos", args.scale, params, &benches, &gate)
}

fn parse(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale(0.05),
        plans: 3,
        injections: 5,
        out: "BENCH_chaos.json".to_string(),
        gate: false,
    };
    harness::parse(argv, |flag, v| {
        match flag {
            "--scale" => args.scale = v.scale()?,
            "--plans" => args.plans = v.count()?,
            "--injections" => args.injections = v.count()?,
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
        "chaos: scale {}, {} plans x {} injections per width, widths {:?}, host parallelism {}",
        args.scale.0,
        args.plans,
        args.injections,
        WIDTHS,
        default_workers(),
    );

    let sweep = ChaosSweep {
        scale: args.scale,
        plans: args.plans,
        injections: args.injections,
    };
    let rows: Vec<ChaosRow> = BENCHMARK_NAMES
        .iter()
        .map(|name| {
            let row = dispatch(name, &sweep);
            for c in &row.cells {
                println!(
                    "{:<18} w{} plan {:#010x} injected {:>2} retries {:>2} lost {} | {}",
                    row.name,
                    c.width,
                    c.plan_seed & 0xFFFF_FFFF,
                    c.injected,
                    c.retries,
                    c.workers_lost,
                    if c.ok() { "identical" } else { "DIVERGED" },
                );
            }
            row
        })
        .collect();

    let gate = ChaosGate::evaluate(&rows);
    harness::write(&args.out, &render_json(&args, &rows, &gate));
    println!(
        "\nwrote {} | cells {} | kinds covered {}/{}",
        args.out,
        if gate.all_ok {
            "all identical"
        } else {
            "DIVERGED"
        },
        gate.kinds_covered.len(),
        ALL_KINDS.len(),
    );

    harness::settle(
        args.gate,
        gate.pass(),
        "OK: every injected fault recovered without a trace in the results",
        "FAIL: chaos gate failed",
    );
}
