//! Per-layer metrics, from the traced run.
//!
//! The run's `--seconds` are shared among four phases, each timing calls
//! into one layer's public entry points:
//!
//! 1. `stats-workloads`: a sequential replay and a protocol run through
//!    [`Probe`], which times every `update`, `snapshot_state` and
//!    `states_match` call;
//! 2. `speculation`, `runtime::simulated` + `stats-platform`, and
//!    `runtime::threaded` at width 1, in alternating rounds;
//! 3. `runtime::pool`: spawn-to-start latency of empty tasks per lane;
//! 4. `stats-telemetry`: interleaved runs with no sink, a counters-only
//!    sink and a sink with the profiler attached, reported as medians of
//!    paired ratios.
//!
//! Every phase cycles over the run's input streams. Two ledger identities
//! close the report, each over means per run and with its residual stated
//! as a fraction of the measured side:
//!
//! * `protocol_ms ≈ update_calls × update_ns + snapshots × snapshot_ns +
//!   comparisons × states_match_ns` (per-call means);
//! * `w1_ms ≈ protocol_ms + normal-lane tasks × normal dispatch_ns.p50 +
//!   urgent-lane tasks × urgent dispatch_ns.p50`.

use crate::measure::{deadline_after, mean, median, passed, quantile, Gate, Spans};
use crate::probe::Probe;
use crate::{decisions, Bench, Metrics};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::sequential::run_sequential;
use stats_core::runtime::simulated::{build_task_graph, GraphOptions, SimulatedRuntime};
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::speculation::{run_speculative, SpeculationOutcome};
use stats_core::ChunkDecision;
use stats_telemetry::clock::monotonic_ns;
use stats_telemetry::{Category, Counter, Profiler, TelemetrySink, WallProfile};
use stats_workloads::Workload;
use std::sync::atomic::{AtomicU64, Ordering};

pub const GENERATE: &str = "workloads.generate_inputs";
pub const POOL_NEW: &str = "pool.new";
const PROTOCOL: &str = "speculation.run_speculative";
const GRAPH: &str = "simulated.build_task_graph";
const EXECUTE: &str = "platform.machine_execute";
const W1: &str = "threaded.run_threaded_on.w1";
const BARE: &str = "threaded.run_threaded_on.no_sink";
const COUNTED: &str = "threaded.run_threaded_on.counters";
const TRACED: &str = "threaded.run_threaded_on.profiler";

/// Profiler categories reported as `profiler.<name>_ns`.
const CATEGORIES: [Category; 8] = [
    Category::AltProducer,
    Category::OriginalStateGen,
    Category::StateComparison,
    Category::StateCopy,
    Category::Sync,
    Category::ChunkCompute,
    Category::AbortedCompute,
    Category::Commit,
];

/// Protocol counters reported as `counters.<name>` (the fault-plane
/// counters stay zero without a fault plan and are left out).
const COUNTERS: [Counter; 14] = [
    Counter::ChunksStarted,
    Counter::ChunksCommitted,
    Counter::ChunksAborted,
    Counter::Reruns,
    Counter::RerunSegments,
    Counter::SpecCandidates,
    Counter::CandidateHits,
    Counter::ReplicasValidated,
    Counter::StateCopies,
    Counter::StateComparisons,
    Counter::StateBytesLogical,
    Counter::StateBytesCopied,
    Counter::BusyTime,
    Counter::IdleTime,
];

/// Samples per dispatch lane even when the phase's time has passed.
const MIN_DISPATCH: usize = 200;

/// Work units the protocol executed: every alternative producer, every
/// speculative or rerun segment, every replica and every losing breadth
/// candidate.
fn executed_work<O>(outcome: &SpeculationOutcome<O>) -> u64 {
    outcome
        .chunks
        .iter()
        .map(|c| {
            c.alt_cost.map_or(0, |a| a.work)
                + c.spec_prefix.work
                + c.spec_suffix.work
                + c.rerun.map_or(0, |(p, s)| p.work + s.work)
                + c.replica_costs.iter().map(|r| r.work).sum::<u64>()
                + c.losing_candidates
                    .iter()
                    .map(|l| l.alt.work + l.prefix.work + l.suffix.work)
                    .sum::<u64>()
        })
        .sum()
}

/// Nanoseconds from `spawn`/`spawn_urgent` of an empty task to the
/// moment a worker starts it.
fn dispatch_ns(pool: &WorkerPool, urgent: bool) -> f64 {
    let started = AtomicU64::new(0);
    let spawned = pool.scope(|scope| {
        let started = &started;
        let task = move || started.store(monotonic_ns(), Ordering::SeqCst);
        let t0 = monotonic_ns();
        if urgent {
            scope.spawn_urgent(task);
        } else {
            scope.spawn(task);
        }
        t0
    });
    started.load(Ordering::SeqCst).saturating_sub(spawned) as f64
}

/// Mean per-call cost, zero when the method was never called (its count
/// is then zero too, so the ledger term vanishes either way).
fn per_call(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        mean(samples)
    }
}

pub fn per_layer<W: Workload>(
    b: &Bench<W>,
    spans: &mut Spans,
    gate: &mut Gate,
    seconds: f64,
) -> Result<Metrics, String> {
    let phase = |share: f64| deadline_after(seconds * share);
    let streams = b.streams.len();
    // Every phase runs whole cycles over the streams (at least one), so
    // each stream weighs the same in its figures.

    // ---- 1. stats-workloads, through the timing wrapper ----------------
    let probe = Probe::new(b.w);
    let deadline = phase(0.15);
    let mut sequential_work = vec![0u64; streams];
    let mut cycles = 0;
    while cycles == 0 || !passed(deadline) {
        for (i, s) in b.streams.iter().enumerate() {
            let run = run_sequential(&probe, &s.inputs, s.seed);
            gate.expect("probed sequential run", run.outputs.len() == s.inputs.len());
            sequential_work[i] = run.cost.work;
        }
        cycles += 1;
    }
    let update_ns = probe.update.take();

    let deadline = phase(0.15);
    let mut protocol_runs = 0;
    while protocol_runs == 0 || !passed(deadline) {
        for s in &b.streams {
            let o = run_speculative(&probe, &s.inputs, b.config, s.seed);
            b.check(gate, "probed protocol run", s, &decisions(&o), &o.outputs);
            protocol_runs += 1;
        }
    }
    let per_run = |calls: usize| calls as f64 / protocol_runs as f64;
    let update_calls = per_run(probe.update.calls());
    let snapshot_ns = probe.snapshot.take();
    let match_ns = probe.states_match.take();
    let snapshots = per_run(snapshot_ns.len());
    let comparisons = per_run(match_ns.len());

    // ---- 2. speculation, simulated + platform, threaded at width 1 ------
    let simulated = SimulatedRuntime::paper_machine();
    let machine = simulated.machine();
    let outside = b.w.outside_region_work();
    let opts = GraphOptions {
        inner: b.w.inner_parallelism(),
        outside_work: outside,
        sync_ops_per_update: b.w.sync_ops_per_update(),
        ..GraphOptions::default()
    };
    let mut speedup_28c = vec![0.0; streams];
    let pool1 = WorkerPool::new(1);
    let deadline = phase(0.3);
    let mut round = 0;
    while round == 0 || !passed(deadline) {
        for (i, s) in b.streams.iter().enumerate() {
            for step in 0..2 {
                if (round + step) % 2 == 0 {
                    let (_, o) = spans.time(PROTOCOL, || {
                        run_speculative(b.w, &s.inputs, b.config, s.seed)
                    });
                    b.check(gate, "protocol run", s, &decisions(&o), &o.outputs);
                    let (_, graph) =
                        spans.time(GRAPH, || build_task_graph(b.w.name(), &o, machine, &opts));
                    let (_, executed) = spans.time(EXECUTE, || machine.execute(&graph));
                    match executed {
                        Ok(e) => {
                            // The sequential baseline in cycles, as
                            // `SimulatedRuntime::run` computes it.
                            let work = sequential_work[i] + outside.0 + outside.1;
                            speedup_28c[i] = e.speedup_vs(machine.cost_model().work(work));
                            gate.expect("simulated execution", true);
                        }
                        Err(e) => gate.expect(&format!("simulated execution ({e})"), false),
                    }
                } else {
                    let (_, run) = spans.time(W1, || {
                        run_threaded_on(&pool1, b.w, &s.inputs, b.config, s.seed, None)
                    });
                    b.check(gate, "width-1 run", s, &run.decisions, &run.outputs);
                }
            }
            round += 1;
        }
    }
    drop(pool1);

    // ---- 3. runtime::pool dispatch, lanes interleaved -------------------
    let deadline = phase(0.1);
    let (mut normal, mut urgent) = (Vec::new(), Vec::new());
    while normal.len() < MIN_DISPATCH || !passed(deadline) {
        let urgent_first = normal.len() % 2 == 1;
        for lane_urgent in [urgent_first, !urgent_first] {
            let ns = dispatch_ns(&b.pool, lane_urgent);
            if lane_urgent {
                urgent.push(ns);
            } else {
                normal.push(ns);
            }
        }
    }

    // ---- 4. stats-telemetry: interleaved sink on/off triples ------------
    let deadline = phase(0.3);
    let mut ratios = [Vec::new(), Vec::new(), Vec::new()];
    let mut counters: Vec<Vec<f64>> = vec![Vec::new(); COUNTERS.len()];
    let mut utilization = Vec::new();
    let mut categories: Vec<Vec<f64>> = vec![Vec::new(); CATEGORIES.len()];
    let mut dropped = 0;
    let mut round = 0;
    while round == 0 || !passed(deadline) {
        for s in &b.streams {
            let mut ns = [0u64; 3];
            for step in 0..3 {
                let which = (round + step) % 3;
                let sink = match which {
                    0 => None,
                    1 => Some(TelemetrySink::new(b.config.chunks)),
                    _ => Some(
                        TelemetrySink::new(b.config.chunks).with_profiler(Profiler::new(b.width)),
                    ),
                };
                let (took, run) = spans.time([BARE, COUNTED, TRACED][which], || {
                    run_threaded_on(&b.pool, b.w, &s.inputs, b.config, s.seed, sink.as_ref())
                });
                ns[which] = took;
                b.check(gate, "parallel run", s, &run.decisions, &run.outputs);
                let elapsed_ns = run.elapsed.as_nanos() as f64;
                match (which, &sink) {
                    (1, Some(sink)) => {
                        let snap = sink.snapshot();
                        for (slot, &c) in counters.iter_mut().zip(&COUNTERS) {
                            slot.push(snap.get(c) as f64);
                        }
                        let busy = snap.get(Counter::BusyTime) as f64;
                        utilization.push(busy / (b.width as f64 * elapsed_ns));
                    }
                    (2, Some(sink)) => {
                        let profiler = sink.profiler().expect("profiler attached");
                        let aborted = run
                            .decisions
                            .iter()
                            .map(|d| *d == ChunkDecision::Aborted)
                            .collect();
                        let profile = WallProfile::assemble_with_breadth(
                            profiler,
                            aborted,
                            b.config.spec_breadth,
                            elapsed_ns as u64,
                        );
                        dropped += profile.dropped;
                        for (slot, &c) in categories.iter_mut().zip(&CATEGORIES) {
                            slot.push(profile.category_ns(c) as f64);
                        }
                    }
                    _ => {}
                }
            }
            let [bare, counted, traced] = ns.map(|v| v as f64);
            ratios[0].push(counted / bare);
            ratios[1].push(traced / counted);
            ratios[2].push(traced / bare);
            round += 1;
        }
    }
    println!("# telemetry: {round} interleaved triples; profiler records dropped: {dropped}");
    // Counts differ between streams, so they are reported as the mean per run.
    let counter = |c: Counter| {
        let i = COUNTERS
            .iter()
            .position(|&x| x == c)
            .expect("listed counter");
        mean(&counters[i])
    };

    // ---- report ---------------------------------------------------------
    let mut m = Metrics::default();
    let update_mean = per_call(&update_ns);
    m.push("workloads.update_ns.p50", median(&update_ns), "ns");
    m.push("workloads.update_ns.mean", update_mean, "ns");
    m.push("workloads.states_match_ns.p50", median(&match_ns), "ns");
    m.push("workloads.snapshot_ns.p50", median(&snapshot_ns), "ns");
    m.push(
        "workloads.generate_inputs_ms",
        median(&spans.ms(GENERATE)),
        "ms",
    );

    let protocol = spans.ms(PROTOCOL);
    let outcomes = || b.streams.iter().map(|s| &s.outcome);
    let executed: u64 = outcomes().map(executed_work).sum();
    let sequential: u64 = sequential_work.iter().sum();
    let per_stream = |f: &dyn Fn(&SpeculationOutcome<W::Output>) -> f64| {
        outcomes().map(f).sum::<f64>() / streams as f64
    };
    m.push("speculation.protocol_ms.p50", median(&protocol), "ms");
    m.push(
        "speculation.extra_work",
        executed as f64 / sequential as f64 - 1.0,
        "ratio",
    );
    m.push(
        "speculation.commit_rate",
        per_stream(&|o| o.commit_rate()),
        "ratio",
    );
    m.push(
        "speculation.aborts",
        per_stream(&|o| o.aborts() as f64),
        "count",
    );
    m.push(
        "speculation.bytes_copied",
        per_stream(&|o| o.bytes_copied() as f64),
        "bytes",
    );
    m.push("speculation.update_calls", update_calls, "count");
    m.push("speculation.snapshots", snapshots, "count");
    m.push("speculation.comparisons", comparisons, "count");

    // Chunk candidates queue on the normal lane; replica and rerun tasks
    // on the urgent lane.
    let normal_tasks = 1.0 + counter(Counter::SpecCandidates);
    let urgent_tasks = counter(Counter::ReplicasValidated) + counter(Counter::RerunSegments);
    let (normal_p50, urgent_p50) = (median(&normal), median(&urgent));
    m.push("pool.create_ms", median(&spans.ms(POOL_NEW)), "ms");
    m.push("pool.dispatch_ns.p50.normal", normal_p50, "ns");
    m.push("pool.dispatch_ns.p90.normal", quantile(&normal, 0.9), "ns");
    m.push("pool.dispatch_ns.p50.urgent", urgent_p50, "ns");
    m.push("pool.dispatch_ns.p90.urgent", quantile(&urgent, 0.9), "ns");
    m.push("pool.tasks", normal_tasks + urgent_tasks, "count");

    let w1 = spans.ms(W1);
    m.push("threaded.w1_ms.p50", median(&w1), "ms");
    m.push(
        "threaded.mechanism_ms",
        median(&w1) - median(&protocol),
        "ms",
    );
    m.push("threaded.utilization", median(&utilization), "ratio");

    m.push("telemetry.counters_overhead", median(&ratios[0]), "ratio");
    m.push("telemetry.profiler_overhead", median(&ratios[1]), "ratio");
    m.push("trace.overhead", median(&ratios[2]), "ratio");
    for (c, values) in CATEGORIES.iter().zip(&categories) {
        m.push(format!("profiler.{}_ns", c.name()), median(values), "ns");
    }
    for (c, values) in COUNTERS.iter().zip(&counters) {
        let unit = match c {
            Counter::BusyTime | Counter::IdleTime => "ns",
            Counter::StateBytesLogical | Counter::StateBytesCopied => "bytes",
            _ => "count",
        };
        m.push(format!("counters.{}", c.name()), mean(values), unit);
    }

    m.push("sim.graph_ms", median(&spans.ms(GRAPH)), "ms");
    m.push("sim.execute_ms", median(&spans.ms(EXECUTE)), "ms");
    m.push("sim.speedup_28c", mean(&speedup_28c), "x");

    // The identities hold per run, so the ledger compares means: a run's
    // mean time against mean calls per run times mean cost per call.
    let protocol_ms = mean(&protocol);
    let w1_ms = mean(&w1);
    let calls_ms = (update_calls * update_mean
        + snapshots * per_call(&snapshot_ns)
        + comparisons * per_call(&match_ns))
        / 1e6;
    let dispatch_ms = (normal_tasks * normal_p50 + urgent_tasks * urgent_p50) / 1e6;
    println!(
        "# ledger (means per run): protocol {protocol_ms:.3} ms ~ {calls_ms:.3} ms of calls \
         ({update_calls:.1} updates, {snapshots:.1} snapshots, {comparisons:.1} comparisons); \
         w1 {w1_ms:.3} ms ~ protocol + {dispatch_ms:.3} ms dispatch"
    );
    m.push(
        "ledger.protocol_residual",
        (protocol_ms - calls_ms) / protocol_ms,
        "ratio",
    );
    m.push(
        "ledger.w1_residual",
        (w1_ms - protocol_ms - dispatch_ms) / w1_ms,
        "ratio",
    );
    Ok(m)
}
