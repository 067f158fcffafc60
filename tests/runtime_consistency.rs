//! The threaded runtime and the simulated runtime must agree on decisions
//! and outputs for every real benchmark — all nondeterminism is derived
//! from (seed, role), never from scheduling.

use stats_workbench::bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_workbench::core::runtime::pool::WorkerPool;
use stats_workbench::core::runtime::simulated::{GraphOptions, SimulatedRuntime};
use stats_workbench::core::runtime::threaded::run_threaded;
use stats_workbench::core::speculation::run_speculative;
use stats_workbench::core::{ChunkDecision, RunReport};
use stats_workbench::workloads::facetrack::FaceTrack;
use stats_workbench::workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

const SCALE: Scale = Scale(0.08);

struct Consistency;

impl WorkloadVisitor for Consistency {
    type Output = ();
    fn visit<W: Workload>(self, w: &W) {
        let n = SCALE.inputs_for(w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(w, 28, SCALE);

        let rt = SimulatedRuntime::paper_machine();
        let simulated = rt
            .run(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                FIGURE_SEED,
            )
            .expect("simulated run");
        let threaded = run_threaded(w, &inputs, cfg, FIGURE_SEED);

        assert_eq!(
            threaded.decisions,
            simulated.decisions,
            "{}: decision mismatch",
            w.name()
        );
        assert_eq!(
            threaded.outputs.len(),
            simulated.outputs.len(),
            "{}: output count mismatch",
            w.name()
        );
    }
}

#[test]
fn threaded_and_simulated_runtimes_agree_on_every_benchmark() {
    for name in BENCHMARK_NAMES {
        dispatch(name, Consistency);
    }
}

#[test]
fn threaded_runtime_is_reproducible_under_load() {
    // Run the same threaded execution repeatedly; host scheduling noise
    // must never leak into results.
    struct Repeat;
    impl WorkloadVisitor for Repeat {
        type Output = ();
        fn visit<W: Workload>(self, w: &W) {
            let n = Scale(0.05).inputs_for(w);
            let inputs = w.generate_inputs(n, 7);
            let cfg = tuned_config(w, 28, Scale(0.05));
            let first = run_threaded(w, &inputs, cfg, 7);
            for _ in 0..3 {
                let again = run_threaded(w, &inputs, cfg, 7);
                assert_eq!(again.decisions, first.decisions, "{}", w.name());
            }
        }
    }
    // The two cheapest benchmarks keep this test quick while still
    // exercising real thread interleavings.
    for name in ["facetrack", "facedet-and-track"] {
        dispatch(name, Repeat);
    }
}

/// What must not tell the two simulated paths apart: baseline cycles and
/// instructions, makespan, decisions and output count.
/// `SimulatedRuntime::run` overlaps its sequential baseline with the
/// semantic run on the shared pool; `run_from_outcome` computes both on
/// the caller.
fn pinned<O>(report: &RunReport<O>) -> (u64, u64, u64, Vec<ChunkDecision>, usize) {
    (
        report.sequential_cycles.get(),
        report.sequential_instructions,
        report.execution.makespan.get(),
        report.decisions.clone(),
        report.outputs.len(),
    )
}

/// The inline-path report of a workload's tuned run at `scale`.
fn inline_report<W: Workload>(w: &W, inputs: &[W::Input], scale: Scale) -> RunReport<W::Output> {
    let cfg = tuned_config(w, 28, scale);
    let opts = GraphOptions {
        inner: w.inner_parallelism(),
        outside_work: w.outside_region_work(),
        sync_ops_per_update: w.sync_ops_per_update(),
        ..GraphOptions::default()
    };
    SimulatedRuntime::paper_machine()
        .run_from_outcome(
            w.name(),
            w,
            inputs,
            run_speculative(w, inputs, cfg, FIGURE_SEED),
            opts,
            FIGURE_SEED,
        )
        .expect("inline run")
}

fn pooled_report<W: Workload>(w: &W, inputs: &[W::Input], scale: Scale) -> RunReport<W::Output> {
    SimulatedRuntime::paper_machine()
        .run(
            w.name(),
            w,
            inputs,
            tuned_config(w, 28, scale),
            w.inner_parallelism(),
            FIGURE_SEED,
        )
        .expect("pooled run")
}

#[test]
fn pooled_baseline_matches_the_inline_path_on_every_benchmark() {
    struct Pin;
    impl WorkloadVisitor for Pin {
        type Output = ();
        fn visit<W: Workload>(self, w: &W) {
            let inputs = w.generate_inputs(SCALE.inputs_for(w), FIGURE_SEED);
            assert_eq!(
                pinned(&pooled_report(w, &inputs, SCALE)),
                pinned(&inline_report(w, &inputs, SCALE)),
                "{}: pooled and inline simulated runs differ",
                w.name()
            );
        }
    }
    for name in BENCHMARK_NAMES {
        dispatch(name, Pin);
    }
}

#[test]
fn simulated_runs_complete_while_every_shared_worker_is_busy() {
    // One task per shared-pool worker, held at a barrier until every
    // worker runs one; then each task makes a simulated run, whose
    // baseline join finds no idle worker and must run it on the caller.
    // A join that waited on its queued baseline would hang, so the runs
    // go on their own thread, joined only once a watchdog has seen every
    // run finish: a hang fails the test instead of stalling it.
    let scale = Scale(0.05);
    let w = FaceTrack::paper();
    let inputs = w.generate_inputs(scale.inputs_for(&w), FIGURE_SEED);
    let reference = pinned(&inline_report(&w, &inputs, scale));
    let pool = WorkerPool::shared();
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let all_busy = Barrier::new(pool.workers());
        pool.scope(|scope| {
            for _ in 0..pool.workers() {
                let done = done.clone();
                let (w, inputs, all_busy) = (&w, &inputs, &all_busy);
                scope.spawn(move || {
                    all_busy.wait();
                    done.send(pinned(&pooled_report(w, inputs, scale)))
                        .expect("watchdog listening");
                });
            }
        });
    });
    for _ in 0..pool.workers() {
        let report = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("a simulated run on a saturated shared pool did not finish");
        assert_eq!(report, reference);
    }
    runner.join().expect("the saturating runs finished cleanly");
}
