//! Ablation studies for the design choices the paper motivates:
//! synchronization costs (§III-C), state-copy acceleration (§V-C's
//! proposed evolution), and the speculation parameters k / m / chunk
//! count whose trade-offs drive the autotuner (§II-B, §III-E).

use crate::pipeline::{clamp_config, speedup_of, tuned_config, Scale, FIGURE_SEED};
use crate::render::{f2, pct, TextTable};
use serde::{Deserialize, Serialize};
use stats_core::plan_weighted;
use stats_core::runtime::sequential::run_sequential;
use stats_core::runtime::simulated::{sequential_baseline, GraphOptions, SimulatedRuntime};
use stats_core::speculation::{run_speculative, run_speculative_planned, SpeculationOutcome};
use stats_core::Config;
use stats_platform::{CostModel, Machine, Topology};
use stats_trace::Cycles;
use stats_workloads::{dispatch, Workload, WorkloadVisitor, BENCHMARK_NAMES};

/// One `(x, speedup)` sample of a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter value (cost factor, k, m, or chunk count).
    pub x: f64,
    /// Achieved speedup on 28 cores.
    pub speedup: f64,
    /// Commit rate of the run.
    pub commit_rate: f64,
}

/// A named sweep for one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Samples in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Relative speedup change from the first to the last point.
    pub fn relative_change(&self) -> f64 {
        let first = self.points.first().map(|p| p.speedup).unwrap_or(0.0);
        let last = self.points.last().map(|p| p.speedup).unwrap_or(0.0);
        if first == 0.0 {
            0.0
        } else {
            (last - first) / first
        }
    }

    /// The x value with the best speedup.
    pub fn best_x(&self) -> f64 {
        self.points
            .iter()
            .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("no NaN"))
            .map(|p| p.x)
            .unwrap_or(0.0)
    }
}

/// A machine whose synchronization-related costs are scaled by `factor`.
fn machine_with_sync_factor(factor: f64) -> Machine {
    let mut cm = CostModel::default();
    let scale = |c: Cycles| Cycles((c.get() as f64 * factor).round() as u64);
    cm.sync_wakeup = scale(cm.sync_wakeup);
    cm.sync_block = scale(cm.sync_block);
    cm.dispatch = scale(cm.dispatch);
    cm.context_switch = scale(cm.context_switch);
    Machine::new(Topology::paper_machine(), cm)
}

/// A machine whose state-copy operator is `factor`× faster (the §V-C
/// "hardware accelerator" evolution).
fn machine_with_copy_acceleration(factor: u64) -> Machine {
    let mut cm = CostModel::default();
    cm.copy_bytes_per_cycle_intra *= factor;
    cm.copy_bytes_per_cycle_inter *= factor;
    Machine::new(Topology::paper_machine(), cm)
}

/// The graph options [`SimulatedRuntime::run`] lowers a workload with.
fn graph_options<W: Workload>(w: &W, lazy_replicas: bool) -> GraphOptions {
    GraphOptions {
        inner: w.inner_parallelism(),
        assume_all_commit: false,
        outside_work: w.outside_region_work(),
        sync_ops_per_update: w.sync_ops_per_update(),
        lazy_replicas,
    }
}

fn run_speedup<W: Workload>(w: &W, machine: &Machine, config: Config, scale: Scale) -> SweepPoint {
    let rt = SimulatedRuntime::new(machine.clone());
    let n = scale.inputs_for(w);
    let inputs = w.generate_inputs(n, FIGURE_SEED);
    let outcome = run_speculative(w, &inputs, config, FIGURE_SEED);
    let commit_rate = outcome.commit_rate();
    let report = rt
        .run_from_outcome(
            w.name(),
            w,
            &inputs,
            outcome,
            graph_options(w, false),
            FIGURE_SEED,
        )
        .expect("valid config");
    SweepPoint {
        x: 0.0,
        speedup: report.speedup(),
        commit_rate,
    }
}

/// Sweep the machine's synchronization costs (0× … 4× the defaults) under
/// each benchmark's tuned configuration.
pub fn sync_cost_sweep(scale: Scale) -> Vec<Sweep> {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = Sweep;
        fn visit<W: Workload>(self, w: &W) -> Sweep {
            let cfg = tuned_config(w, 28, self.scale);
            let points = [0.0, 0.5, 1.0, 2.0, 4.0]
                .into_iter()
                .map(|factor| {
                    let machine = machine_with_sync_factor(factor);
                    SweepPoint {
                        x: factor,
                        ..run_speedup(w, &machine, cfg, self.scale)
                    }
                })
                .collect();
            Sweep {
                benchmark: w.name().to_string(),
                points,
            }
        }
    }
    BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, V { scale }))
        .collect()
}

/// Sweep the state-copy operator speed (1× … 16× faster).
pub fn copy_acceleration_sweep(scale: Scale) -> Vec<Sweep> {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = Sweep;
        fn visit<W: Workload>(self, w: &W) -> Sweep {
            let cfg = tuned_config(w, 28, self.scale);
            let points = [1u64, 4, 8, 16]
                .into_iter()
                .map(|factor| {
                    let machine = machine_with_copy_acceleration(factor);
                    SweepPoint {
                        x: factor as f64,
                        ..run_speedup(w, &machine, cfg, self.scale)
                    }
                })
                .collect();
            Sweep {
                benchmark: w.name().to_string(),
                points,
            }
        }
    }
    BENCHMARK_NAMES
        .iter()
        .map(|name| dispatch(name, V { scale }))
        .collect()
}

/// Sweep the alternative producers' lookback `k` for one benchmark.
pub fn lookback_sweep(name: &str, scale: Scale) -> Sweep {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = Sweep;
        fn visit<W: Workload>(self, w: &W) -> Sweep {
            let machine = Machine::paper_machine();
            let base = tuned_config(w, 28, self.scale);
            let n = self.scale.inputs_for(w);
            let points = [1usize, 2, 4, 8, 16]
                .into_iter()
                .filter_map(|k| {
                    let cfg = clamp_config(
                        Config {
                            lookback: k,
                            ..base
                        },
                        n,
                    );
                    (cfg.lookback == k).then(|| SweepPoint {
                        x: k as f64,
                        ..run_speedup(w, &machine, cfg, self.scale)
                    })
                })
                .collect();
            Sweep {
                benchmark: w.name().to_string(),
                points,
            }
        }
    }
    dispatch(name, V { scale })
}

/// Sweep the number of extra original states `m` for one benchmark.
pub fn extra_states_sweep(name: &str, scale: Scale) -> Sweep {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = Sweep;
        fn visit<W: Workload>(self, w: &W) -> Sweep {
            let machine = Machine::paper_machine();
            let base = tuned_config(w, 28, self.scale);
            let points = (0usize..=6)
                .map(|m| {
                    let cfg = Config {
                        extra_states: m,
                        ..base
                    };
                    SweepPoint {
                        x: m as f64,
                        ..run_speedup(w, &machine, cfg, self.scale)
                    }
                })
                .collect();
            Sweep {
                benchmark: w.name().to_string(),
                points,
            }
        }
    }
    dispatch(name, V { scale })
}

/// Sweep the chunk count for one benchmark (the unreachability vs
/// mispeculation trade-off of §III-E).
pub fn chunk_sweep(name: &str, scale: Scale) -> Sweep {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = Sweep;
        fn visit<W: Workload>(self, w: &W) -> Sweep {
            let machine = Machine::paper_machine();
            let base = tuned_config(w, 28, self.scale);
            let n = self.scale.inputs_for(w);
            let points = [4usize, 7, 14, 28, 56]
                .into_iter()
                .filter_map(|chunks| {
                    let cfg = clamp_config(Config { chunks, ..base }, n);
                    (cfg.chunks == chunks).then(|| SweepPoint {
                        x: chunks as f64,
                        ..run_speedup(w, &machine, cfg, self.scale)
                    })
                })
                .collect();
            Sweep {
                benchmark: w.name().to_string(),
                points,
            }
        }
    }
    dispatch(name, V { scale })
}

/// Statistics of one chunk-planning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Achieved speedup on 28 cores.
    pub speedup: f64,
    /// Commit rate of the run.
    pub commit_rate: f64,
    /// Spread of per-chunk useful work: (max − min) / mean.
    pub work_imbalance: f64,
}

/// Statistics of `outcome`, its speedup measured on `machine` against
/// the precomputed sequential `seq_cycles`.
fn plan_stats<O>(
    name: &str,
    outcome: &SpeculationOutcome<O>,
    machine: &Machine,
    opts: &GraphOptions,
    seq_cycles: Cycles,
) -> PlanStats {
    let works: Vec<f64> = outcome
        .chunks
        .iter()
        .map(|c| c.realized_cost().work as f64)
        .collect();
    let mean = works.iter().sum::<f64>() / works.len() as f64;
    let max = works.iter().fold(0.0f64, |a, b| a.max(*b));
    let min = works.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    PlanStats {
        speedup: speedup_of(name, outcome, machine, opts, seq_cycles),
        commit_rate: outcome.commit_rate(),
        work_imbalance: if mean > 0.0 { (max - min) / mean } else { 0.0 },
    }
}

/// Compare balanced (by input count) and profile-weighted (by expected
/// per-input cost) chunk plans for one benchmark — the "length of each
/// computation chunk" axis of the design space (§II-B).
///
/// The measured interaction is subtle and real: weighting by expected
/// work *reduces per-chunk imbalance* but also *moves chunk boundaries*,
/// and for `facedet-and-track` the cheap regions are the low-clutter ones,
/// so work-balanced boundaries migrate into speculation-hostile
/// high-clutter frames and commit less often. The autotuner therefore has
/// to trade §III-A imbalance against §III-E mispeculation when choosing
/// chunk lengths — one reason the paper's design space includes them
/// jointly.
pub fn plan_ablation(name: &str, scale: Scale) -> (PlanStats, PlanStats) {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = (PlanStats, PlanStats);
        fn visit<W: Workload>(self, w: &W) -> (PlanStats, PlanStats) {
            let machine = Machine::paper_machine();
            let cfg = tuned_config(w, 28, self.scale);
            let n = self.scale.inputs_for(w);
            let inputs = w.generate_inputs(n, FIGURE_SEED);
            let opts = graph_options(w, false);
            // Both plans run the same stream, so they share one baseline.
            let (seq_cycles, _) =
                sequential_baseline(w, &inputs, FIGURE_SEED, &machine, opts.outside_work);

            // Balanced plan (the default).
            let balanced = plan_stats(
                w.name(),
                &run_speculative(w, &inputs, cfg, FIGURE_SEED),
                &machine,
                &opts,
                seq_cycles,
            );

            // Weighted plan: the autotuner's profiler pass measures
            // per-input costs. The costs are nondeterministic (facedet's
            // detector failures are random), so the profiler averages
            // several runs to estimate each input's *expected* cost.
            let mut costs = vec![0u64; n];
            let profile_runs = 5;
            for r in 0..profile_runs {
                let profile = run_sequential(w, &inputs, FIGURE_SEED ^ (0x7EA1 + r));
                for (c, p) in costs.iter_mut().zip(&profile.per_input_costs) {
                    *c += p.work / profile_runs;
                }
            }
            let mut plan = plan_weighted(n, cfg.chunks, |i| costs[i]);
            // A weighted plan can make a chunk shorter than the lookback;
            // fall back to balanced in that degenerate case.
            if plan
                .ranges()
                .iter()
                .take(plan.len() - 1)
                .any(|r| r.len() < cfg.lookback)
            {
                plan = stats_core::plan_balanced(n, cfg.chunks);
            }
            let weighted = plan_stats(
                w.name(),
                &run_speculative_planned(w, &inputs, cfg, plan, FIGURE_SEED),
                &machine,
                &opts,
                seq_cycles,
            );

            (balanced, weighted)
        }
    }
    dispatch(name, V { scale })
}

/// Compare eager (paper Fig. 5: all `m` replicas in parallel) and lazy
/// (stop at the first matching state) original-state replication — an
/// execution-model evolution in the spirit of the paper's conclusion
/// ("the STATS execution model needs to evolve to remove the remaining
/// performance roadblocks").
pub fn replication_ablation(name: &str, scale: Scale) -> (SweepPoint, SweepPoint) {
    struct V {
        scale: Scale,
    }
    impl WorkloadVisitor for V {
        type Output = (SweepPoint, SweepPoint);
        fn visit<W: Workload>(self, w: &W) -> (SweepPoint, SweepPoint) {
            let machine = Machine::paper_machine();
            let cfg = tuned_config(w, 28, self.scale);
            let n = self.scale.inputs_for(w);
            let inputs = w.generate_inputs(n, FIGURE_SEED);
            // Replication only changes the lowering: one outcome and one
            // baseline serve both graphs.
            let outcome = run_speculative(w, &inputs, cfg, FIGURE_SEED);
            let (seq_cycles, _) =
                sequential_baseline(w, &inputs, FIGURE_SEED, &machine, w.outside_region_work());
            let point = |lazy: bool| SweepPoint {
                x: if lazy { 1.0 } else { 0.0 },
                speedup: speedup_of(
                    w.name(),
                    &outcome,
                    &machine,
                    &graph_options(w, lazy),
                    seq_cycles,
                ),
                commit_rate: outcome.commit_rate(),
            };
            (point(false), point(true))
        }
    }
    dispatch(name, V { scale })
}

fn render_sweeps(title: &str, xlabel: &str, sweeps: &[Sweep]) -> String {
    let mut t = TextTable::new(vec![
        "Benchmark".to_string(),
        xlabel.to_string(),
        "speedup".to_string(),
        "commit rate".to_string(),
    ]);
    for sweep in sweeps {
        for p in &sweep.points {
            t.row(vec![
                sweep.benchmark.clone(),
                format!("{}", p.x),
                f2(p.speedup),
                pct(p.commit_rate * 100.0),
            ]);
        }
    }
    format!("{title}\n\n{}", t.render())
}

/// Render every ablation.
pub fn render(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&render_sweeps(
        "Ablation: synchronization cost factor (§III-C)",
        "sync cost x",
        &sync_cost_sweep(scale),
    ));
    out.push('\n');
    out.push_str(&render_sweeps(
        "Ablation: state-copy acceleration (§V-C's proposed evolution)",
        "copy speed x",
        &copy_acceleration_sweep(scale),
    ));
    out.push('\n');
    out.push_str(&render_sweeps(
        "Ablation: alternative-producer lookback k (facetrack)",
        "k",
        &[lookback_sweep("facetrack", scale)],
    ));
    out.push('\n');
    out.push_str(&render_sweeps(
        "Ablation: extra original states m (facetrack)",
        "m",
        &[extra_states_sweep("facetrack", scale)],
    ));
    out.push('\n');
    out.push_str(&render_sweeps(
        "Ablation: chunk count (facetrack)",
        "chunks",
        &[chunk_sweep("facetrack", scale)],
    ));
    out.push('\n');
    let (balanced, weighted) = plan_ablation("facedet-and-track", scale);
    out.push_str(&format!(
        "Ablation: chunk planning for facedet-and-track (bimodal frame costs)\n\n\
         balanced-by-count plan:  {:.2}x, commit rate {:.0}%, work spread {:.2}\n\
         profile-weighted plan:   {:.2}x, commit rate {:.0}%, work spread {:.2}\n\
         (weighted planning trades imbalance for boundary mispeculation)\n",
        balanced.speedup,
        balanced.commit_rate * 100.0,
        balanced.work_imbalance,
        weighted.speedup,
        weighted.commit_rate * 100.0,
        weighted.work_imbalance,
    ));
    out.push('\n');
    let (eager, lazy) = replication_ablation("bodytrack", scale);
    out.push_str(&format!(
        "Ablation: original-state replication strategy for bodytrack (m=4, 500 KB states)\n\n\
         eager (paper, all replicas in parallel): {:.2}x\n\
         lazy (stop at first matching state):     {:.2}x\n\
         (lazy saves replica work but serializes mismatch handling: it wins\n\
          only when the producer's own state usually matches)\n",
        eager.speedup, lazy.speedup,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale(0.15);

    #[test]
    fn facedet_is_most_sync_elastic() {
        // Fig. 10's sync attribution, verified causally: scaling sync
        // costs hurts facedet-and-track relatively more than swaptions.
        let sweeps = sync_cost_sweep(SCALE);
        let rel = |name: &str| {
            sweeps
                .iter()
                .find(|s| s.benchmark == name)
                .unwrap()
                .relative_change()
        };
        // relative_change is (4x-sync minus no-sync)/no-sync: negative,
        // and most negative for the sync-bound benchmark.
        assert!(
            rel("facedet-and-track") < rel("swaptions"),
            "facedet {} should lose more than swaptions {}",
            rel("facedet-and-track"),
            rel("swaptions")
        );
    }

    #[test]
    fn sync_sweep_is_monotone() {
        // The simulated schedule is not perfectly monotone in the sync
        // costs: changing wakeup/dispatch latencies can shift task
        // placement enough to win back a fraction of a speedup point, so
        // allow a small scheduling-noise margin.
        for sweep in sync_cost_sweep(SCALE) {
            for pair in sweep.points.windows(2) {
                assert!(
                    pair[1].speedup <= pair[0].speedup + 0.15,
                    "{}: more sync cost should not speed things up",
                    sweep.benchmark
                );
            }
        }
    }

    #[test]
    fn copy_acceleration_helps_bodytrack_most() {
        // §V-C: "improving STATS by accelerating the state copy operator
        // is still valuable" — most so for the 500 KB-state benchmark.
        let sweeps = copy_acceleration_sweep(SCALE);
        let gain = |name: &str| {
            sweeps
                .iter()
                .find(|s| s.benchmark == name)
                .unwrap()
                .relative_change()
        };
        for other in ["swaptions", "streamclassifier", "facetrack"] {
            assert!(
                gain("bodytrack") >= gain(other) - 1e-9,
                "bodytrack gain {} vs {other} {}",
                gain("bodytrack"),
                gain(other)
            );
        }
    }

    #[test]
    fn more_extra_states_never_reduce_commit_rate() {
        let sweep = extra_states_sweep("facetrack", Scale(0.3));
        for pair in sweep.points.windows(2) {
            assert!(
                pair[1].commit_rate >= pair[0].commit_rate - 1e-9,
                "m={} rate {} < m={} rate {}",
                pair[1].x,
                pair[1].commit_rate,
                pair[0].x,
                pair[0].commit_rate
            );
        }
    }

    #[test]
    fn deep_chunking_mispeculates_facetrack() {
        // Each boundary carries a roughly constant abort probability, so
        // the *number* of aborts grows with the chunk count — the reason
        // facetrack's autotuner stops at 7 chunks (§V-B).
        let sweep = chunk_sweep("facetrack", Scale(0.5));
        let aborts = |p: &SweepPoint| (1.0 - p.commit_rate) * (p.x - 1.0);
        let shallow: f64 = sweep.points.iter().filter(|p| p.x <= 7.0).map(aborts).sum();
        let deep: f64 = sweep
            .points
            .iter()
            .filter(|p| p.x >= 28.0)
            .map(aborts)
            .sum();
        assert!(
            deep > shallow,
            "deep chunking should abort more: {deep:.1} vs {shallow:.1}"
        );
    }

    #[test]
    fn weighted_plans_trade_imbalance_for_mispeculation() {
        // facedet-and-track's per-frame costs are bimodal (§III-A):
        // weighting chunks by expected work measurably evens the
        // per-chunk work out…
        let (balanced, weighted) = plan_ablation("facedet-and-track", Scale(0.4));
        assert!(
            weighted.work_imbalance < balanced.work_imbalance,
            "weighted plan should even out chunk work: {:.2} vs {:.2}",
            weighted.work_imbalance,
            balanced.work_imbalance
        );
        // …while moving the chunk boundaries. Depending on where the
        // boundaries land relative to speculation-hostile regions the
        // commit rate can shift in either direction (the §III-A vs §III-E
        // trade-off the autotuner navigates); what the re-planning must
        // not do is collapse it.
        assert!(
            weighted.commit_rate >= balanced.commit_rate - 0.2,
            "boundary moves should not collapse the commit rate: {:.2} vs {:.2}",
            weighted.commit_rate,
            balanced.commit_rate
        );
    }

    #[test]
    fn lazy_replication_saves_work_when_speculation_is_clean() {
        // When the producer's own state matches (swaptions commits ~100%
        // with the first original state), lazy replication skips the
        // replica work entirely and cannot regress the speedup.
        let (eager, lazy) = replication_ablation("swaptions", Scale(0.3));
        assert!(
            lazy.speedup >= eager.speedup * 0.98,
            "lazy replication regressed on a clean committer: {:.2} vs {:.2}",
            lazy.speedup,
            eager.speedup
        );
    }

    #[test]
    fn lazy_replication_reduces_original_state_cycles() {
        // The work reduction is unconditional: the lazy graph never
        // contains more OriginalStateGen cycles than the eager one.
        use stats_core::runtime::simulated::{build_task_graph, GraphOptions};
        use stats_core::StateDependence as _;
        use stats_trace::Category;
        use stats_workloads::bodytrack::BodyTrack;
        let w = BodyTrack::paper();
        let scale = Scale(0.4);
        let cfg = tuned_config(&w, 28, scale);
        let n = scale.inputs_for(&w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let machine = Machine::paper_machine();
        let outcome = run_speculative(&w, &inputs, cfg, FIGURE_SEED);
        let cycles_of = |lazy: bool| {
            let opts = GraphOptions {
                inner: w.inner_parallelism(),
                assume_all_commit: false,
                outside_work: w.outside_region_work(),
                sync_ops_per_update: w.sync_ops_per_update(),
                lazy_replicas: lazy,
            };
            let g = build_task_graph("rep", &outcome, &machine, &opts);
            g.tasks()
                .iter()
                .filter(|t| t.category == Category::OriginalStateGen)
                .map(|t| t.duration.get())
                .sum::<u64>()
        };
        let eager = cycles_of(false);
        let lazy = cycles_of(true);
        assert!(lazy <= eager, "lazy {lazy} vs eager {eager}");
        assert!(eager > 0);
    }

    #[test]
    fn lookback_sweep_has_a_knee() {
        // k=1 mispeculates or wastes little; very large k pays alt-
        // producer overhead: the best k is interior or at least not the
        // extreme maximum for facetrack.
        let sweep = lookback_sweep("facetrack", Scale(0.5));
        assert!(sweep.points.len() >= 3);
        let best = sweep.best_x();
        assert!(best >= 2.0, "best k {best} suspiciously small");
    }
}
