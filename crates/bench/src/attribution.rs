//! Post-mortem speedup-loss attribution (§V-B, after \[26\]).
//!
//! The paper instruments every critical point of the STATS execution
//! model, computes the critical path, and then "to evaluate the
//! performance loss due to a given overhead, we compute the speedup
//! obtainable if that overhead would be removed … we emulate the parallel
//! execution removing only the part of the overhead targeted that is in
//! the critical path".
//!
//! We do the same with full fidelity: every overhead category is a task
//! category in the generated graph, so the what-if emulation is "zero
//! that category's durations and re-schedule". Re-scheduling collapses the
//! waits the removed tasks caused, exactly like the paper's emulation.
//! Imbalance is evaluated by equalizing per-thread useful work;
//! mispeculation by forcing all speculations to commit (and, when the
//! tuned chunk count was lowered because deeper speculation aborts, by
//! raising the chunk count back); unreachability is the residual to the
//! all-overheads-removed bound.

use crate::pipeline::{clamp_config, Scale};
use serde::{Deserialize, Serialize};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::simulated::{build_task_graph, sequential_baseline, GraphOptions};
use stats_core::speculation::run_speculative;
use stats_core::Config;
use stats_platform::Machine;
use stats_trace::{Category, Cycles, ThreadId};
use stats_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;

/// The loss taxonomy of §III, as presented in Figs. 10 and 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LossCategory {
    /// §III-A: uneven work across STATS threads.
    Imbalance,
    /// §III-B: speculative-state generation (alternative producers).
    AltProducer,
    /// §III-B: multiple original states.
    OriginalStateGen,
    /// §III-B: state comparisons (plus commit bookkeeping).
    StateComparison,
    /// §III-B: setup of runtime structures.
    Setup,
    /// §III-B: state copying.
    StateCopy,
    /// §III-C: thread synchronization.
    Sync,
    /// §III-D: sequential code outside the STATS region.
    OutsideRegion,
    /// §III-E: aborted speculation work and abort-avoiding chunk counts.
    Mispeculation,
    /// §III-E: not enough parallel chunks even with perfect speculation.
    Unreachability,
}

impl LossCategory {
    /// All categories, presentation order.
    pub const ALL: [LossCategory; 10] = [
        LossCategory::Imbalance,
        LossCategory::AltProducer,
        LossCategory::OriginalStateGen,
        LossCategory::StateComparison,
        LossCategory::Setup,
        LossCategory::StateCopy,
        LossCategory::Sync,
        LossCategory::OutsideRegion,
        LossCategory::Mispeculation,
        LossCategory::Unreachability,
    ];

    /// Short name as printed in figure rows.
    pub fn name(self) -> &'static str {
        match self {
            LossCategory::Imbalance => "imbalance",
            LossCategory::AltProducer => "alt-producer",
            LossCategory::OriginalStateGen => "original-states",
            LossCategory::StateComparison => "comparisons",
            LossCategory::Setup => "setup",
            LossCategory::StateCopy => "state-copy",
            LossCategory::Sync => "sync",
            LossCategory::OutsideRegion => "sequential-code",
            LossCategory::Mispeculation => "mispeculation",
            LossCategory::Unreachability => "unreachability",
        }
    }
}

impl fmt::Display for LossCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The attribution result for one benchmark/configuration/machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LossBreakdown {
    /// Benchmark name.
    pub benchmark: String,
    /// Cores of the machine (the ideal speedup).
    pub ideal: f64,
    /// Achieved speedup over the sequential baseline.
    pub achieved: f64,
    /// Marginal speedup recovered by removing each loss source
    /// (what-if speedup minus achieved speedup, in speedup points).
    pub marginal: Vec<(LossCategory, f64)>,
    /// Commit rate of the run.
    pub commit_rate: f64,
}

impl LossBreakdown {
    /// Total speedup lost versus ideal, in speedup points (the number the
    /// paper prints at the right of each Fig. 10 bar).
    pub fn total_lost(&self) -> f64 {
        (self.ideal - self.achieved).max(0.0)
    }

    /// Percentage of the ideal speedup lost in total.
    pub fn total_lost_percent(&self) -> f64 {
        self.total_lost() / self.ideal * 100.0
    }

    /// Normalized shares: each category's fraction of the total loss,
    /// scaled so shares sum to [`LossBreakdown::total_lost_percent`]
    /// (the paper's stacked-bar presentation).
    pub fn normalized_percent(&self) -> Vec<(LossCategory, f64)> {
        let marginal_sum: f64 = self.marginal.iter().map(|(_, v)| v.max(0.0)).sum();
        let total_pct = self.total_lost_percent();
        if marginal_sum <= 0.0 {
            return self.marginal.iter().map(|(c, _)| (*c, 0.0)).collect();
        }
        self.marginal
            .iter()
            .map(|(c, v)| (*c, v.max(0.0) / marginal_sum * total_pct))
            .collect()
    }

    /// Marginal loss for one category (0 if absent).
    pub fn marginal_of(&self, cat: LossCategory) -> f64 {
        self.marginal
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    /// Speedup points recoverable "via engineering efforts" (§I): runtime
    /// mechanics that better implementations shrink — setup, state
    /// copying, comparisons, synchronization, imbalance.
    pub fn engineering_recoverable(&self) -> f64 {
        [
            LossCategory::Setup,
            LossCategory::StateCopy,
            LossCategory::StateComparison,
            LossCategory::Sync,
            LossCategory::Imbalance,
        ]
        .into_iter()
        .map(|c| self.marginal_of(c).max(0.0))
        .sum()
    }

    /// Speedup points that "require a deeper evolution of STATS" (§I):
    /// the speculation scheme itself — alternative producers, original
    /// states, mispeculation, unreachability — plus the Amdahl residue of
    /// code outside the region.
    pub fn requires_evolution(&self) -> f64 {
        [
            LossCategory::AltProducer,
            LossCategory::OriginalStateGen,
            LossCategory::Mispeculation,
            LossCategory::Unreachability,
            LossCategory::OutsideRegion,
        ]
        .into_iter()
        .map(|c| self.marginal_of(c).max(0.0))
        .sum()
    }

    /// The category with the largest marginal loss.
    pub fn dominant(&self) -> LossCategory {
        self.marginal
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
            .map(|(c, _)| *c)
            .unwrap_or(LossCategory::Unreachability)
    }
}

/// Trace-category → loss-category mapping for the simple what-ifs.
const CATEGORY_WHATIFS: [(Category, LossCategory); 6] = [
    (Category::AltProducer, LossCategory::AltProducer),
    (Category::OriginalStateGen, LossCategory::OriginalStateGen),
    (Category::StateComparison, LossCategory::StateComparison),
    (Category::Setup, LossCategory::Setup),
    (Category::StateCopy, LossCategory::StateCopy),
    (Category::Sync, LossCategory::Sync),
];

/// Run the full attribution for one benchmark.
///
/// `config` is the configuration under study (clamped by the caller);
/// `seed` drives all nondeterminism.
pub fn attribute<W: Workload>(
    workload: &W,
    machine: &Machine,
    config: Config,
    scale: Scale,
    seed: u64,
) -> LossBreakdown {
    let n = scale.inputs_for(workload);
    let inputs = workload.generate_inputs(n, seed);
    let opts = GraphOptions {
        inner: workload.inner_parallelism(),
        assume_all_commit: false,
        outside_work: workload.outside_region_work(),
        sync_ops_per_update: workload.sync_ops_per_update(),
        lazy_replicas: false,
    };
    let (outcome, (seq_cycles, _)) = WorkerPool::shared().join(
        || run_speculative(workload, &inputs, config, seed),
        || sequential_baseline(workload, &inputs, seed, machine, opts.outside_work),
    );

    let base_graph = build_task_graph(workload.name(), &outcome, machine, &opts);
    let base = machine.execute(&base_graph).expect("acyclic");
    let achieved = base.speedup_vs(seq_cycles);
    let ideal = machine.topology().total_cores() as f64;

    let mut marginal: Vec<(LossCategory, f64)> = Vec::new();

    // --- per-category what-ifs (zero the category, re-schedule) ----------
    for (cat, loss) in CATEGORY_WHATIFS {
        let g = base_graph.without_category(cat);
        let s = machine.execute(&g).expect("acyclic").speedup_vs(seq_cycles);
        marginal.push((loss, (s - achieved).max(0.0)));
    }

    // --- sequential code outside the region -------------------------------
    {
        let g = base_graph.without_category(Category::OutsideRegion);
        // Removing the outside region also shrinks the baseline? No: the
        // paper measures loss against the whole-program ideal, so the
        // baseline stays the full sequential time.
        let s = machine.execute(&g).expect("acyclic").speedup_vs(seq_cycles);
        marginal.push((LossCategory::OutsideRegion, (s - achieved).max(0.0)));
    }

    // --- imbalance: equalize per-thread useful work ------------------------
    {
        // Balance the *useful* per-thread work only; aborted speculative
        // work is mispeculation, not imbalance (§III-A vs §III-E).
        let mut per_thread: BTreeMap<ThreadId, u64> = BTreeMap::new();
        for t in base_graph.tasks() {
            if t.category == Category::ChunkCompute {
                *per_thread.entry(t.thread).or_default() += t.duration.get();
            }
        }
        let compute_threads: Vec<_> = per_thread.iter().filter(|(_, v)| **v > 0).collect();
        if compute_threads.len() > 1 {
            let mean: f64 = compute_threads.iter().map(|(_, v)| **v as f64).sum::<f64>()
                / compute_threads.len() as f64;
            let scales: BTreeMap<ThreadId, f64> = compute_threads
                .iter()
                .map(|(t, v)| (**t, mean / **v as f64))
                .collect();
            let mut patched = base_graph.clone();
            patch_durations(&mut patched, &scales);
            let s = machine
                .execute(&patched)
                .expect("acyclic")
                .speedup_vs(seq_cycles);
            marginal.push((LossCategory::Imbalance, (s - achieved).max(0.0)));
        } else {
            marginal.push((LossCategory::Imbalance, 0.0));
        }
    }

    // --- mispeculation & unreachability (§III-E) --------------------------
    // Mispeculation = abort work/serialization at the tuned chunk count,
    // plus the chunk deficit when the tuner stayed low *because* deeper
    // speculation aborts. Unreachability = whatever separates the best
    // case (max chunks, perfect speculation, zero overhead) from the
    // ideal, plus a deficit that exists even with perfect speculation.
    {
        let commit_opts = GraphOptions {
            assume_all_commit: true,
            ..opts
        };
        let g = build_task_graph("all-commit", &outcome, machine, &commit_opts);
        let s_commit = machine.execute(&g).expect("acyclic").speedup_vs(seq_cycles);
        let abort_loss = (s_commit - achieved).max(0.0);

        let cores = machine.topology().total_cores();
        let max_cfg = clamp_config(
            Config {
                chunks: cores.max(config.chunks),
                ..config
            },
            n,
        );
        let (max_outcome, deficit, deficit_is_mispec) = if max_cfg.chunks > config.chunks {
            let max_outcome = run_speculative(workload, &inputs, max_cfg, seed);
            let abort_rate = 1.0 - max_outcome.commit_rate();
            let g_max = build_task_graph("max-chunks", &max_outcome, machine, &commit_opts);
            let s_max = machine
                .execute(&g_max)
                .expect("acyclic")
                .speedup_vs(seq_cycles);
            // The paper's classification: the tuner's conservative chunk
            // count is mispeculation when deeper speculation aborts
            // (facetrack, §V-B); otherwise the chunks simply are not
            // there — unreachability.
            (
                Some(max_outcome),
                (s_max - s_commit).max(0.0),
                abort_rate > 0.05,
            )
        } else {
            (None, 0.0, false)
        };

        let mispec = abort_loss + if deficit_is_mispec { deficit } else { 0.0 };
        marginal.push((LossCategory::Mispeculation, mispec));

        // Best case: max chunks, all commits, every overhead removed.
        let best_outcome = max_outcome.as_ref().unwrap_or(&outcome);
        let mut g_best = build_task_graph("bestcase", best_outcome, machine, &commit_opts);
        for (cat, _) in CATEGORY_WHATIFS {
            g_best = g_best.without_category(cat);
        }
        g_best = g_best.without_category(Category::OutsideRegion);
        g_best = g_best.without_category(Category::Commit);
        // Balance the best case too: residual imbalance is §III-A, not
        // unreachability.
        let mut best_threads: BTreeMap<ThreadId, u64> = BTreeMap::new();
        for t in g_best.tasks() {
            if t.category == Category::ChunkCompute {
                *best_threads.entry(t.thread).or_default() += t.duration.get();
            }
        }
        let busy: Vec<_> = best_threads.iter().filter(|(_, v)| **v > 0).collect();
        if busy.len() > 1 {
            let mean: f64 = busy.iter().map(|(_, v)| **v as f64).sum::<f64>() / busy.len() as f64;
            let scales: BTreeMap<ThreadId, f64> =
                busy.iter().map(|(t, v)| (**t, mean / **v as f64)).collect();
            patch_durations(&mut g_best, &scales);
        }
        let s_best = machine
            .execute(&g_best)
            .expect("acyclic")
            .speedup_vs(seq_cycles);
        let unreach = (ideal - s_best).max(0.0) + if deficit_is_mispec { 0.0 } else { deficit };
        marginal.push((LossCategory::Unreachability, unreach));
    }

    LossBreakdown {
        benchmark: workload.name().to_string(),
        ideal,
        achieved,
        marginal,
        commit_rate: outcome.commit_rate(),
    }
}

/// Decompose a realized schedule's critical path by category: every cycle
/// of the makespan is attributed to the task category occupying it on the
/// binding chain (the direct \[26\]-style view, complementary to the
/// what-if re-scheduling used by [`attribute`]).
pub fn critical_path_composition(
    result: &stats_platform::ExecutionResult,
    graph: &stats_platform::TaskGraph,
) -> Vec<(Category, Cycles)> {
    let mut totals: std::collections::BTreeMap<Category, u64> = std::collections::BTreeMap::new();
    for task in result.critical_path() {
        let entry = result.entry(task);
        let cat = graph.get(task).category;
        *totals.entry(cat).or_default() += (entry.end - entry.start).get();
    }
    totals.into_iter().map(|(c, v)| (c, Cycles(v))).collect()
}

/// Scale the compute-task durations of each thread by its factor.
fn patch_durations(graph: &mut stats_platform::TaskGraph, scales: &BTreeMap<ThreadId, f64>) {
    // TaskGraph has no mutable task access by design; rebuild through the
    // public mapping API, one thread at a time.
    let mut patched = graph.clone();
    for (&thread, &factor) in scales {
        patched = patched.map_durations(
            move |t| t.thread == thread && t.category == Category::ChunkCompute,
            move |d| Cycles((d.get() as f64 * factor).round() as u64),
        );
    }
    *graph = patched;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{tuned_config, Machines, FIGURE_SEED};
    use stats_workloads::facedet_and_track::FaceDetAndTrack;
    use stats_workloads::facetrack::FaceTrack;
    use stats_workloads::streamcluster::StreamCluster;
    use stats_workloads::swaptions::Swaptions;

    const SCALE: Scale = Scale(0.2);

    #[test]
    fn swaptions_loses_little() {
        let machines = Machines::paper();
        let w = Swaptions::paper();
        let scale = Scale(0.5);
        let cfg = tuned_config(&w, 28, scale);
        let b = attribute(&w, &machines.cores28, cfg, scale, FIGURE_SEED);
        assert!(
            b.total_lost_percent() < 40.0,
            "swaptions should be near-linear: lost {:.1}%",
            b.total_lost_percent()
        );
    }

    #[test]
    fn facetrack_is_mispeculation_limited() {
        let machines = Machines::paper();
        let w = FaceTrack::paper();
        let cfg = tuned_config(&w, 28, Scale(0.5));
        let b = attribute(&w, &machines.cores28, cfg, Scale(0.5), FIGURE_SEED);
        let mis = b.marginal_of(LossCategory::Mispeculation);
        assert!(
            mis > 4.0,
            "facetrack's 7-chunk config should lose to mispeculation: {mis:.2} in {:?}",
            b.marginal
        );
    }

    #[test]
    fn facedet_is_sync_heavy() {
        let machines = Machines::paper();
        let w = FaceDetAndTrack::paper();
        let cfg = tuned_config(&w, 28, Scale(0.5));
        let b = attribute(&w, &machines.cores28, cfg, Scale(0.5), FIGURE_SEED);
        let sync = b.marginal_of(LossCategory::Sync);
        // Sync must be a leading overhead among the §III-B/C categories.
        for cat in [
            LossCategory::AltProducer,
            LossCategory::StateComparison,
            LossCategory::Setup,
            LossCategory::StateCopy,
        ] {
            assert!(
                sync >= b.marginal_of(cat),
                "sync ({sync:.2}) should dominate {cat} ({:.2})",
                b.marginal_of(cat)
            );
        }
    }

    #[test]
    fn streamcluster_feels_its_sequential_code() {
        let machines = Machines::paper();
        let w = StreamCluster::paper();
        let cfg = tuned_config(&w, 28, SCALE);
        let b = attribute(&w, &machines.cores28, cfg, SCALE, FIGURE_SEED);
        assert!(
            b.marginal_of(LossCategory::OutsideRegion) > 0.5,
            "outside-region loss missing: {:?}",
            b.marginal
        );
    }

    #[test]
    fn normalized_shares_sum_to_total() {
        let machines = Machines::paper();
        let w = Swaptions::paper();
        let cfg = tuned_config(&w, 28, SCALE);
        let b = attribute(&w, &machines.cores28, cfg, SCALE, FIGURE_SEED);
        let sum: f64 = b.normalized_percent().iter().map(|(_, v)| v).sum();
        if b.marginal.iter().any(|(_, v)| *v > 0.0) {
            assert!(
                (sum - b.total_lost_percent()).abs() < 1e-6,
                "shares {sum} vs total {}",
                b.total_lost_percent()
            );
        }
    }

    #[test]
    fn critical_path_composition_covers_the_makespan() {
        use stats_core::runtime::simulated::{build_task_graph, GraphOptions};
        use stats_core::speculation::run_speculative;
        use stats_core::StateDependence as _;
        let machines = Machines::paper();
        let w = Swaptions::paper();
        let scale = Scale(0.1);
        let n = scale.inputs_for(&w);
        let inputs = w.generate_inputs(n, FIGURE_SEED);
        let cfg = tuned_config(&w, 28, scale);
        let outcome = run_speculative(&w, &inputs, cfg, FIGURE_SEED);
        let opts = GraphOptions {
            inner: w.inner_parallelism(),
            assume_all_commit: false,
            outside_work: w.outside_region_work(),
            sync_ops_per_update: w.sync_ops_per_update(),
            lazy_replicas: false,
        };
        let graph = build_task_graph("cp", &outcome, &machines.cores28, &opts);
        let result = machines.cores28.execute(&graph).unwrap();
        let composition = critical_path_composition(&result, &graph);
        let covered: u64 = composition.iter().map(|(_, c)| c.get()).sum();
        // The binding chain is contiguous: it accounts for every cycle of
        // the makespan.
        assert_eq!(covered, result.makespan.get());
        // Useful work must appear on the critical path.
        assert!(composition
            .iter()
            .any(|(c, v)| *c == Category::ChunkCompute && v.get() > 0));
    }

    #[test]
    fn engineering_vs_evolution_partition_covers_all_categories() {
        let machines = Machines::paper();
        let w = Swaptions::paper();
        let cfg = tuned_config(&w, 28, SCALE);
        let b = attribute(&w, &machines.cores28, cfg, SCALE, FIGURE_SEED);
        let partition = b.engineering_recoverable() + b.requires_evolution();
        let total: f64 = b.marginal.iter().map(|(_, v)| v.max(0.0)).sum();
        assert!(
            (partition - total).abs() < 1e-9,
            "partition {partition} vs total {total}"
        );
    }

    #[test]
    fn facedet_losses_are_mostly_engineering() {
        // §V's headline for facedet-and-track: its dominant loss (sync) is
        // the kind "that can be optimized via engineering efforts".
        let machines = Machines::paper();
        let w = FaceDetAndTrack::paper();
        let cfg = tuned_config(&w, 28, Scale(0.5));
        let b = attribute(&w, &machines.cores28, cfg, Scale(0.5), FIGURE_SEED);
        assert!(
            b.engineering_recoverable() > 0.0,
            "no engineering-recoverable loss at all"
        );
    }

    #[test]
    fn achieved_never_exceeds_ideal() {
        let machines = Machines::paper();
        let w = Swaptions::paper();
        let cfg = tuned_config(&w, 28, SCALE);
        let b = attribute(&w, &machines.cores28, cfg, SCALE, FIGURE_SEED);
        assert!(b.achieved <= b.ideal + 1e-9);
        assert!(b.achieved > 1.0);
    }
}
