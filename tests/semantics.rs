//! Property-based tests of the STATS execution model's semantic
//! guarantees, spanning `stats-core` and `stats-platform`.

use proptest::prelude::*;
use stats_workbench::core::rng::StatsRng;
use stats_workbench::core::runtime::sequential::run_sequential;
use stats_workbench::core::runtime::simulated::{build_task_graph, GraphOptions};
use stats_workbench::core::runtime::threaded::run_threaded;
use stats_workbench::core::speculation::run_speculative;
use stats_workbench::core::{plan_balanced, Config, StateDependence, UpdateCost};
use stats_workbench::platform::Machine;

/// A parameterized test workload: exponential smoothing whose memory
/// length and acceptance tolerance come from the property inputs.
#[derive(Debug, Clone)]
struct Ema {
    decay: f64,
    tolerance: f64,
}

impl StateDependence for Ema {
    type State = f64;
    type Input = f64;
    type Output = f64;
    fn fresh_state(&self) -> f64 {
        0.0
    }
    fn update(&self, s: &mut f64, i: &f64, rng: &mut StatsRng) -> (f64, UpdateCost) {
        *s = self.decay * *s + (1.0 - self.decay) * (*i + rng.noise(0.005));
        (*s, UpdateCost::with_work(1_000 + (i.abs() * 500.0) as u64))
    }
    fn states_match(&self, a: &f64, b: &f64) -> bool {
        (a - b).abs() < self.tolerance
    }
    fn state_bytes(&self) -> usize {
        8
    }
}

fn ema_strategy() -> impl Strategy<Value = Ema> {
    (0.3f64..0.95, 0.005f64..0.2).prop_map(|(decay, tolerance)| Ema { decay, tolerance })
}

fn config_strategy(inputs: usize) -> impl Strategy<Value = Config> {
    (2usize..12, 1usize..8, 0usize..4).prop_filter_map(
        "valid config",
        move |(chunks, lookback, extras)| {
            let cfg = Config::stats_only(chunks, lookback, extras);
            cfg.validate(inputs).ok().map(|()| cfg)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// STATS outputs cover every input exactly once, in order, for every
    /// valid configuration — commit or abort.
    #[test]
    fn outputs_cover_all_inputs(w in ema_strategy(), cfg in config_strategy(96), seed in 0u64..1_000) {
        let inputs: Vec<f64> = (0..96).map(|i| (i as f64 * 0.07).sin()).collect();
        let out = run_speculative(&w, &inputs, cfg, seed);
        prop_assert_eq!(out.outputs.len(), 96);
        prop_assert_eq!(out.chunks.len(), cfg.chunks);
    }

    /// The threaded runtime always agrees with the semantic layer: same
    /// decisions, same outputs, regardless of host scheduling.
    #[test]
    fn threaded_agrees_with_semantics(w in ema_strategy(), cfg in config_strategy(64), seed in 0u64..500) {
        let inputs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).cos()).collect();
        let semantic = run_speculative(&w, &inputs, cfg, seed);
        let threaded = run_threaded(&w, &inputs, cfg, seed);
        prop_assert_eq!(&threaded.outputs, &semantic.outputs);
        let decisions = semantic.decisions();
        prop_assert_eq!(threaded.decisions, decisions);
    }

    /// Aborted chunks re-execute from the true state: their realized
    /// outputs equal what a sequential continuation would produce, so the
    /// dependence chain is never broken silently.
    #[test]
    fn aborts_restore_the_true_chain(seed in 0u64..300) {
        // Memory too long for the lookback: speculation must abort.
        let w = Ema { decay: 0.999, tolerance: 1e-9 };
        let inputs: Vec<f64> = (0..64).map(|_| 1.0).collect();
        let cfg = Config::stats_only(2, 2, 0);
        let out = run_speculative(&w, &inputs, cfg, seed);
        prop_assert_eq!(out.aborts(), 1);
        // The rerun continues from chunk 0's final state; outputs keep
        // monotonically approaching 1.0 across the boundary.
        for pair in out.outputs.windows(2) {
            prop_assert!(pair[1] >= pair[0] - 0.01, "chain broke: {} -> {}", pair[0], pair[1]);
        }
    }

    /// The schedule is conservative: makespan is bounded below by both the
    /// critical chain and total-work/cores, and the what-if graphs can
    /// only improve it.
    #[test]
    fn whatif_never_slows_down(w in ema_strategy(), cfg in config_strategy(96), seed in 0u64..200) {
        let inputs: Vec<f64> = (0..96).map(|i| (i as f64 * 0.05).sin()).collect();
        let outcome = run_speculative(&w, &inputs, cfg, seed);
        let machine = Machine::paper_machine();
        let opts = GraphOptions::default();
        let g = build_task_graph("prop", &outcome, &machine, &opts);
        let base = machine.execute(&g).unwrap();
        let total_work = g.total_work().get();
        let cores = machine.topology().total_cores() as u64;
        prop_assert!(base.makespan.get() * cores >= total_work);
        for cat in [
            stats_workbench::trace::Category::Sync,
            stats_workbench::trace::Category::AltProducer,
            stats_workbench::trace::Category::StateCopy,
            stats_workbench::trace::Category::Setup,
        ] {
            let faster = machine.execute(&g.without_category(cat)).unwrap();
            prop_assert!(
                faster.makespan <= base.makespan,
                "removing {cat} slowed the schedule"
            );
        }
    }

    /// Balanced plans are exact covers with near-equal sizes for any
    /// shape.
    #[test]
    fn plans_partition_exactly(inputs in 1usize..5_000, chunks in 1usize..64) {
        prop_assume!(chunks <= inputs);
        let plan = plan_balanced(inputs, chunks);
        prop_assert_eq!(plan.inputs(), inputs);
        prop_assert_eq!(plan.len(), chunks);
        let mut covered = 0;
        for r in plan.ranges() {
            prop_assert_eq!(r.start, covered);
            covered = r.end;
        }
        prop_assert_eq!(covered, inputs);
    }

    /// Sequential runs are deterministic per seed and differ across seeds
    /// (the programs really are nondeterministic).
    #[test]
    fn nondeterminism_is_seeded(w in ema_strategy(), seed in 0u64..500) {
        let inputs: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let a = run_sequential(&w, &inputs, seed);
        let b = run_sequential(&w, &inputs, seed);
        prop_assert_eq!(a.outputs.clone(), b.outputs);
        let c = run_sequential(&w, &inputs, seed + 1);
        prop_assert_ne!(a.outputs, c.outputs);
    }
}
