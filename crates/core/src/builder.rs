//! Fluent entry point for running a workload under STATS.
//!
//! [`Stats`] is a non-consuming builder over the pieces the lower-level
//! APIs take separately — configuration, inner-parallelism profile,
//! machine — with validation at the terminal methods:
//!
//! ```
//! use stats_core::builder::Stats;
//! use stats_core::{StateDependence, UpdateCost, StatsRng};
//!
//! struct Sum;
//! impl StateDependence for Sum {
//!     type State = f64; type Input = f64; type Output = f64;
//!     fn fresh_state(&self) -> f64 { 0.0 }
//!     fn update(&self, s: &mut f64, x: &f64, rng: &mut StatsRng) -> (f64, UpdateCost) {
//!         *s = 0.5 * *s + 0.5 * (*x + rng.noise(0.01));
//!         (*s, UpdateCost::with_work(10_000))
//!     }
//!     fn states_match(&self, a: &f64, b: &f64) -> bool { (a - b).abs() < 0.1 }
//!     fn state_bytes(&self) -> usize { 8 }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let inputs: Vec<f64> = (0..280).map(|i| (i as f64).sin()).collect();
//! let report = Stats::of(&Sum)
//!     .chunks(14)
//!     .lookback(8)
//!     .extra_states(2)
//!     .run_simulated(&inputs, 42)?;
//! assert_eq!(report.outputs.len(), 280);
//! # Ok(())
//! # }
//! ```

use crate::config::{Config, ConfigError};
use crate::dependence::StateDependence;
use crate::report::RunReport;
use crate::runtime::simulated::SimulatedRuntime;
use crate::runtime::threaded::{run_threaded, ThreadedRun};
use crate::tlp::InnerParallelism;
use stats_platform::Machine;
use std::fmt;

/// Errors from the builder's terminal methods.
#[derive(Debug)]
pub enum StatsError {
    /// The assembled configuration is invalid for the input length.
    InvalidConfig(ConfigError),
    /// The platform simulator rejected the run (an internal bug —
    /// generated graphs are acyclic).
    Simulation(stats_platform::SimError),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            StatsError::Simulation(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for StatsError {}

impl From<ConfigError> for StatsError {
    fn from(e: ConfigError) -> Self {
        StatsError::InvalidConfig(e)
    }
}

/// Builder for STATS executions of one workload.
#[derive(Debug)]
pub struct Stats<'w, W> {
    workload: &'w W,
    name: String,
    config: Config,
    inner: InnerParallelism,
    machine: Machine,
}

impl<'w, W: StateDependence> Stats<'w, W> {
    /// Start configuring a run of `workload` (defaults: 28 chunks,
    /// lookback 8, one extra original state, STATS TLP only, the paper's
    /// 28-core machine).
    pub fn of(workload: &'w W) -> Self {
        Stats {
            workload,
            name: "stats".to_string(),
            config: Config::stats_only(28, 8, 1),
            inner: InnerParallelism::none(),
            machine: Machine::paper_machine(),
        }
    }

    /// Scenario name used in traces and reports.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Number of parallel chunks (the STATS TLP degree).
    pub fn chunks(&mut self, chunks: usize) -> &mut Self {
        self.config.chunks = chunks;
        self
    }

    /// Alternative-producer lookback `k`.
    pub fn lookback(&mut self, k: usize) -> &mut Self {
        self.config.lookback = k;
        self
    }

    /// Extra original states `m` per chunk boundary.
    pub fn extra_states(&mut self, m: usize) -> &mut Self {
        self.config.extra_states = m;
        self
    }

    /// Speculation breadth `b`: alternative candidates raced per
    /// speculative chunk (1 is the historical protocol).
    pub fn spec_breadth(&mut self, b: usize) -> &mut Self {
        self.config.spec_breadth = b;
        self
    }

    /// Overlap abort recovery: split reruns into pool segments that
    /// release boundary replicas early instead of blocking the
    /// coordinator.
    pub fn overlap_rerun(&mut self, on: bool) -> &mut Self {
        self.config.overlap_rerun = on;
        self
    }

    /// Combine the program's inner TLP with the STATS TLP, using the given
    /// profile ("Par. STATS").
    pub fn combine_inner_tlp(&mut self, inner: InnerParallelism) -> &mut Self {
        self.config.combine_inner_tlp = true;
        self.inner = inner;
        self
    }

    /// Use a whole explicit configuration.
    pub fn config(&mut self, config: Config) -> &mut Self {
        self.config = config;
        self
    }

    /// Run on a specific machine instead of the paper's 28-core default.
    pub fn machine(&mut self, machine: Machine) -> &mut Self {
        self.machine = machine;
        self
    }

    /// The configuration as currently assembled.
    pub fn assembled_config(&self) -> Config {
        self.config
    }

    /// Execute on the deterministic simulated machine.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidConfig`] if the configuration does not fit the
    /// input length; [`StatsError::Simulation`] on internal scheduler
    /// errors.
    pub fn run_simulated(
        &self,
        inputs: &[W::Input],
        seed: u64,
    ) -> Result<RunReport<W::Output>, StatsError>
    where
        W: Sync,
    {
        self.config.validate(inputs.len())?;
        SimulatedRuntime::new(self.machine.clone())
            .run(
                &self.name,
                self.workload,
                inputs,
                self.config,
                self.inner,
                seed,
            )
            .map_err(StatsError::Simulation)
    }

    /// Execute on real host threads (same decisions and outputs as the
    /// simulated run for the same seed).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidConfig`] if the configuration does not fit the
    /// input length.
    pub fn run_threaded(
        &self,
        inputs: &[W::Input],
        seed: u64,
    ) -> Result<ThreadedRun<W::Output>, StatsError>
    where
        W: Sync,
    {
        self.config.validate(inputs.len())?;
        Ok(run_threaded(self.workload, inputs, self.config, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StatsRng;
    use crate::UpdateCost;

    struct Ema;
    impl StateDependence for Ema {
        type State = f64;
        type Input = f64;
        type Output = f64;
        fn fresh_state(&self) -> f64 {
            0.0
        }
        fn update(&self, s: &mut f64, x: &f64, rng: &mut StatsRng) -> (f64, UpdateCost) {
            *s = 0.5 * *s + 0.5 * (*x + rng.noise(0.01));
            (*s, UpdateCost::with_work(50_000))
        }
        fn states_match(&self, a: &f64, b: &f64) -> bool {
            (a - b).abs() < 0.1
        }
        fn state_bytes(&self) -> usize {
            8
        }
    }

    fn inputs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.1).sin()).collect()
    }

    #[test]
    fn builder_runs_with_defaults() {
        let ins = inputs(560);
        let report = Stats::of(&Ema).run_simulated(&ins, 1).unwrap();
        assert_eq!(report.outputs.len(), 560);
        assert!(report.speedup() > 4.0);
    }

    #[test]
    fn builder_chains_configuration() {
        let ins = inputs(200);
        let mut b = Stats::of(&Ema);
        b.name("chained").chunks(4).lookback(2).extra_states(0);
        assert_eq!(b.assembled_config(), Config::stats_only(4, 2, 0));
        let report = b.run_simulated(&ins, 2).unwrap();
        assert_eq!(report.config.chunks, 4);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let ins = inputs(10);
        let mut b = Stats::of(&Ema);
        b.chunks(100);
        let err = b.run_simulated(&ins, 1).unwrap_err();
        assert!(matches!(err, StatsError::InvalidConfig(_)));
        assert!(err.to_string().contains("exceed"));
    }

    #[test]
    fn builder_threaded_matches_simulated() {
        let ins = inputs(120);
        let mut b = Stats::of(&Ema);
        b.chunks(4).lookback(4).extra_states(1);
        let sim = b.run_simulated(&ins, 7).unwrap();
        let thr = b.run_threaded(&ins, 7).unwrap();
        assert_eq!(sim.outputs, thr.outputs);
        assert_eq!(sim.decisions, thr.decisions);
    }

    #[test]
    fn builder_breadth_and_overlap_flow_into_the_config() {
        let mut b = Stats::of(&Ema);
        b.chunks(4)
            .lookback(2)
            .extra_states(1)
            .spec_breadth(3)
            .overlap_rerun(true);
        let cfg = b.assembled_config();
        assert_eq!(cfg.spec_breadth, 3);
        assert!(cfg.overlap_rerun);
        let ins = inputs(120);
        let sim = b.run_simulated(&ins, 7).unwrap();
        let thr = b.run_threaded(&ins, 7).unwrap();
        assert_eq!(sim.outputs, thr.outputs);
        assert_eq!(sim.decisions, thr.decisions);
        // Zero breadth is rejected at the terminal methods.
        b.spec_breadth(0);
        assert!(matches!(
            b.run_simulated(&ins, 7),
            Err(StatsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn combine_switches_mode() {
        let mut b = Stats::of(&Ema);
        assert!(!b.assembled_config().combine_inner_tlp);
        b.combine_inner_tlp(InnerParallelism::amdahl(0.8, 8));
        assert!(b.assembled_config().combine_inner_tlp);
    }
}
