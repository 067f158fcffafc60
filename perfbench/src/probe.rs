//! A transparent wrapper around a workload that times every call into
//! the `StateDependence` methods the protocol layers put on top of
//! `update`.
//!
//! The wrapper delegates every method, so the protocol makes the same
//! calls, in the same order, on the same random streams as on the bare
//! workload; only the clock reads are added. It is used by the traced
//! run alone, and only in single-threaded entry points, so its logs'
//! locks are never contended.

use stats_core::{SnapshotStrategy, StateDependence, StatsRng, UpdateCost};
use stats_telemetry::clock::monotonic_ns;
use std::sync::{Mutex, MutexGuard};

/// Per-call durations (ns) of one method.
#[derive(Default)]
pub struct CallLog(Mutex<Vec<u64>>);

impl CallLog {
    fn log(&self) -> MutexGuard<'_, Vec<u64>> {
        self.0
            .lock()
            .expect("no call panicked while holding the log")
    }

    /// Record a call that started at `t0` and has just returned.
    fn record_since(&self, t0: u64) {
        let ns = monotonic_ns() - t0;
        self.log().push(ns);
    }

    /// Number of calls recorded so far.
    pub fn calls(&self) -> usize {
        self.log().len()
    }

    /// Drain the recorded durations, in nanoseconds.
    pub fn take(&self) -> Vec<f64> {
        self.log().drain(..).map(|ns| ns as f64).collect()
    }
}

/// `W` with `update`, `snapshot_state` and `states_match` timed.
pub struct Probe<'w, W> {
    inner: &'w W,
    pub update: CallLog,
    pub snapshot: CallLog,
    pub states_match: CallLog,
}

impl<'w, W> Probe<'w, W> {
    pub fn new(inner: &'w W) -> Self {
        Probe {
            inner,
            update: CallLog::default(),
            snapshot: CallLog::default(),
            states_match: CallLog::default(),
        }
    }
}

impl<W: StateDependence> StateDependence for Probe<'_, W> {
    type State = W::State;
    type Input = W::Input;
    type Output = W::Output;

    fn fresh_state(&self) -> W::State {
        self.inner.fresh_state()
    }

    fn update(
        &self,
        state: &mut W::State,
        input: &W::Input,
        rng: &mut StatsRng,
    ) -> (W::Output, UpdateCost) {
        let t0 = monotonic_ns();
        let result = self.inner.update(state, input, rng);
        self.update.record_since(t0);
        result
    }

    fn states_match(&self, a: &W::State, b: &W::State) -> bool {
        let t0 = monotonic_ns();
        let result = self.inner.states_match(a, b);
        self.states_match.record_since(t0);
        result
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn outside_region_work(&self) -> (u64, u64) {
        self.inner.outside_region_work()
    }

    fn sync_ops_per_update(&self) -> u64 {
        self.inner.sync_ops_per_update()
    }

    fn snapshot_state(&self, state: &mut W::State, strategy: SnapshotStrategy) -> W::State {
        let t0 = monotonic_ns();
        let result = self.inner.snapshot_state(state, strategy);
        self.snapshot.record_since(t0);
        result
    }

    fn take_materialized(&self, state: &mut W::State) -> u64 {
        self.inner.take_materialized(state)
    }

    fn snapshot_copy_bytes(&self, strategy: SnapshotStrategy) -> u64 {
        self.inner.snapshot_copy_bytes(strategy)
    }
}
