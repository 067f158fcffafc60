//! The semantic layer of the STATS execution model.
//!
//! This module *actually runs* the workload under the STATS protocol
//! (§II-B) and records what happened: every alternative producer's
//! speculative state, every replica's original state, every commit/abort
//! decision, and the cost of every piece of computation. It is pure
//! semantics — no scheduling, no timing. The simulated runtime schedules
//! its recorded outcome; the threaded runtime calls the same protocol
//! steps ([`warm_candidate`], [`replay_replica`], [`commit_check`]) from
//! its pool tasks and coordinator, so both always agree on decisions.

use crate::config::Config;
use crate::dependence::{StateDependence, UpdateCost};
use crate::planner::{plan_balanced, ChunkPlan};
use crate::report::ChunkDecision;
use crate::rng::{StatsRng, StreamRole};
use crate::snapshot::SnapshotStrategy;
use std::ops::Range;

/// Costs of one breadth candidate's pipeline — the alternative producer
/// warmup plus the speculative run it fed — recorded for candidates that
/// did not become the chunk's realized run (the winner's, or candidate
/// 0's on an abort, live in the [`ChunkOutcome`] primary cost fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateCost {
    /// Cost of the candidate's alternative producer.
    pub alt: UpdateCost,
    /// Cost of the candidate's speculative prefix.
    pub prefix: UpdateCost,
    /// Cost of the candidate's speculative suffix (last `k` inputs).
    pub suffix: UpdateCost,
}

/// The recorded execution of one chunk under the STATS protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// Input range the chunk covers.
    pub range: Range<usize>,
    /// What the runtime decided for this chunk.
    pub decision: ChunkDecision,
    /// Cost of the chunk's alternative producer (absent for chunk 0).
    pub alt_cost: Option<UpdateCost>,
    /// Cost of the speculative run's prefix (inputs before the last `k`).
    pub spec_prefix: UpdateCost,
    /// Cost of the speculative run's suffix (the last `k` inputs, re-run
    /// by replicas at this chunk's boundary).
    pub spec_suffix: UpdateCost,
    /// Costs of the re-execution after an abort (prefix, suffix).
    pub rerun: Option<(UpdateCost, UpdateCost)>,
    /// Costs of the `m` original-state replicas generated at the end of
    /// this chunk (empty for the last chunk).
    pub replica_costs: Vec<UpdateCost>,
    /// Which original state matched this chunk's speculative state:
    /// `Some(0)` is the producer's own final state, `Some(j)` is replica
    /// `j-1`. `None` for chunk 0 and for aborted chunks. Under breadth
    /// this is the *winning candidate's* match.
    pub matched_original: Option<usize>,
    /// Which breadth candidate's start state matched an original (the
    /// commit check tries candidates in index order, so this is the
    /// lowest matching index). `None` for chunk 0 and aborted chunks;
    /// always `Some(0)` at breadth 1.
    pub matched_candidate: Option<usize>,
    /// Costs of the candidates that lost the commit check, in candidate
    /// order with the primary candidate excluded: all but the winner on a
    /// commit, candidates `1..b` on an abort. Empty at breadth 1.
    pub losing_candidates: Vec<CandidateCost>,
    /// Logical bytes the protocol replicated for this chunk: state size ×
    /// replication events (speculative handoff, `m` boundary replicas,
    /// abort transfer). Strategy-invariant — this is the historical
    /// `StateCopies × state_bytes` accounting.
    pub bytes_logical: u64,
    /// Bytes physically copied for this chunk under the configured
    /// [`SnapshotStrategy`]: equal to [`bytes_logical`] under `DeepClone`;
    /// under `CopyOnWrite`, only the snapshot's unshared residue plus
    /// bytes later materialized by dirty-on-write faults.
    ///
    /// [`bytes_logical`]: ChunkOutcome::bytes_logical
    pub bytes_copied: u64,
}

impl ChunkOutcome {
    /// Total useful-work cost of the realized run of this chunk.
    pub fn realized_cost(&self) -> UpdateCost {
        match self.rerun {
            Some((p, s)) => p + s,
            None => self.spec_prefix + self.spec_suffix,
        }
    }

    /// Whether this chunk's speculation aborted.
    pub fn aborted(&self) -> bool {
        self.decision == ChunkDecision::Aborted
    }
}

/// The complete semantic record of one STATS execution.
#[derive(Debug, Clone)]
pub struct SpeculationOutcome<O> {
    /// The chunk plan used.
    pub plan: ChunkPlan,
    /// The configuration executed.
    pub config: Config,
    /// Per-chunk records, in stream order.
    pub chunks: Vec<ChunkOutcome>,
    /// The realized outputs, in input order (speculative outputs for
    /// committed chunks, re-run outputs for aborted ones).
    pub outputs: Vec<O>,
    /// Size of one state in bytes.
    pub state_bytes: usize,
}

impl<O> SpeculationOutcome<O> {
    /// Per-chunk decisions, in stream order.
    pub fn decisions(&self) -> Vec<ChunkDecision> {
        self.chunks.iter().map(|c| c.decision).collect()
    }

    /// Number of aborted chunks.
    pub fn aborts(&self) -> usize {
        self.chunks.iter().filter(|c| c.aborted()).count()
    }

    /// Commit rate over the speculative chunks (chunk 0 excluded);
    /// 1.0 when nothing speculated.
    pub fn commit_rate(&self) -> f64 {
        let speculative = self.chunks.len().saturating_sub(1);
        if speculative == 0 {
            return 1.0;
        }
        1.0 - self.aborts() as f64 / speculative as f64
    }

    /// Total useful work (realized runs only), in work units.
    pub fn realized_work(&self) -> u64 {
        self.chunks.iter().map(|c| c.realized_cost().work).sum()
    }

    /// Total logical replication bytes (Σ [`ChunkOutcome::bytes_logical`]).
    pub fn bytes_logical(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes_logical).sum()
    }

    /// Total physically copied bytes (Σ [`ChunkOutcome::bytes_copied`]).
    pub fn bytes_copied(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes_copied).sum()
    }
}

/// One segment run: outputs plus aggregated prefix/suffix costs and the
/// states needed by the protocol.
pub(crate) struct SegmentRun<S, O> {
    pub(crate) outputs: Vec<O>,
    pub(crate) prefix_cost: UpdateCost,
    pub(crate) suffix_cost: UpdateCost,
    /// State snapshot taken before processing the last `k` inputs.
    pub(crate) snapshot: S,
    pub(crate) final_state: S,
    /// Bytes the running state materialized through copy-on-write faults
    /// during the segment (always 0 under `DeepClone`).
    pub(crate) materialized: u64,
}

/// Run `inputs[range]` from `start` state, splitting cost accounting at
/// `range.len() - k` and snapshotting the state there.
pub(crate) fn run_segment<W: StateDependence>(
    workload: &W,
    start: W::State,
    inputs: &[W::Input],
    range: Range<usize>,
    k: usize,
    strategy: SnapshotStrategy,
    rng: &mut StatsRng,
) -> SegmentRun<W::State, W::Output> {
    let len = range.len();
    let split = len.saturating_sub(k);
    let mut state = start;
    let mut outputs = Vec::with_capacity(len);
    let mut prefix_cost = UpdateCost::default();
    let mut suffix_cost = UpdateCost::default();
    // `k == 0` (single-chunk runs): the boundary snapshot is the starting
    // state and no replica ever replays from it; otherwise it is taken at
    // the prefix/suffix split. Either way exactly one snapshot is taken.
    let mut snapshot = if split >= len {
        Some(workload.snapshot_state(&mut state, strategy))
    } else {
        None
    };
    for (i, idx) in range.enumerate() {
        if i == split {
            snapshot = Some(workload.snapshot_state(&mut state, strategy));
        }
        let (out, cost) = workload.update(&mut state, &inputs[idx], rng);
        outputs.push(out);
        if i < split {
            prefix_cost = prefix_cost + cost;
        } else {
            suffix_cost = suffix_cost + cost;
        }
    }
    let materialized = workload.take_materialized(&mut state);
    SegmentRun {
        outputs,
        prefix_cost,
        suffix_cost,
        snapshot: snapshot.expect("segment recorded its boundary snapshot"),
        final_state: state,
        materialized,
    }
}

// ---------------------------------------------------------------------------
// Protocol steps shared by every runtime
// ---------------------------------------------------------------------------
//
// The stream roles and comparison order below decide commit/abort; both
// `run_speculative_planned` and the threaded coordinator call these, so
// the runtimes agree by shared code. Timing, telemetry and state
// recycling stay with the callers.

/// The replayed index window feeding the replicas of `boundary`: the
/// trailing `k` inputs of that chunk (clamped to the chunk itself).
pub(crate) fn replay_bounds(plan: &ChunkPlan, boundary: usize, k: usize) -> Range<usize> {
    let range = plan.chunk(boundary);
    range.end.saturating_sub(k).max(range.start)..range.end
}

/// Alternative producer of chunk `c`'s breadth candidate `j`: warm a
/// fresh state up on the `k` inputs before `chunk_start` (the short
/// memory property, §II-B) on the candidate's own derived stream.
///
/// Returns the warmed state, the warm-up's cost, and the stream the
/// candidate's chunk run consumes. Candidate 0 runs on the historical
/// `AltProducer(c)` / `Chunk(c)` streams, so breadth 1 is the historical
/// protocol.
pub(crate) fn warm_candidate<W: StateDependence>(
    workload: &W,
    inputs: &[W::Input],
    chunk_start: usize,
    k: usize,
    master_seed: u64,
    c: usize,
    j: usize,
) -> (W::State, UpdateCost, StatsRng) {
    let (alt_role, run_role) = if j == 0 {
        (StreamRole::AltProducer(c), StreamRole::Chunk(c))
    } else {
        (
            StreamRole::AltCandidate {
                chunk: c,
                candidate: j,
            },
            StreamRole::ChunkCandidate {
                chunk: c,
                candidate: j,
            },
        )
    };
    let mut rng = StatsRng::derive(master_seed, alt_role);
    let mut state = workload.fresh_state();
    let mut cost = UpdateCost::default();
    for input in &inputs[chunk_start - k..chunk_start] {
        let (_, step) = workload.update(&mut state, input, &mut rng);
        cost = cost + step;
    }
    (state, cost, StatsRng::derive(master_seed, run_role))
}

/// Original-state replica `replica` of `boundary`: replay `inputs[replay]`
/// (the trailing `k` inputs of that chunk) from a copy of the boundary
/// snapshot on the replica's own derived stream — one sample of the
/// acceptable-state space.
///
/// Returns the replayed state, the replay's cost, and the bytes the state
/// materialized through copy-on-write faults while replaying.
pub(crate) fn replay_replica<W: StateDependence>(
    workload: &W,
    inputs: &[W::Input],
    replay: Range<usize>,
    master_seed: u64,
    boundary: usize,
    replica: usize,
    mut state: W::State,
) -> (W::State, UpdateCost, u64) {
    let mut rng = StatsRng::derive(
        master_seed,
        StreamRole::OriginalState {
            chunk: boundary,
            replica,
        },
    );
    let mut cost = UpdateCost::default();
    for input in &inputs[replay] {
        let (_, step) = workload.update(&mut state, input, &mut rng);
        cost = cost + step;
    }
    let materialized = workload.take_materialized(&mut state);
    (state, cost, materialized)
}

/// Candidate-major commit check: for each candidate start state in index
/// order, compare it against the producer's own final state, then each
/// replica in order; the first match wins.
///
/// Returns `Some((winner, original))` — `original` 0 is the producer's
/// final state, `i` is replica `i - 1` — or `None` (abort), plus the
/// number of `states_match` evaluations made.
pub(crate) fn commit_check<'s, W: StateDependence>(
    workload: &W,
    candidates: impl IntoIterator<Item = &'s W::State>,
    own_final: &W::State,
    replicas: &[W::State],
) -> (Option<(usize, usize)>, u64)
where
    W::State: 's,
{
    let mut comparisons = 0u64;
    for (j, spec) in candidates.into_iter().enumerate() {
        let originals = std::iter::once(own_final).chain(replicas);
        for (i, original) in originals.enumerate() {
            comparisons += 1;
            if workload.states_match(spec, original) {
                return (Some((j, i)), comparisons);
            }
        }
    }
    (None, comparisons)
}

/// Execute the STATS protocol over `inputs` and record everything.
///
/// Deterministic: the same `(workload, inputs, config, master_seed)` always
/// yields the same outcome, regardless of how the runtimes later schedule
/// the work.
///
/// # Panics
///
/// Panics if `config` is invalid for `inputs.len()` (validate first with
/// [`Config::validate`]).
pub fn run_speculative<W: StateDependence>(
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    master_seed: u64,
) -> SpeculationOutcome<W::Output> {
    config
        .validate(inputs.len())
        .expect("invalid configuration for input length");
    let plan = plan_balanced(inputs.len(), config.chunks);
    run_speculative_planned(workload, inputs, config, plan, master_seed)
}

/// Execute the STATS protocol with an explicit chunk plan.
///
/// The paper lists "the length of each computation chunk" among the design
/// space parameters (§II-B); this entry point lets callers supply a
/// profile-weighted plan (see [`crate::plan_weighted`]) so benchmarks with
/// skewed per-input costs — `facedet-and-track`'s detector-vs-filter
/// bimodality — can be balanced by work rather than by input count.
///
/// # Panics
///
/// Panics if the plan does not cover `inputs`, its chunk count differs
/// from `config.chunks`, or any chunk is shorter than the lookback.
pub fn run_speculative_planned<W: StateDependence>(
    workload: &W,
    inputs: &[W::Input],
    config: Config,
    plan: ChunkPlan,
    master_seed: u64,
) -> SpeculationOutcome<W::Output> {
    assert_eq!(
        plan.inputs(),
        inputs.len(),
        "plan does not cover the input stream"
    );
    assert_eq!(plan.len(), config.chunks, "plan chunk count mismatch");
    for c in 1..plan.len() {
        assert!(
            plan.chunk(c - 1).len() >= config.lookback,
            "chunk {} shorter than the lookback",
            c - 1
        );
    }
    let k = config.lookback;
    let m = config.extra_states;
    let b = config.spec_breadth.max(1);
    let strategy = config.snapshot;
    let state_bytes = workload.state_bytes() as u64;

    let mut chunks: Vec<ChunkOutcome> = Vec::with_capacity(plan.len());
    let mut outputs_per_chunk: Vec<Vec<W::Output>> = Vec::with_capacity(plan.len());

    // Realized boundary data of the previous chunk.
    let mut prev_final: W::State = workload.fresh_state();
    let mut prev_snapshot: Option<W::State> = None;

    for c in 0..plan.len() {
        let range = plan.chunk(c);
        if c == 0 {
            let mut rng = StatsRng::derive(master_seed, StreamRole::Chunk(0));
            let run = run_segment(
                workload,
                workload.fresh_state(),
                inputs,
                range.clone(),
                k,
                strategy,
                &mut rng,
            );
            chunks.push(ChunkOutcome {
                range,
                decision: ChunkDecision::First,
                alt_cost: None,
                spec_prefix: run.prefix_cost,
                spec_suffix: run.suffix_cost,
                rerun: None,
                replica_costs: Vec::new(),
                matched_original: None,
                matched_candidate: None,
                losing_candidates: Vec::new(),
                bytes_logical: 0,
                bytes_copied: run.materialized,
            });
            outputs_per_chunk.push(run.outputs);
            prev_final = run.final_state;
            prev_snapshot = Some(run.snapshot);
            continue;
        }

        // Alternative producers: `b` candidates, each warming up on the k
        // inputs preceding the chunk from a fresh state (the short memory
        // property, §II-B) on an independent derived stream, then running
        // the chunk body from a snapshot of its own speculative state
        // (each handoff is one replication event; the original is
        // retained for the boundary comparison). Candidate 0 uses the
        // historical streams, so breadth 1 is the historical protocol.
        let mut bytes_logical = 0u64;
        let mut bytes_copied = 0u64;
        let mut cand_alt_costs: Vec<UpdateCost> = Vec::with_capacity(b);
        let mut cand_spec_states: Vec<W::State> = Vec::with_capacity(b);
        let mut cand_runs: Vec<SegmentRun<W::State, W::Output>> = Vec::with_capacity(b);
        for j in 0..b {
            let (mut spec_state, alt_cost, mut chunk_rng) =
                warm_candidate(workload, inputs, range.start, k, master_seed, c, j);
            bytes_logical += state_bytes;
            bytes_copied += workload.snapshot_copy_bytes(strategy);
            let spec_start = workload.snapshot_state(&mut spec_state, strategy);
            let spec_run = run_segment(
                workload,
                spec_start,
                inputs,
                range.clone(),
                k,
                strategy,
                &mut chunk_rng,
            );
            bytes_copied += spec_run.materialized;
            cand_alt_costs.push(alt_cost);
            cand_spec_states.push(spec_state);
            cand_runs.push(spec_run);
        }

        // Validation at the previous boundary: the producer's own final
        // state plus m replicas re-running its last k inputs from the
        // realized snapshot, each with an independent random stream
        // ("these original states differ because of the nondeterminism of
        // the original algorithm", §II-B).
        let replay = replay_bounds(&plan, c - 1, k);
        let mut snapshot = prev_snapshot
            .take()
            .expect("previous chunk recorded a snapshot");
        let mut replica_costs = Vec::with_capacity(m);
        // Replica starting states: m - 1 snapshots plus the boundary
        // snapshot itself by move (the threaded runtime fans out the same
        // way, so copy-on-write fault histories agree across runtimes).
        // All m delivered states are protocol replication events.
        bytes_logical += m as u64 * state_bytes;
        bytes_copied += m as u64 * workload.snapshot_copy_bytes(strategy);
        let mut replica_states: Vec<W::State> = Vec::with_capacity(m);
        for _ in 1..m {
            replica_states.push(workload.snapshot_state(&mut snapshot, strategy));
        }
        if m > 0 {
            replica_states.push(snapshot);
        }
        let mut replica_finals: Vec<W::State> = Vec::with_capacity(m);
        for (j, st) in replica_states.into_iter().enumerate() {
            let (st, cost, materialized) =
                replay_replica(workload, inputs, replay.clone(), master_seed, c - 1, j, st);
            bytes_copied += materialized;
            replica_costs.push(cost);
            replica_finals.push(st);
        }
        chunks[c - 1].replica_costs = replica_costs;

        // The chunk commits iff *any* candidate matches an original.
        let (matched, _) = commit_check(workload, &cand_spec_states, &prev_final, &replica_finals);
        if let Some((winner, which)) = matched {
            let losing_candidates = cand_alt_costs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != winner)
                .map(|(j, &alt)| CandidateCost {
                    alt,
                    prefix: cand_runs[j].prefix_cost,
                    suffix: cand_runs[j].suffix_cost,
                })
                .collect();
            let spec_run = cand_runs.swap_remove(winner);
            chunks.push(ChunkOutcome {
                range,
                decision: ChunkDecision::Committed,
                alt_cost: Some(cand_alt_costs[winner]),
                spec_prefix: spec_run.prefix_cost,
                spec_suffix: spec_run.suffix_cost,
                rerun: None,
                replica_costs: Vec::new(),
                matched_original: Some(which),
                matched_candidate: Some(winner),
                losing_candidates,
                bytes_logical,
                bytes_copied,
            });
            prev_final = spec_run.final_state;
            prev_snapshot = Some(spec_run.snapshot);
            outputs_per_chunk.push(spec_run.outputs);
        } else {
            // Abort: re-run from the true original state (§II-B case (i)),
            // which moves to the re-run like the threaded runtime's urgent
            // rerun task does — one more logical replication event.
            bytes_logical += state_bytes;
            bytes_copied += workload.snapshot_copy_bytes(strategy);
            let rerun_start = std::mem::replace(&mut prev_final, workload.fresh_state());
            let mut rerun_rng = StatsRng::derive(master_seed, StreamRole::Rerun(c));
            let rerun = run_segment(
                workload,
                rerun_start,
                inputs,
                range.clone(),
                k,
                strategy,
                &mut rerun_rng,
            );
            bytes_copied += rerun.materialized;
            let losing_candidates = cand_alt_costs[1..]
                .iter()
                .zip(&cand_runs[1..])
                .map(|(&alt, run)| CandidateCost {
                    alt,
                    prefix: run.prefix_cost,
                    suffix: run.suffix_cost,
                })
                .collect();
            chunks.push(ChunkOutcome {
                range,
                decision: ChunkDecision::Aborted,
                alt_cost: Some(cand_alt_costs[0]),
                spec_prefix: cand_runs[0].prefix_cost,
                spec_suffix: cand_runs[0].suffix_cost,
                rerun: Some((rerun.prefix_cost, rerun.suffix_cost)),
                replica_costs: Vec::new(),
                matched_original: None,
                matched_candidate: None,
                losing_candidates,
                bytes_logical,
                bytes_copied,
            });
            prev_final = rerun.final_state;
            prev_snapshot = Some(rerun.snapshot);
            outputs_per_chunk.push(rerun.outputs);
        }
    }

    let outputs = outputs_per_chunk.into_iter().flatten().collect();
    SpeculationOutcome {
        plan,
        config,
        chunks,
        outputs,
        state_bytes: workload.state_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence::UpdateCost;

    /// Noisy moving average with tunable memory: with decay 0.5 the state
    /// forgets quickly (short memory); with decay ~1.0 it remembers
    /// everything (speculation must abort).
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

        fn update(&self, state: &mut f64, input: &f64, rng: &mut StatsRng) -> (f64, UpdateCost) {
            *state = self.decay * *state + (1.0 - self.decay) * (*input + rng.noise(0.001));
            (*state, UpdateCost::with_work(100))
        }

        fn states_match(&self, a: &f64, b: &f64) -> bool {
            (a - b).abs() < self.tolerance
        }

        fn state_bytes(&self) -> usize {
            8
        }
    }

    fn inputs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.05).sin()).collect()
    }

    #[test]
    fn short_memory_workload_commits() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(256);
        let cfg = Config::stats_only(8, 16, 2);
        let out = run_speculative(&w, &ins, cfg, 42);
        assert_eq!(out.outputs.len(), 256);
        assert_eq!(out.aborts(), 0, "short memory should commit everywhere");
        assert_eq!(out.commit_rate(), 1.0);
    }

    #[test]
    fn long_memory_workload_aborts() {
        let w = Ema {
            decay: 0.999,
            tolerance: 0.001,
        };
        let ins = inputs(256);
        let cfg = Config::stats_only(8, 4, 1);
        let out = run_speculative(&w, &ins, cfg, 42);
        assert!(out.aborts() > 0, "long memory must mispeculate");
        assert_eq!(out.outputs.len(), 256);
    }

    #[test]
    fn outputs_match_input_count_always() {
        let w = Ema {
            decay: 0.7,
            tolerance: 0.02,
        };
        let ins = inputs(100);
        for chunks in [1, 2, 5, 10] {
            let cfg = Config::stats_only(chunks, 8.min(100 / chunks), 1);
            if cfg.validate(ins.len()).is_err() {
                continue;
            }
            let out = run_speculative(&w, &ins, cfg, 7);
            assert_eq!(out.outputs.len(), 100);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let w = Ema {
            decay: 0.6,
            tolerance: 0.03,
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 8, 2);
        let a = run_speculative(&w, &ins, cfg, 5);
        let b = run_speculative(&w, &ins, cfg, 5);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.aborts(), b.aborts());
        let c = run_speculative(&w, &ins, cfg, 6);
        // Different seed: values differ (nondeterminism) though often the
        // same decisions.
        assert_ne!(a.outputs, c.outputs);
    }

    #[test]
    fn aborted_chunk_outputs_come_from_rerun() {
        // With decay ~1 the speculative run starting near 0 produces
        // different outputs than the re-run starting from the true state.
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-9,
        };
        let ins: Vec<f64> = (0..64).map(|_| 1.0).collect();
        let cfg = Config::stats_only(2, 2, 0);
        let out = run_speculative(&w, &ins, cfg, 3);
        assert_eq!(out.aborts(), 1);
        // Sequential reference: state keeps growing toward 1; the second
        // half's outputs must continue from the first half's level, which
        // speculation (starting fresh) could not achieve.
        assert!(out.outputs[32] > out.outputs[16] * 0.9);
    }

    #[test]
    fn replica_costs_attach_to_producer_chunk() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(120);
        let cfg = Config::stats_only(3, 10, 2);
        let out = run_speculative(&w, &ins, cfg, 11);
        // Chunks 0 and 1 produce replicas for their successors; chunk 2
        // (the last) does not.
        assert_eq!(out.chunks[0].replica_costs.len(), 2);
        assert_eq!(out.chunks[1].replica_costs.len(), 2);
        assert!(out.chunks[2].replica_costs.is_empty());
    }

    #[test]
    fn matched_original_is_recorded() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(120);
        let cfg = Config::stats_only(3, 10, 2);
        let out = run_speculative(&w, &ins, cfg, 11);
        for c in &out.chunks[1..] {
            assert!(c.matched_original.is_some());
        }
        assert_eq!(out.chunks[0].matched_original, None);
    }

    #[test]
    fn realized_work_counts_reruns() {
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-9,
        };
        let ins = inputs(64);
        let cfg = Config::stats_only(2, 2, 0);
        let out = run_speculative(&w, &ins, cfg, 3);
        assert_eq!(out.aborts(), 1);
        // Realized work = both chunks' re-realized runs = 64 updates.
        assert_eq!(out.realized_work(), 64 * 100);
        let c1 = &out.chunks[1];
        assert!(c1.rerun.is_some());
        let rerun_total = c1.rerun.unwrap().0 + c1.rerun.unwrap().1;
        assert_eq!(rerun_total.work, 32 * 100);
    }

    #[test]
    fn single_chunk_never_speculates() {
        let w = Ema {
            decay: 0.9,
            tolerance: 0.01,
        };
        let ins = inputs(50);
        let out = run_speculative(&w, &ins, Config::sequential(), 1);
        assert_eq!(out.chunks.len(), 1);
        assert_eq!(out.chunks[0].decision, ChunkDecision::First);
        assert_eq!(out.commit_rate(), 1.0);
        assert!(out.chunks[0].alt_cost.is_none());
    }

    #[test]
    fn planned_execution_matches_balanced_when_plans_agree() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(120);
        let cfg = Config::stats_only(4, 8, 1);
        let balanced = run_speculative(&w, &ins, cfg, 3);
        let plan = crate::planner::plan_balanced(120, 4);
        let planned = run_speculative_planned(&w, &ins, cfg, plan, 3);
        assert_eq!(balanced.outputs, planned.outputs);
        assert_eq!(balanced.aborts(), planned.aborts());
    }

    #[test]
    fn weighted_plans_change_chunk_shapes_not_semantics() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(120);
        let cfg = Config::stats_only(4, 8, 1);
        // Skewed weights: front-loaded work.
        let plan = crate::planner::plan_weighted(120, 4, |i| if i < 40 { 10 } else { 1 });
        assert!(plan.chunk(0).len() < plan.chunk(3).len());
        let out = run_speculative_planned(&w, &ins, cfg, plan, 3);
        assert_eq!(out.outputs.len(), 120);
        assert_eq!(out.chunks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "plan chunk count mismatch")]
    fn planned_execution_rejects_wrong_chunk_count() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(60);
        let plan = crate::planner::plan_balanced(60, 3);
        run_speculative_planned(&w, &ins, Config::stats_only(4, 4, 1), plan, 1);
    }

    #[test]
    fn byte_accounting_matches_the_copy_events() {
        let w = Ema {
            decay: 0.5,
            tolerance: 0.05,
        };
        let ins = inputs(256);
        let cfg = Config::stats_only(8, 16, 2);
        let out = run_speculative(&w, &ins, cfg, 42);
        // StateCopies events: one spec handoff and m replicas per
        // speculative chunk, plus one transfer per abort.
        let copies = (8 - 1) * (1 + 2) + out.aborts();
        assert_eq!(out.bytes_logical(), 8 * copies as u64);
        assert_eq!(out.bytes_copied(), out.bytes_logical());
        // A state without COW components is charged identically (and
        // decides identically) under the cow strategy.
        let cow = run_speculative(
            &w,
            &ins,
            cfg.with_snapshot(SnapshotStrategy::CopyOnWrite),
            42,
        );
        assert_eq!(cow.outputs, out.outputs);
        assert_eq!(cow.bytes_logical(), out.bytes_logical());
        assert_eq!(cow.bytes_copied(), out.bytes_copied());
    }

    #[test]
    fn breadth_one_is_the_historical_protocol() {
        // `with_breadth(1)` must be a no-op on every recorded field —
        // candidate 0 runs on the historical streams.
        let w = Ema {
            decay: 0.9,
            tolerance: 0.0035,
        };
        let ins = inputs(512);
        let base = run_speculative(&w, &ins, Config::stats_only(8, 16, 2), 17);
        let explicit = run_speculative(&w, &ins, Config::stats_only(8, 16, 2).with_breadth(1), 17);
        assert_eq!(base.outputs, explicit.outputs);
        assert_eq!(base.chunks, explicit.chunks);
        for c in &base.chunks {
            assert!(c.losing_candidates.is_empty());
            assert_eq!(c.matched_candidate, c.matched_original.map(|_| 0));
        }
    }

    #[test]
    fn breadth_candidates_rescue_borderline_aborts() {
        // Borderline tolerance: each extra candidate is one more draw at
        // landing inside the acceptance window.
        let w = Ema {
            decay: 0.9,
            tolerance: 0.0035,
        };
        let ins = inputs(512);
        let narrow = run_speculative(&w, &ins, Config::stats_only(8, 16, 1), 17);
        let wide = run_speculative(&w, &ins, Config::stats_only(8, 16, 1).with_breadth(4), 17);
        assert!(
            wide.aborts() <= narrow.aborts(),
            "breadth should rescue aborts here: {} vs {}",
            wide.aborts(),
            narrow.aborts()
        );
        assert_eq!(wide.outputs.len(), ins.len());
    }

    #[test]
    fn breadth_records_candidates_and_byte_accounting() {
        let w = Ema {
            decay: 0.9,
            tolerance: 0.0035,
        };
        let ins = inputs(512);
        let cfg = Config::stats_only(8, 16, 2).with_breadth(3);
        let out = run_speculative(&w, &ins, cfg, 17);
        // Every speculative chunk ran 3 candidates: one primary plus two
        // recorded losers, whatever the decision.
        for c in &out.chunks[1..] {
            assert_eq!(c.losing_candidates.len(), 2);
            if c.aborted() {
                assert_eq!(c.matched_candidate, None);
            } else {
                let w_idx = c
                    .matched_candidate
                    .expect("committed chunks record a winner");
                assert!(w_idx < 3);
                assert!(c.matched_original.is_some());
            }
        }
        // Copy events: b handoffs and m replicas per speculative chunk,
        // plus one transfer per abort.
        let copies = (8 - 1) * (3 + 2) + out.aborts();
        assert_eq!(out.bytes_logical(), 8 * copies as u64);
        assert_eq!(out.bytes_copied(), out.bytes_logical());
    }

    #[test]
    fn overlap_flag_never_changes_semantics() {
        // Overlapped abort recovery is pure scheduling; the semantic
        // record is bit-identical with the flag on.
        let w = Ema {
            decay: 0.999,
            tolerance: 0.001,
        };
        let ins = inputs(256);
        let cfg = Config::stats_only(8, 4, 1);
        let plain = run_speculative(&w, &ins, cfg, 42);
        assert!(plain.aborts() > 0);
        let overlapped = run_speculative(&w, &ins, cfg.with_overlap(true), 42);
        assert_eq!(plain.outputs, overlapped.outputs);
        assert_eq!(plain.chunks, overlapped.chunks);
    }

    #[test]
    fn extra_states_raise_commit_rate() {
        // Borderline tolerance: more original states = more chances to
        // match (§II-B's motivation for multiple original states).
        let w = Ema {
            decay: 0.9,
            tolerance: 0.0035,
        };
        let ins = inputs(512);
        let strict = run_speculative(&w, &ins, Config::stats_only(8, 16, 0), 17);
        let lenient = run_speculative(&w, &ins, Config::stats_only(8, 16, 6), 17);
        assert!(
            lenient.aborts() <= strict.aborts(),
            "extra states should never hurt: {} vs {}",
            lenient.aborts(),
            strict.aborts()
        );
    }
}
