//! The simulated STATS runtime: execution-model → task graph → machine.
//!
//! This executor mirrors §V-B of the paper: it timestamps "each critical
//! point of the STATS execution model" — setup, every alternative
//! producer, every original-state generation block, every comparison,
//! every state clone, every synchronization block, and the parallelized
//! region boundaries — by construction: each becomes a task with an
//! explicit category, scheduled on the modeled machine.

use crate::config::Config;
use crate::dependence::StateDependence;
use crate::fault::FaultPlan;
use crate::planner::plan_balanced;
use crate::report::{ChunkDecision, ResourceAccounting, RunReport};
use crate::runtime::sequential::run_sequential;
use crate::speculation::{run_speculative, SpeculationOutcome};
use crate::tlp::InnerParallelism;
use crate::UpdateCost;
use stats_platform::{Machine, SimError, TaskGraph, TaskId};
use stats_telemetry::{Counter, Event, TelemetrySink};
use stats_trace::{Category, Cycles, ThreadId};

/// Options controlling how an outcome is lowered to a task graph.
#[derive(Debug, Clone, Copy)]
pub struct GraphOptions {
    /// The workload's inner (original) parallelism profile.
    pub inner: InnerParallelism,
    /// Pretend every speculation committed: drop re-executions and keep
    /// speculative runs as useful work. Used by the mispeculation what-if
    /// of the attribution analysis (§III-E).
    pub assume_all_commit: bool,
    /// Work units of program code before/after the STATS region (§III-D).
    pub outside_work: (u64, u64),
    /// Synchronized runtime handoffs per update (see
    /// [`StateDependence::sync_ops_per_update`]).
    pub sync_ops_per_update: u64,
    /// Lazy original-state replication: generate replicas one at a time,
    /// stopping at the first match, instead of the paper's eager parallel
    /// generation (Fig. 5). An execution-model evolution in the spirit of
    /// the paper's conclusion — trades replica *work* for commit
    /// *latency*; quantified by the `replication` ablation.
    pub lazy_replicas: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            inner: InnerParallelism::none(),
            assume_all_commit: false,
            outside_work: (0, 0),
            sync_ops_per_update: 1,
            lazy_replicas: false,
        }
    }
}

/// Deterministic thread-id layout of the generated parallel program.
#[derive(Debug, Clone, Copy)]
struct ThreadLayout {
    chunks: usize,
    extra_states: usize,
    width: usize,
    /// `b`: speculation breadth; candidates beyond the primary get their
    /// own threads after the shard block.
    breadth: usize,
}

impl ThreadLayout {
    fn main(&self) -> ThreadId {
        ThreadId(0)
    }
    fn worker(&self, c: usize) -> ThreadId {
        ThreadId(1 + c)
    }
    fn replica(&self, boundary: usize, j: usize) -> ThreadId {
        ThreadId(1 + self.chunks + boundary * self.extra_states + j)
    }
    fn shard(&self, c: usize, s: usize) -> ThreadId {
        let boundaries = self.chunks.saturating_sub(1);
        ThreadId(1 + self.chunks + boundaries * self.extra_states + c * self.width + s)
    }
    /// Thread of chunk `c`'s `q`-th *losing* breadth candidate (the
    /// realized candidate runs on [`ThreadLayout::worker`]).
    fn candidate(&self, c: usize, q: usize) -> ThreadId {
        let boundaries = self.chunks.saturating_sub(1);
        let base = 1 + self.chunks + boundaries * self.extra_states + self.chunks * self.width;
        ThreadId(base + c * self.breadth.saturating_sub(1) + q)
    }
}

/// Effective inner-TLP width for a configuration on a machine.
pub fn effective_width(config: &Config, inner: &InnerParallelism, cores: usize) -> usize {
    if config.combine_inner_tlp && inner.is_parallel() {
        (cores / config.chunks).max(1).min(inner.max_width)
    } else {
        1
    }
}

/// Emit one (possibly sharded) compute segment on `worker`'s thread.
/// Returns the id of the task that signals segment completion.
///
/// `updates` is the number of original-program updates the segment covers:
/// inner (original) TLP forks and joins *per update* — per frame in
/// bodytrack, per point batch in streamcluster — so its synchronization
/// cost scales with both width and update count, which is what makes the
/// original TLP saturate in Fig. 9.
#[allow(clippy::too_many_arguments)]
fn emit_compute(
    g: &mut TaskGraph,
    machine: &Machine,
    layout: &ThreadLayout,
    chunk: usize,
    category: Category,
    cost: UpdateCost,
    updates: u64,
    inner: &InnerParallelism,
    label: &str,
) -> TaskId {
    let cm = machine.cost_model();
    let worker = layout.worker(chunk);
    let width = layout.width;
    if width <= 1 || !inner.is_parallel() || cost.work == 0 {
        return g.task_full(
            worker,
            category,
            cm.work(cost.work),
            cost.instructions,
            Vec::new(),
            Some(label.to_string()),
        );
    }
    let updates = updates.max(1);
    let (serial, per_shard) = inner.split_work(cost.work, width);
    let serial_instr = (cost.instructions as f64 * serial as f64 / cost.work as f64) as u64;
    let shard_instr = (cost.instructions - serial_instr) / width as u64;
    let serial_task = g.task_full(
        worker,
        category,
        cm.work(serial),
        serial_instr,
        Vec::new(),
        Some(format!("{label} serial")),
    );
    // Fork: the worker signals `width` shard threads, once per update.
    let fork = g.task_full(
        worker,
        Category::Sync,
        Cycles(cm.sync_wakeup.get() * width as u64 * updates),
        200 * width as u64 * updates,
        vec![serial_task],
        Some(format!("{label} fork")),
    );
    let mut shard_ids = Vec::with_capacity(width);
    for s in 0..width {
        let id = g.task_full(
            layout.shard(chunk, s),
            category,
            cm.work(per_shard),
            shard_instr,
            vec![fork],
            Some(format!("{label} shard {s}")),
        );
        shard_ids.push(id);
    }
    g.task_full(
        worker,
        Category::Sync,
        Cycles(cm.sync_block.get() * updates),
        200 * updates,
        shard_ids,
        Some(format!("{label} join")),
    )
}

/// Lower a speculation outcome to a schedulable task graph.
///
/// The graph reproduces the execution model of Figs. 2b/5/6/7: alternative
/// producers feed chunk threads, original-state replicas fork off each
/// realized chunk's snapshot, comparisons gate sequential-order commits,
/// and aborts trigger serialized re-execution.
pub fn build_task_graph<O>(
    name: &str,
    outcome: &SpeculationOutcome<O>,
    machine: &Machine,
    opts: &GraphOptions,
) -> TaskGraph {
    build_task_graph_observed(name, outcome, machine, opts, None)
}

/// [`build_task_graph`] with live telemetry: every emitted task is also
/// recorded as a `(category, cycles)` span in the sink at lowering time.
///
/// The machine later creates exactly one trace span per task with the
/// same duration, so a snapshot of the sink reconciles 1:1 — span counts
/// and cycle sums per category — against the executed trace. That makes
/// the telemetry-vs-trace comparison a genuine lowering-vs-execution
/// cross-check rather than two reads of the same data.
pub fn build_task_graph_observed<O>(
    name: &str,
    outcome: &SpeculationOutcome<O>,
    machine: &Machine,
    opts: &GraphOptions,
    telemetry: Option<&TelemetrySink>,
) -> TaskGraph {
    let graph = build_graph_inner(name, outcome, machine, opts);
    if let Some(t) = telemetry {
        for task in graph.tasks() {
            t.record_span(task.category, task.duration);
        }
    }
    graph
}

fn build_graph_inner<O>(
    name: &str,
    outcome: &SpeculationOutcome<O>,
    machine: &Machine,
    opts: &GraphOptions,
) -> TaskGraph {
    let cm = *machine.cost_model();
    let config = outcome.config;
    let chunks = outcome.chunks.len();
    let bytes = outcome.state_bytes;
    // Copy tasks are charged for the bytes the protocol *materialized*,
    // not the bytes it logically replicated: under the deep strategy the
    // two totals are equal, so the historical lowering is reproduced
    // bit-for-bit; under copy-on-write each clone point is scaled by the
    // run's measured materialization ratio.
    let copy_bytes = {
        let logical = outcome.bytes_logical();
        let copied = outcome.bytes_copied();
        if logical == 0 {
            bytes
        } else {
            (bytes as u128 * copied as u128 / logical as u128) as usize
        }
    };
    let width = effective_width(&config, &opts.inner, machine.topology().total_cores());
    let breadth = config.spec_breadth.max(1);
    let layout = ThreadLayout {
        chunks,
        extra_states: config.extra_states,
        width,
        breadth,
    };
    let acc = ResourceAccounting::for_config(&config, bytes, width);
    let mut g = TaskGraph::new(name);

    // ---- main thread prologue -------------------------------------------
    let out_before = g.task_full(
        layout.main(),
        Category::OutsideRegion,
        cm.work(opts.outside_work.0),
        opts.outside_work.0 * 2,
        Vec::new(),
        Some("code before STATS".into()),
    );
    let setup = g.task_full(
        layout.main(),
        Category::Setup,
        cm.setup(acc.threads, acc.states, bytes),
        acc.states as u64 * 100 + acc.threads as u64 * 400,
        vec![out_before],
        Some("STATS setup".into()),
    );

    // Per-chunk bookkeeping filled during emission.
    let mut spec_copy: Vec<Option<TaskId>> = vec![None; chunks];
    let mut realized_last: Vec<TaskId> = Vec::with_capacity(chunks);
    // Snapshot copies feeding each boundary's replicas.
    let mut snap_copies: Vec<Vec<TaskId>> = vec![Vec::new(); chunks];
    // Speculative-state hand-offs of the losing breadth candidates; the
    // commit check waits on these alongside the realized candidate's.
    let mut cand_copies: Vec<Vec<TaskId>> = vec![Vec::new(); chunks];
    let mut commit: Vec<Option<TaskId>> = vec![None; chunks];

    let aborted = |c: usize| !opts.assume_all_commit && outcome.chunks[c].aborted();

    // ---- pass 1: worker pipelines (speculative runs) ---------------------
    for c in 0..chunks {
        let ch = &outcome.chunks[c];
        let worker = layout.worker(c);
        let len = ch.range.len();
        let suffix_n = config.lookback.min(len) as u64;
        let prefix_n = (len as u64) - suffix_n;
        // Worker wake-up after setup.
        let wake = g.task_full(
            worker,
            Category::Sync,
            cm.sync_wakeup + cm.sync_block,
            300,
            vec![setup],
            Some(format!("chunk {c} start")),
        );
        let _ = wake;
        // Runtime dispatch: every input of the chunk flows through the
        // STATS runtime's synchronized lists; oversubscribed thread counts
        // (Table I) pay scheduler latency per signal (§III-C).
        let per_update = cm.per_update_sync(acc.threads, machine.topology().total_cores());
        g.task_full(
            worker,
            Category::Sync,
            Cycles(per_update.get() * opts.sync_ops_per_update * len as u64),
            40 * opts.sync_ops_per_update * len as u64,
            Vec::new(),
            Some(format!("runtime dispatch {c}")),
        );
        if let Some(alt) = ch.alt_cost {
            g.task_full(
                worker,
                Category::AltProducer,
                cm.work(alt.work),
                alt.instructions,
                Vec::new(),
                Some(format!("alt producer {c}")),
            );
            // Copy of the speculative state handed to the runtime for the
            // later comparison (Fig. 6).
            let copy = g.task_full(
                worker,
                Category::StateCopy,
                cm.state_copy(machine.topology(), copy_bytes, worker, layout.worker(c - 1)),
                cm.copy_instructions(copy_bytes),
                Vec::new(),
                Some(format!("spec state copy {c}")),
            );
            spec_copy[c] = Some(copy);
        }
        // Losing breadth candidates: each runs its own alternative producer
        // and speculative chunk on a dedicated thread, then hands its start
        // state to the runtime for the commit check. The compute is charged
        // as AbortedCompute — it occupies a core but produces no realized
        // outputs — and is kept under `assume_all_commit`: breadth work is
        // a deliberate hedge, not mispeculation, so the mispeculation-free
        // ceiling still pays for it.
        for (q, cand) in ch.losing_candidates.iter().enumerate() {
            let cthread = layout.candidate(c, q);
            g.task_full(
                cthread,
                Category::Sync,
                cm.sync_wakeup + cm.sync_block,
                300,
                vec![setup],
                Some(format!("candidate {c}.{q} start")),
            );
            g.task_full(
                cthread,
                Category::AltProducer,
                cm.work(cand.alt.work),
                cand.alt.instructions,
                Vec::new(),
                Some(format!("alt candidate {c}.{q}")),
            );
            let copy = g.task_full(
                cthread,
                Category::StateCopy,
                cm.state_copy(
                    machine.topology(),
                    copy_bytes,
                    cthread,
                    layout.worker(c - 1),
                ),
                cm.copy_instructions(copy_bytes),
                Vec::new(),
                Some(format!("candidate state copy {c}.{q}")),
            );
            cand_copies[c].push(copy);
            let total = cand.prefix + cand.suffix;
            g.task_full(
                cthread,
                Category::AbortedCompute,
                cm.work(total.work),
                total.instructions,
                Vec::new(),
                Some(format!("candidate {c}.{q} compute")),
            );
        }
        let compute_cat = if aborted(c) {
            Category::AbortedCompute
        } else {
            Category::ChunkCompute
        };
        let prefix = emit_compute(
            &mut g,
            machine,
            &layout,
            c,
            compute_cat,
            ch.spec_prefix,
            prefix_n,
            &opts.inner,
            &format!("chunk {c} prefix"),
        );
        let _ = prefix;
        // Snapshot copies for this chunk's boundary replicas — only on the
        // realized path; for committed chunks that is the speculative run.
        if !aborted(c) {
            for j in 0..ch.replica_costs.len() {
                let snap = g.task_full(
                    worker,
                    Category::StateCopy,
                    cm.state_copy(machine.topology(), copy_bytes, worker, layout.replica(c, j)),
                    cm.copy_instructions(copy_bytes),
                    Vec::new(),
                    Some(format!("snapshot {c}.{j}")),
                );
                snap_copies[c].push(snap);
            }
        }
        let suffix = emit_compute(
            &mut g,
            machine,
            &layout,
            c,
            compute_cat,
            ch.spec_suffix,
            suffix_n,
            &opts.inner,
            &format!("chunk {c} suffix"),
        );
        realized_last.push(suffix);
        if c == 0 {
            // Chunk 0 needs no validation: a trivial commit record.
            let cmt = g.task_full(
                worker,
                Category::Commit,
                Cycles(200),
                100,
                Vec::new(),
                Some("commit 0".into()),
            );
            commit[0] = Some(cmt);
        }
    }

    // ---- pass 2: boundary validation, commits, re-executions -------------
    for c in 1..chunks {
        let b = c - 1; // producing boundary
        let producer = layout.worker(b);
        let m = outcome.chunks[b].replica_costs.len();

        // Original-state replicas at boundary b. Eagerly they run in
        // parallel on their own threads (Fig. 5's blocks); lazily they
        // chain on one thread and stop at the first matching state.
        let lazy_needed = match outcome.chunks[c].matched_original {
            Some(j) => j, // j replicas were generated before the match
            None => m,    // no match: all replicas were tried
        };
        let mut replica_tasks = Vec::with_capacity(m);
        let mut lazy_prev: Option<TaskId> = None;
        for (j, rc) in outcome.chunks[b].replica_costs.iter().enumerate() {
            if opts.lazy_replicas && j >= lazy_needed && !opts.assume_all_commit {
                break;
            }
            let rthread = if opts.lazy_replicas {
                layout.replica(b, 0)
            } else {
                layout.replica(b, j)
            };
            let dep = snap_copies[b].get(j).copied();
            let mut sync_deps: Vec<TaskId> = dep.into_iter().collect();
            if let Some(prev) = lazy_prev {
                sync_deps.push(prev);
            }
            let sync = g.task_full(
                rthread,
                Category::Sync,
                cm.sync_wakeup + cm.sync_block,
                300,
                sync_deps,
                Some(format!("replica {b}.{j} start")),
            );
            let rep = g.task_full(
                rthread,
                Category::OriginalStateGen,
                cm.work(rc.work),
                rc.instructions,
                vec![sync],
                Some(format!("original state {b}.{j}")),
            );
            if opts.lazy_replicas {
                lazy_prev = Some(rep);
            }
            replica_tasks.push(rep);
        }

        // Comparison on the producer's thread, gated by sequential commit
        // order, the speculative-state copy, and the replicas.
        let mut cmp_deps: Vec<TaskId> = Vec::new();
        if let Some(sc) = spec_copy[c] {
            cmp_deps.push(sc);
        }
        cmp_deps.extend(cand_copies[c].iter().copied());
        cmp_deps.extend(replica_tasks.iter().copied());
        if let Some(prev_commit) = commit[b] {
            cmp_deps.push(prev_commit);
        }
        let cmp_sync = g.task_full(
            producer,
            Category::Sync,
            cm.sync_block,
            250,
            cmp_deps,
            Some(format!("await boundary {b}")),
        );
        // The candidate-major check compares each tried candidate against
        // all m+1 originals; the cost model charges the full sweep per
        // tried candidate (it already charged m+1 per chunk at breadth 1
        // despite the early exit inside a candidate's sweep).
        let tried = outcome.chunks[c]
            .matched_candidate
            .map(|w| w as u64 + 1)
            .unwrap_or(breadth as u64);
        let cmp = g.task_full(
            producer,
            Category::StateComparison,
            Cycles(cm.state_compare(bytes).get() * (m as u64 + 1) * tried),
            cm.compare_instructions(bytes) * (m as u64 + 1) * tried,
            vec![cmp_sync],
            Some(format!("compare chunk {c}")),
        );
        let cmt = g.task_full(
            producer,
            Category::Commit,
            Cycles(200),
            100,
            vec![cmp],
            Some(format!("decide chunk {c}")),
        );
        commit[c] = Some(cmt);

        // Abort path: serialized re-execution from the true state.
        if aborted(c) {
            let worker = layout.worker(c);
            let rr_sync = g.task_full(
                worker,
                Category::Sync,
                cm.sync_wakeup + cm.sync_block,
                300,
                vec![cmt],
                Some(format!("abort notify {c}")),
            );
            let _ = rr_sync;
            g.task_full(
                worker,
                Category::StateCopy,
                cm.state_copy(machine.topology(), copy_bytes, producer, worker),
                cm.copy_instructions(copy_bytes),
                Vec::new(),
                Some(format!("true state copy {c}")),
            );
            let (rp, rs) = outcome.chunks[c].rerun.expect("aborted chunk has a rerun");
            let rlen = outcome.chunks[c].range.len();
            let rerun_suffix_n = config.lookback.min(rlen) as u64;
            let rerun_prefix_n = (rlen as u64) - rerun_suffix_n;
            emit_compute(
                &mut g,
                machine,
                &layout,
                c,
                Category::ChunkCompute,
                rp,
                rerun_prefix_n,
                &opts.inner,
                &format!("chunk {c} rerun prefix"),
            );
            for j in 0..outcome.chunks[c].replica_costs.len() {
                let snap = g.task_full(
                    worker,
                    Category::StateCopy,
                    cm.state_copy(machine.topology(), copy_bytes, worker, layout.replica(c, j)),
                    cm.copy_instructions(copy_bytes),
                    Vec::new(),
                    Some(format!("snapshot {c}.{j} (rerun)")),
                );
                snap_copies[c].push(snap);
            }
            let rsuf = emit_compute(
                &mut g,
                machine,
                &layout,
                c,
                Category::ChunkCompute,
                rs,
                rerun_suffix_n,
                &opts.inner,
                &format!("chunk {c} rerun suffix"),
            );
            realized_last[c] = rsuf;
        }
    }

    // ---- main thread epilogue --------------------------------------------
    let mut join_deps: Vec<TaskId> = realized_last.clone();
    if let Some(last_commit) = commit[chunks - 1] {
        join_deps.push(last_commit);
    }
    let join = g.task_full(
        layout.main(),
        Category::Sync,
        Cycles(cm.sync_block.get() * chunks as u64),
        250 * chunks as u64,
        join_deps,
        Some("join workers".into()),
    );
    g.task_full(
        layout.main(),
        Category::OutsideRegion,
        cm.work(opts.outside_work.1),
        opts.outside_work.1 * 2,
        vec![join],
        Some("code after STATS".into()),
    );

    g
}

/// Record the protocol counters and chunk-lifecycle events a threaded run
/// would have recorded live, derived from the semantic outcome.
///
/// The recording points are shared with
/// [`crate::runtime::threaded::run_threaded_on`]: chunk starts,
/// `b` breadth candidates and speculative-state hand-offs per producer,
/// `m` replica snapshots per boundary, the candidate-major ordered
/// comparison count (`w*(1+m) + 1 + i` on a commit won by candidate `w`
/// matching original `i`; `b*(1+m)` on an abort), and one true-state
/// transfer plus [`Config::rerun_segments`] pool segments per abort — so
/// both runtimes report identical protocol totals for the same
/// `(workload, inputs, config, seed)`.
fn record_outcome_telemetry<O>(outcome: &SpeculationOutcome<O>, t: &TelemetrySink) {
    let breadth = outcome.config.spec_breadth.max(1) as u64;
    for (c, ch) in outcome.chunks.iter().enumerate() {
        t.incr(c, Counter::ChunksStarted);
        t.event(&Event::ChunkStarted {
            chunk: c,
            len: ch.range.len(),
        });
        t.add(c, Counter::StateBytesLogical, ch.bytes_logical);
        t.add(c, Counter::StateBytesCopied, ch.bytes_copied);
        if c == 0 {
            continue;
        }
        let m = outcome.chunks[c - 1].replica_costs.len();
        // One speculative-state hand-off per breadth candidate, then one
        // snapshot clone per replica.
        t.add(c, Counter::SpecCandidates, breadth);
        t.add(c, Counter::StateCopies, breadth);
        t.add(c, Counter::ReplicasValidated, m as u64);
        t.add(c, Counter::StateCopies, m as u64);
        let comparisons = match (ch.matched_candidate, ch.matched_original) {
            (Some(w), Some(i)) => (w as u64) * (1 + m as u64) + 1 + i as u64,
            _ => breadth * (1 + m as u64),
        };
        t.add(c, Counter::StateComparisons, comparisons);
        t.event(&Event::ValidationFinished {
            chunk: c,
            comparisons,
            matched_original: ch.matched_original,
        });
        match ch.decision {
            ChunkDecision::Committed => {
                let winner = ch.matched_candidate.expect("committed chunk has a winner");
                t.incr(c, Counter::ChunksCommitted);
                if winner > 0 {
                    t.incr(c, Counter::CandidateHits);
                }
                t.event(&Event::ChunkCommitted { chunk: c });
                t.event(&Event::CandidateCommitted {
                    chunk: c,
                    candidate: winner,
                    original: ch.matched_original.expect("committed chunk matched"),
                });
            }
            ChunkDecision::Aborted => {
                t.incr(c, Counter::ChunksAborted);
                t.incr(c, Counter::Reruns);
                // True-state transfer to the re-executing chunk.
                t.incr(c, Counter::StateCopies);
                t.event(&Event::ChunkAborted { chunk: c });
                let segments = outcome.config.rerun_segments(ch.range.len());
                t.add(c, Counter::RerunSegments, segments as u64);
                for segment in 0..segments {
                    t.event(&Event::RerunSegmentFinished { chunk: c, segment });
                }
                t.event(&Event::RerunFinished { chunk: c });
            }
            ChunkDecision::First => {}
        }
    }
    t.event(&Event::RunFinished {
        committed: outcome
            .chunks
            .iter()
            .filter(|c| c.decision == ChunkDecision::Committed)
            .count(),
        aborted: outcome.aborts(),
        // The simulated lowering schedules one virtual worker per chunk.
        workers: outcome.chunks.len(),
    });
}

/// The simulated STATS runtime: a machine plus the lowering logic.
#[derive(Debug, Clone)]
pub struct SimulatedRuntime {
    machine: Machine,
}

impl SimulatedRuntime {
    /// Create a runtime on the given machine.
    pub fn new(machine: Machine) -> Self {
        SimulatedRuntime { machine }
    }

    /// A runtime on the paper's 28-core machine.
    pub fn paper_machine() -> Self {
        SimulatedRuntime::new(Machine::paper_machine())
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Run `workload` over `inputs` under `config`, producing a full
    /// report: outputs, decisions, instrumented trace, and baselines.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the platform (only possible on an
    /// internal bug: generated graphs are acyclic by construction).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid for `inputs.len()`.
    pub fn run<W: StateDependence>(
        &self,
        name: &str,
        workload: &W,
        inputs: &[W::Input],
        config: Config,
        inner: InnerParallelism,
        master_seed: u64,
    ) -> Result<RunReport<W::Output>, SimError> {
        self.run_observed(name, workload, inputs, config, inner, master_seed, None)
    }

    /// [`SimulatedRuntime::run`] with live telemetry.
    ///
    /// The sink receives the same protocol counters a threaded run records
    /// (derived from the semantic outcome), per-category span accounting
    /// recorded at task-graph lowering time (reconciling 1:1 with the
    /// executed trace), busy/idle cycle totals, and chunk-lifecycle events
    /// if an event log is attached.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the platform.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid for `inputs.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed<W: StateDependence>(
        &self,
        name: &str,
        workload: &W,
        inputs: &[W::Input],
        config: Config,
        inner: InnerParallelism,
        master_seed: u64,
        telemetry: Option<&TelemetrySink>,
    ) -> Result<RunReport<W::Output>, SimError> {
        let outcome = run_speculative(workload, inputs, config, master_seed);
        let opts = GraphOptions {
            inner,
            assume_all_commit: false,
            outside_work: workload.outside_region_work(),
            sync_ops_per_update: workload.sync_ops_per_update(),
            lazy_replicas: false,
        };
        self.run_from_outcome_observed(
            name,
            workload,
            inputs,
            outcome,
            opts,
            master_seed,
            telemetry,
        )
    }

    /// [`SimulatedRuntime::run_observed`] under a fault plan.
    ///
    /// Decisions, outputs, and protocol counters are those of the
    /// fault-free run — injected faults are observationally invisible by
    /// design (every injection fires at task entry, before any protocol
    /// recording, and the clearing attempt records exactly once). The
    /// simulated runtime therefore derives the fault counters and events
    /// post hoc from the plan itself: which injection sites *execute* is a
    /// pure function of (config, chunk plan, decisions), so the derived
    /// totals reconcile exactly with a threaded run under the same plan.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the platform.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid for `inputs.len()`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed_faulted<W: StateDependence>(
        &self,
        name: &str,
        workload: &W,
        inputs: &[W::Input],
        config: Config,
        inner: InnerParallelism,
        master_seed: u64,
        faults: &FaultPlan,
        telemetry: Option<&TelemetrySink>,
    ) -> Result<RunReport<W::Output>, SimError> {
        let report = self.run_observed(
            name,
            workload,
            inputs,
            config,
            inner,
            master_seed,
            telemetry,
        )?;
        if let Some(t) = telemetry {
            let plan = plan_balanced(inputs.len(), config.chunks);
            faults.record_into(t, &config, &plan, &report.decisions);
            t.flush();
        }
        Ok(report)
    }

    /// Lower and execute a precomputed outcome (lets callers reuse one
    /// semantic run across several what-if graphs). `inputs` must be the
    /// same stream the outcome was computed from: it is re-run sequentially
    /// to establish the baseline.
    pub fn run_from_outcome<W: StateDependence>(
        &self,
        name: &str,
        workload: &W,
        inputs: &[W::Input],
        outcome: SpeculationOutcome<W::Output>,
        opts: GraphOptions,
        master_seed: u64,
    ) -> Result<RunReport<W::Output>, SimError> {
        self.run_from_outcome_observed(name, workload, inputs, outcome, opts, master_seed, None)
    }

    /// [`SimulatedRuntime::run_from_outcome`] with live telemetry (see
    /// [`SimulatedRuntime::run_observed`] for what gets recorded).
    #[allow(clippy::too_many_arguments)]
    pub fn run_from_outcome_observed<W: StateDependence>(
        &self,
        name: &str,
        workload: &W,
        inputs: &[W::Input],
        outcome: SpeculationOutcome<W::Output>,
        opts: GraphOptions,
        master_seed: u64,
        telemetry: Option<&TelemetrySink>,
    ) -> Result<RunReport<W::Output>, SimError> {
        let graph = build_task_graph_observed(name, &outcome, &self.machine, &opts, telemetry);
        let execution = self.machine.execute(&graph)?;
        if let Some(t) = telemetry {
            record_outcome_telemetry(&outcome, t);
            // Busy/idle in simulated cycles: span time vs. the rest of the
            // threads' lifetimes up to the makespan.
            let busy: u64 = execution
                .trace
                .spans()
                .iter()
                .map(|s| s.duration().get())
                .sum();
            let lifetime = execution.trace.makespan().get() * execution.trace.thread_count() as u64;
            t.add(0, Counter::BusyTime, busy);
            t.add(0, Counter::IdleTime, lifetime.saturating_sub(busy));
            t.flush();
        }
        let cm = self.machine.cost_model();
        let (seq_cycles, seq_instr) = {
            // The sequential baseline with the same master seed, so
            // nondeterministic per-run costs are honestly sampled.
            let run = run_sequential(workload, inputs, master_seed);
            let outside = opts.outside_work.0 + opts.outside_work.1;
            (
                cm.work(run.cost.work + outside),
                run.cost.instructions + outside * 2,
            )
        };
        let width = effective_width(
            &outcome.config,
            &opts.inner,
            self.machine.topology().total_cores(),
        );
        let accounting =
            ResourceAccounting::for_config(&outcome.config, outcome.state_bytes, width);
        let decisions = outcome.decisions();
        Ok(RunReport {
            outputs: outcome.outputs,
            decisions,
            execution,
            sequential_cycles: seq_cycles,
            sequential_instructions: seq_instr,
            config: outcome.config,
            accounting,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StatsRng;
    use crate::snapshot::SnapshotStrategy;
    use stats_trace::TraceSummary;

    struct Ema {
        decay: f64,
        tolerance: f64,
        outside: (u64, u64),
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
            (*state, UpdateCost::with_work(400_000))
        }
        fn states_match(&self, a: &f64, b: &f64) -> bool {
            (a - b).abs() < self.tolerance
        }
        fn state_bytes(&self) -> usize {
            104
        }
        fn outside_region_work(&self) -> (u64, u64) {
            self.outside
        }
    }

    fn short_memory() -> Ema {
        Ema {
            decay: 0.5,
            tolerance: 0.05,
            outside: (0, 0),
        }
    }

    fn inputs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.05).sin()).collect()
    }

    #[test]
    fn stats_run_speeds_up_and_preserves_output_count() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(560);
        let cfg = Config::stats_only(28, 16, 2);
        let report = rt
            .run("ema", &w, &ins, cfg, InnerParallelism::none(), 42)
            .unwrap();
        assert_eq!(report.outputs.len(), 560);
        assert_eq!(report.aborts(), 0);
        let speedup = report.speedup();
        assert!(
            speedup > 6.0 && speedup < 28.0,
            "expected sublinear parallel speedup, got {speedup}"
        );
        // The paper's core claim: STATS TLP scales with the amount of
        // input. Quadrupling the inputs improves the speedup.
        let big = inputs(2_240);
        let report_big = rt
            .run("ema-big", &w, &big, cfg, InnerParallelism::none(), 42)
            .unwrap();
        assert!(
            report_big.speedup() > speedup * 1.3,
            "speedup should scale with input size: {} vs {speedup}",
            report_big.speedup()
        );
    }

    #[test]
    fn sequential_config_speedup_near_one() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(100);
        let report = rt
            .run(
                "ema-seq",
                &w,
                &ins,
                Config::sequential(),
                InnerParallelism::none(),
                1,
            )
            .unwrap();
        let s = report.speedup();
        assert!(s > 0.9 && s <= 1.01, "speedup {s}");
    }

    #[test]
    fn original_tlp_saturates() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(100);
        let inner = InnerParallelism::amdahl(0.75, usize::MAX);
        let report = rt
            .run("ema-orig", &w, &ins, Config::original_only(), inner, 1)
            .unwrap();
        let s = report.speedup();
        assert!(s > 2.0 && s < 4.5, "Amdahl-limited speedup, got {s}");
    }

    #[test]
    fn trace_contains_every_model_category() {
        let rt = SimulatedRuntime::paper_machine();
        let w = Ema {
            outside: (100_000, 50_000),
            ..short_memory()
        };
        let ins = inputs(280);
        let cfg = Config::stats_only(14, 10, 2);
        let report = rt
            .run("ema-cat", &w, &ins, cfg, InnerParallelism::none(), 3)
            .unwrap();
        let cats = report.execution.trace.cycles_by_category();
        for c in [
            Category::Setup,
            Category::AltProducer,
            Category::OriginalStateGen,
            Category::StateComparison,
            Category::StateCopy,
            Category::Sync,
            Category::ChunkCompute,
            Category::Commit,
            Category::OutsideRegion,
        ] {
            assert!(
                cats.get(&c).map(|x| x.get() > 0).unwrap_or(false),
                "category {c} missing from trace"
            );
        }
    }

    #[test]
    fn aborts_create_aborted_compute_spans() {
        let rt = SimulatedRuntime::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (0, 0),
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1);
        let report = rt
            .run("ema-abort", &w, &ins, cfg, InnerParallelism::none(), 7)
            .unwrap();
        assert!(report.aborts() > 0);
        let cats = report.execution.trace.cycles_by_category();
        assert!(cats.contains_key(&Category::AbortedCompute));
        // Aborts serialize: speedup well below chunk count.
        assert!(report.speedup() < 3.0, "speedup {}", report.speedup());
    }

    #[test]
    fn assume_all_commit_removes_reruns() {
        let machine = Machine::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (0, 0),
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1);
        let outcome = run_speculative(&w, &ins, cfg, 7);
        assert!(outcome.aborts() > 0);
        let with = build_task_graph("with", &outcome, &machine, &GraphOptions::default());
        let without = build_task_graph(
            "without",
            &outcome,
            &machine,
            &GraphOptions {
                assume_all_commit: true,
                ..GraphOptions::default()
            },
        );
        let r_with = machine.execute(&with).unwrap();
        let r_without = machine.execute(&without).unwrap();
        assert!(
            r_without.makespan < r_with.makespan,
            "all-commit must be faster: {} vs {}",
            r_without.makespan,
            r_with.makespan
        );
        let cats = r_without.trace.cycles_by_category();
        assert!(
            !cats.contains_key(&Category::AbortedCompute)
                || cats[&Category::AbortedCompute].get() == 0
        );
    }

    #[test]
    fn combined_mode_uses_shard_threads() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(280);
        let cfg = Config {
            chunks: 14,
            lookback: 10,
            extra_states: 1,
            combine_inner_tlp: true,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        };
        let inner = InnerParallelism::amdahl(0.8, usize::MAX);
        let report = rt.run("ema-combined", &w, &ins, cfg, inner, 5).unwrap();
        // width = 28/14 = 2 -> shard threads exist beyond main+workers+replicas.
        let acc = &report.accounting;
        assert!(acc.threads > 1 + 14 + 13);
        let report_solo = rt
            .run(
                "ema-solo",
                &w,
                &ins,
                Config::stats_only(14, 10, 1),
                inner,
                5,
            )
            .unwrap();
        assert!(
            report.speedup() > report_solo.speedup(),
            "combining TLP should help: {} vs {}",
            report.speedup(),
            report_solo.speedup()
        );
    }

    #[test]
    fn imbalance_shows_up_in_summary() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(290); // 290/28 leaves uneven chunks
        let cfg = Config::stats_only(28, 5, 1);
        let report = rt
            .run("ema-imb", &w, &ins, cfg, InnerParallelism::none(), 2)
            .unwrap();
        let summary = TraceSummary::from_trace(&report.execution.trace);
        assert!(summary.imbalance() > 0.0);
    }

    #[test]
    fn observed_snapshot_reconciles_with_trace() {
        use stats_trace::CATEGORIES;
        let rt = SimulatedRuntime::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (50_000, 10_000),
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1);
        let sink = TelemetrySink::new(cfg.chunks);
        let report = rt
            .run_observed(
                "ema-obs",
                &w,
                &ins,
                cfg,
                InnerParallelism::none(),
                7,
                Some(&sink),
            )
            .unwrap();
        assert!(report.aborts() > 0);
        let snap = sink.snapshot();
        assert!(snap.consistent);

        // Span accounting recorded at lowering time must match the
        // executed trace exactly, per category — counts and cycles.
        let trace = &report.execution.trace;
        for cat in CATEGORIES {
            let trace_spans = trace.spans().iter().filter(|s| s.category == cat).count() as u64;
            let trace_cycles: u64 = trace
                .spans()
                .iter()
                .filter(|s| s.category == cat)
                .map(|s| s.duration().get())
                .sum();
            assert_eq!(snap.category_spans(cat), trace_spans, "{cat} span count");
            assert_eq!(snap.category_cycles(cat), trace_cycles, "{cat} cycles");
        }

        // Protocol counters derive from the same outcome as the decisions.
        assert_eq!(snap.get(Counter::ChunksStarted), cfg.chunks as u64);
        assert_eq!(snap.get(Counter::ChunksAborted), report.aborts() as u64);
        assert_eq!(snap.get(Counter::Reruns), report.aborts() as u64);
        // Busy + idle spans the whole machine-time rectangle.
        assert_eq!(
            snap.get(Counter::BusyTime) + snap.get(Counter::IdleTime),
            trace.makespan().get() * trace.thread_count() as u64
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(140);
        let cfg = Config::stats_only(7, 10, 1);
        let a = rt
            .run("ema-det", &w, &ins, cfg, InnerParallelism::none(), 11)
            .unwrap();
        let b = rt
            .run("ema-det", &w, &ins, cfg, InnerParallelism::none(), 11)
            .unwrap();
        assert_eq!(a.execution.makespan, b.execution.makespan);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.execution.schedule, b.execution.schedule);
    }

    #[test]
    fn more_chunks_more_extra_instructions() {
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(560);
        let few = rt
            .run(
                "few",
                &w,
                &ins,
                Config::stats_only(4, 10, 2),
                InnerParallelism::none(),
                1,
            )
            .unwrap();
        let many = rt
            .run(
                "many",
                &w,
                &ins,
                Config::stats_only(28, 10, 2),
                InnerParallelism::none(),
                1,
            )
            .unwrap();
        assert!(
            many.extra_instruction_percent() > few.extra_instruction_percent(),
            "more TLP means more extra work (Fig. 12/13): {} vs {}",
            many.extra_instruction_percent(),
            few.extra_instruction_percent()
        );
    }

    #[test]
    fn breadth_graph_adds_candidate_threads_and_matches_counter_formulas() {
        let rt = SimulatedRuntime::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (0, 0),
        };
        let ins = inputs(128);
        let b = 3usize;
        let cfg = Config::stats_only(4, 4, 2).with_breadth(b);
        let sink = TelemetrySink::new(cfg.chunks);
        let narrow = rt
            .run(
                "ema-b1",
                &w,
                &ins,
                Config::stats_only(4, 4, 2),
                InnerParallelism::none(),
                7,
            )
            .unwrap();
        let wide = rt
            .run_observed(
                "ema-b3",
                &w,
                &ins,
                cfg,
                InnerParallelism::none(),
                7,
                Some(&sink),
            )
            .unwrap();
        // The losing candidates occupy their own threads after the shard
        // block, so the breadth graph is strictly wider.
        assert!(
            wide.execution.trace.thread_count() > narrow.execution.trace.thread_count(),
            "breadth must add candidate threads: {} vs {}",
            wide.execution.trace.thread_count(),
            narrow.execution.trace.thread_count()
        );
        let snap = sink.snapshot();
        let chunks = cfg.chunks as u64;
        let m = cfg.extra_states as u64;
        let aborts = wide.aborts() as u64;
        assert_eq!(snap.get(Counter::SpecCandidates), (chunks - 1) * b as u64);
        assert_eq!(
            snap.get(Counter::StateCopies),
            (chunks - 1) * (b as u64 + m) + aborts
        );
        // Candidate hits are commits the primary would have lost; they are
        // bounded by the commit count and by the rescued aborts.
        let commits = chunks - 1 - aborts;
        assert!(snap.get(Counter::CandidateHits) <= commits);
        assert!(
            wide.aborts() <= narrow.aborts(),
            "breadth must not add aborts here: {} vs {}",
            wide.aborts(),
            narrow.aborts()
        );
    }

    #[test]
    fn breadth_commits_same_outputs_when_primary_always_wins() {
        // When candidate 0 matches everywhere (no aborts at breadth 1),
        // the candidate-major check commits candidate 0 at any breadth, so
        // outputs are identical and no candidate hits are recorded.
        let rt = SimulatedRuntime::paper_machine();
        let w = short_memory();
        let ins = inputs(280);
        let base = Config::stats_only(14, 10, 2);
        let narrow = rt
            .run("ema-n", &w, &ins, base, InnerParallelism::none(), 42)
            .unwrap();
        assert_eq!(narrow.aborts(), 0);
        let sink = TelemetrySink::new(base.chunks);
        let wide = rt
            .run_observed(
                "ema-w",
                &w,
                &ins,
                base.with_breadth(2),
                InnerParallelism::none(),
                42,
                Some(&sink),
            )
            .unwrap();
        assert_eq!(wide.outputs, narrow.outputs);
        assert_eq!(wide.aborts(), 0);
        assert_eq!(sink.snapshot().get(Counter::CandidateHits), 0);
    }

    #[test]
    fn assume_all_commit_keeps_dead_candidate_work() {
        // Breadth work is a hedge, not mispeculation: the
        // mispeculation-free ceiling still pays for the losing candidates,
        // so their AbortedCompute spans survive `assume_all_commit`.
        let machine = Machine::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (0, 0),
        };
        let ins = inputs(128);
        let cfg = Config::stats_only(4, 4, 1).with_breadth(2);
        let outcome = run_speculative(&w, &ins, cfg, 7);
        let graph = build_task_graph(
            "ceiling",
            &outcome,
            &machine,
            &GraphOptions {
                assume_all_commit: true,
                ..GraphOptions::default()
            },
        );
        let r = machine.execute(&graph).unwrap();
        let cats = r.trace.cycles_by_category();
        assert!(
            cats.get(&Category::AbortedCompute)
                .map(|x| x.get() > 0)
                .unwrap_or(false),
            "losing candidates must survive assume_all_commit"
        );
    }

    #[test]
    fn overlap_rerun_is_a_noop_in_the_simulated_graph() {
        // The simulated lowering already overlaps an aborted boundary's
        // replicas with the rerun suffix via the snapshot-copy deps, so
        // `overlap_rerun` changes only the RerunSegments accounting.
        let rt = SimulatedRuntime::paper_machine();
        let w = Ema {
            decay: 0.999,
            tolerance: 1e-7,
            outside: (0, 0),
        };
        let ins = inputs(128);
        let base = Config::stats_only(4, 4, 2);
        let serial_sink = TelemetrySink::new(base.chunks);
        let overlap_sink = TelemetrySink::new(base.chunks);
        let serial = rt
            .run_observed(
                "ema-serial",
                &w,
                &ins,
                base,
                InnerParallelism::none(),
                7,
                Some(&serial_sink),
            )
            .unwrap();
        let overlap = rt
            .run_observed(
                "ema-overlap",
                &w,
                &ins,
                base.with_overlap(true),
                InnerParallelism::none(),
                7,
                Some(&overlap_sink),
            )
            .unwrap();
        assert!(serial.aborts() > 0);
        assert_eq!(serial.aborts(), overlap.aborts());
        assert_eq!(serial.outputs, overlap.outputs);
        assert_eq!(serial.execution.makespan, overlap.execution.makespan);
        assert_eq!(serial.execution.schedule, overlap.execution.schedule);
        let aborts = serial.aborts() as u64;
        assert_eq!(
            serial_sink.snapshot().get(Counter::RerunSegments),
            aborts,
            "serialized reruns are one segment each"
        );
        assert_eq!(
            overlap_sink.snapshot().get(Counter::RerunSegments),
            2 * aborts,
            "overlapped reruns split in two (chunks longer than lookback)"
        );
    }

    #[test]
    fn effective_width_rules() {
        let inner = InnerParallelism::amdahl(0.8, usize::MAX);
        let combined = Config {
            chunks: 14,
            lookback: 1,
            extra_states: 0,
            combine_inner_tlp: true,
            snapshot: SnapshotStrategy::DeepClone,
            spec_breadth: 1,
            overlap_rerun: false,
        };
        assert_eq!(effective_width(&combined, &inner, 28), 2);
        assert_eq!(
            effective_width(&Config::stats_only(14, 1, 0), &inner, 28),
            1
        );
        assert_eq!(effective_width(&Config::original_only(), &inner, 28), 28);
        assert_eq!(
            effective_width(&Config::original_only(), &InnerParallelism::none(), 28),
            1
        );
    }
}
