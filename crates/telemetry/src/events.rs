//! The structured JSONL event log.
//!
//! Every lifecycle event of a run — and every autotuner iteration —
//! becomes one JSON object on one line, stamped with a monotonic
//! sequence number so consumers can detect loss and reconstruct order
//! even when lines from concurrent workers interleave in the file.

use crate::json::JsonObject;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One telemetry event. Fields are primitives so the event vocabulary
/// stays independent of the runtime crates (which depend on this one).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A run entered the STATS region.
    RunStarted {
        /// Benchmark or scenario name.
        benchmark: String,
        /// Which runtime executes it (`"threaded"` or `"simulated"`).
        runtime: &'static str,
        /// Input-stream length.
        inputs: usize,
        /// Configured chunk count.
        chunks: usize,
        /// Configured lookback `k`.
        lookback: usize,
        /// Configured extra original states `m`.
        extra_states: usize,
        /// Master seed.
        seed: u64,
    },
    /// A chunk's (speculative or first) run began.
    ChunkStarted {
        /// Chunk index.
        chunk: usize,
        /// Inputs the chunk covers.
        len: usize,
    },
    /// Validation of a chunk's speculative state finished.
    ValidationFinished {
        /// The validated chunk.
        chunk: usize,
        /// `states_match` evaluations performed.
        comparisons: u64,
        /// Which original state matched (0 = producer's final state,
        /// `j` = replica `j-1`); absent on abort.
        matched_original: Option<usize>,
    },
    /// A chunk committed.
    ChunkCommitted {
        /// Chunk index.
        chunk: usize,
    },
    /// A breadth candidate won a chunk's commit check.
    CandidateCommitted {
        /// Chunk index.
        chunk: usize,
        /// Winning candidate index (0 is the primary alternative
        /// producer).
        candidate: usize,
        /// Which original state it matched (0 = producer's final state,
        /// `j` = replica `j-1`).
        original: usize,
    },
    /// A chunk aborted (re-execution follows).
    ChunkAborted {
        /// Chunk index.
        chunk: usize,
    },
    /// An aborted chunk's serialized re-execution finished.
    RerunFinished {
        /// Chunk index.
        chunk: usize,
    },
    /// One pool-scheduled segment of an aborted chunk's re-execution
    /// finished (overlapped abort recovery splits reruns into several).
    RerunSegmentFinished {
        /// Chunk index.
        chunk: usize,
        /// 0-based segment index within the rerun.
        segment: usize,
    },
    /// A fault-plan injection fired in a protocol task.
    FaultInjected {
        /// Chunk the faulted task belongs to (boundary chunk for
        /// replica replays).
        chunk: usize,
        /// Task class (`"chunk"`, `"replica"`, `"rerun"`, `"transfer"`).
        task: &'static str,
        /// Within-class slot: candidate, replica, or segment index.
        index: usize,
        /// 0-based attempt the injection fired on.
        attempt: usize,
        /// Injected fault kind (snake_case).
        kind: &'static str,
    },
    /// A faulted task's bounded-retry recovery cleared.
    RecoveryFinished {
        /// Chunk the recovered task belongs to.
        chunk: usize,
        /// Task class (`"chunk"`, `"replica"`, `"rerun"`, `"transfer"`).
        task: &'static str,
        /// Retries the recovery consumed.
        retries: usize,
    },
    /// The run left the STATS region.
    RunFinished {
        /// Committed chunk count (excludes chunk 0).
        committed: usize,
        /// Aborted chunk count.
        aborted: usize,
        /// Worker parallelism the run executed with: pool width for the
        /// threaded runtime, chunk count for the simulated lowering (one
        /// virtual worker per chunk).
        workers: usize,
    },
    /// The autotuner evaluated one configuration.
    TuneIteration {
        /// 1-based evaluation index.
        iteration: usize,
        /// 0-based ask/tell round the evaluation belongs to.
        batch: usize,
        /// Configuration tried.
        chunks: usize,
        /// Lookback of the configuration.
        lookback: usize,
        /// Extra original states of the configuration.
        extra_states: usize,
        /// Whether inner TLP was combined.
        combine_inner_tlp: bool,
        /// Objective cost (lower is better).
        cost: f64,
        /// Best cost seen so far (including this one).
        best_cost: f64,
    },
    /// One ask/tell round of the batched autotuner finished: the
    /// searcher proposed `proposed` configurations, `evaluated` of them
    /// were fresh (first-seen) and ran the objective, the rest were
    /// answered from the result database.
    TuneBatch {
        /// 0-based ask/tell round index.
        batch: usize,
        /// Configurations the searcher proposed this round.
        proposed: usize,
        /// Fresh configurations that ran the objective.
        evaluated: usize,
        /// Proposals answered from the memoized result database.
        cache_hits: usize,
        /// Worker parallelism the batch was evaluated with (1 when
        /// tuning serially).
        workers: usize,
    },
    /// One tuning evaluation's run-level quality metrics (emitted by
    /// harnesses that re-run or inspect the evaluated configuration).
    TuneEvaluated {
        /// 1-based evaluation index.
        iteration: usize,
        /// Speedup of the evaluated configuration.
        speedup: f64,
        /// Output quality in `(0, 1]`.
        quality: f64,
    },
    /// A tuning session finished; the best configuration was re-run
    /// across several seeds to expose per-run variance (Touati-style
    /// statistical reporting).
    TuneFinished {
        /// Best chunk count.
        chunks: usize,
        /// Best lookback.
        lookback: usize,
        /// Best extra original states.
        extra_states: usize,
        /// Whether inner TLP was combined.
        combine_inner_tlp: bool,
        /// Seeds the best configuration was replayed over.
        seeds: usize,
        /// Mean speedup across those seeds.
        mean_speedup: f64,
        /// Population variance of the speedup across those seeds.
        speedup_variance: f64,
    },
    /// A final counter snapshot, serialized by the caller.
    Snapshot {
        /// The snapshot's JSON rendering ([`crate::Snapshot::to_json`]).
        json: String,
    },
    /// A free-form runtime diagnostic (the telemetry-log replacement for
    /// `println!` in hot paths — see analyzer rule ND006).
    Diagnostic {
        /// Message text.
        message: String,
    },
}

impl Event {
    /// Stable `type` tag of the serialized line.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "run_started",
            Event::ChunkStarted { .. } => "chunk_started",
            Event::ValidationFinished { .. } => "validation_finished",
            Event::ChunkCommitted { .. } => "chunk_committed",
            Event::CandidateCommitted { .. } => "candidate_committed",
            Event::ChunkAborted { .. } => "chunk_aborted",
            Event::RerunFinished { .. } => "rerun_finished",
            Event::RerunSegmentFinished { .. } => "rerun_segment_finished",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RecoveryFinished { .. } => "recovery_finished",
            Event::RunFinished { .. } => "run_finished",
            Event::TuneIteration { .. } => "tune_iteration",
            Event::TuneBatch { .. } => "tune_batch",
            Event::TuneEvaluated { .. } => "tune_evaluated",
            Event::TuneFinished { .. } => "tune_finished",
            Event::Snapshot { .. } => "snapshot",
            Event::Diagnostic { .. } => "diagnostic",
        }
    }

    /// Serialize as one JSON line carrying sequence number `seq`.
    pub fn to_json_line(&self, seq: u64) -> String {
        let mut o = JsonObject::new();
        o.u64("seq", seq).str("type", self.kind());
        match self {
            Event::RunStarted {
                benchmark,
                runtime,
                inputs,
                chunks,
                lookback,
                extra_states,
                seed,
            } => {
                o.str("benchmark", benchmark)
                    .str("runtime", runtime)
                    .u64("inputs", *inputs as u64)
                    .u64("chunks", *chunks as u64)
                    .u64("lookback", *lookback as u64)
                    .u64("extra_states", *extra_states as u64)
                    .u64("seed", *seed);
            }
            Event::ChunkStarted { chunk, len } => {
                o.u64("chunk", *chunk as u64).u64("len", *len as u64);
            }
            Event::ValidationFinished {
                chunk,
                comparisons,
                matched_original,
            } => {
                o.u64("chunk", *chunk as u64)
                    .u64("comparisons", *comparisons);
                match matched_original {
                    Some(j) => o.u64("matched_original", *j as u64),
                    None => o.raw("matched_original", "null"),
                };
            }
            Event::ChunkCommitted { chunk }
            | Event::ChunkAborted { chunk }
            | Event::RerunFinished { chunk } => {
                o.u64("chunk", *chunk as u64);
            }
            Event::CandidateCommitted {
                chunk,
                candidate,
                original,
            } => {
                o.u64("chunk", *chunk as u64)
                    .u64("candidate", *candidate as u64)
                    .u64("original", *original as u64);
            }
            Event::RerunSegmentFinished { chunk, segment } => {
                o.u64("chunk", *chunk as u64)
                    .u64("segment", *segment as u64);
            }
            Event::FaultInjected {
                chunk,
                task,
                index,
                attempt,
                kind,
            } => {
                o.u64("chunk", *chunk as u64)
                    .str("task", task)
                    .u64("index", *index as u64)
                    .u64("attempt", *attempt as u64)
                    .str("kind", kind);
            }
            Event::RecoveryFinished {
                chunk,
                task,
                retries,
            } => {
                o.u64("chunk", *chunk as u64)
                    .str("task", task)
                    .u64("retries", *retries as u64);
            }
            Event::RunFinished {
                committed,
                aborted,
                workers,
            } => {
                o.u64("committed", *committed as u64)
                    .u64("aborted", *aborted as u64)
                    .u64("workers", *workers as u64);
            }
            Event::TuneIteration {
                iteration,
                batch,
                chunks,
                lookback,
                extra_states,
                combine_inner_tlp,
                cost,
                best_cost,
            } => {
                o.u64("iteration", *iteration as u64)
                    .u64("batch", *batch as u64)
                    .u64("chunks", *chunks as u64)
                    .u64("lookback", *lookback as u64)
                    .u64("extra_states", *extra_states as u64)
                    .bool("combine_inner_tlp", *combine_inner_tlp)
                    .f64("cost", *cost)
                    .f64("best_cost", *best_cost);
            }
            Event::TuneBatch {
                batch,
                proposed,
                evaluated,
                cache_hits,
                workers,
            } => {
                o.u64("batch", *batch as u64)
                    .u64("proposed", *proposed as u64)
                    .u64("evaluated", *evaluated as u64)
                    .u64("cache_hits", *cache_hits as u64)
                    .u64("workers", *workers as u64);
            }
            Event::TuneEvaluated {
                iteration,
                speedup,
                quality,
            } => {
                o.u64("iteration", *iteration as u64)
                    .f64("speedup", *speedup)
                    .f64("quality", *quality);
            }
            Event::TuneFinished {
                chunks,
                lookback,
                extra_states,
                combine_inner_tlp,
                seeds,
                mean_speedup,
                speedup_variance,
            } => {
                o.u64("chunks", *chunks as u64)
                    .u64("lookback", *lookback as u64)
                    .u64("extra_states", *extra_states as u64)
                    .bool("combine_inner_tlp", *combine_inner_tlp)
                    .u64("seeds", *seeds as u64)
                    .f64("mean_speedup", *mean_speedup)
                    .f64("speedup_variance", *speedup_variance);
            }
            Event::Snapshot { json } => {
                o.raw("snapshot", json);
            }
            Event::Diagnostic { message } => {
                o.str("message", message);
            }
        }
        o.finish()
    }
}

/// A thread-safe JSONL writer with monotonic sequence numbers.
///
/// Writes are serialized by a mutex — the event vocabulary is per-chunk,
/// not per-update, so the log is far off the hot path; counters cover
/// the per-update volume lock-free.
pub struct EventLog {
    writer: Mutex<Box<dyn Write + Send>>,
    seq: AtomicU64,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl EventLog {
    /// Wrap a writer (a file, a buffer, `std::io::sink()`, …).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        EventLog {
            writer: Mutex::new(writer),
            seq: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Emit one event as one line. I/O failures never panic a worker:
    /// the line is counted as dropped instead (sequence numbers still
    /// advance, so a gap is visible to consumers).
    pub fn emit(&self, event: &Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let line = event.to_json_line(seq);
        let mut w = self.writer.lock().expect("event log writer");
        match writeln!(w, "{line}") {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Lines written successfully.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Lines lost to I/O errors.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flush the underlying writer.
    pub fn flush(&self) {
        let _ = self.writer.lock().expect("event log writer").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use std::sync::Arc;

    /// A `Write` that appends into shared memory (test helper).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RunStarted {
                benchmark: "swap\"tions\n".into(),
                runtime: "threaded",
                inputs: 100,
                chunks: 4,
                lookback: 8,
                extra_states: 2,
                seed: 42,
            },
            Event::ChunkStarted { chunk: 1, len: 25 },
            Event::ValidationFinished {
                chunk: 1,
                comparisons: 3,
                matched_original: Some(2),
            },
            Event::ValidationFinished {
                chunk: 2,
                comparisons: 4,
                matched_original: None,
            },
            Event::ChunkCommitted { chunk: 1 },
            Event::CandidateCommitted {
                chunk: 1,
                candidate: 1,
                original: 2,
            },
            Event::ChunkAborted { chunk: 2 },
            Event::RerunFinished { chunk: 2 },
            Event::RerunSegmentFinished {
                chunk: 2,
                segment: 1,
            },
            Event::FaultInjected {
                chunk: 2,
                task: "replica",
                index: 1,
                attempt: 0,
                kind: "poisoned_snapshot",
            },
            Event::RecoveryFinished {
                chunk: 2,
                task: "replica",
                retries: 1,
            },
            Event::RunFinished {
                committed: 2,
                aborted: 1,
                workers: 4,
            },
            Event::TuneIteration {
                iteration: 1,
                batch: 0,
                chunks: 28,
                lookback: 16,
                extra_states: 2,
                combine_inner_tlp: false,
                cost: 123.0,
                best_cost: 123.0,
            },
            Event::TuneBatch {
                batch: 0,
                proposed: 8,
                evaluated: 6,
                cache_hits: 2,
                workers: 4,
            },
            Event::TuneEvaluated {
                iteration: 1,
                speedup: 9.5,
                quality: 0.98,
            },
            Event::TuneFinished {
                chunks: 28,
                lookback: 16,
                extra_states: 2,
                combine_inner_tlp: true,
                seeds: 5,
                mean_speedup: 9.4,
                speedup_variance: 0.02,
            },
            Event::Snapshot {
                json: "{\"x\":1}".into(),
            },
            Event::Diagnostic {
                message: "queue depth spiked\tto 7".into(),
            },
        ]
    }

    #[test]
    fn every_event_serializes_to_valid_json() {
        for (i, e) in sample_events().iter().enumerate() {
            let line = e.to_json_line(i as u64);
            validate(&line).unwrap_or_else(|err| panic!("{e:?}: {err}\n{line}"));
            assert!(line.contains(&format!("\"seq\":{i}")));
            assert!(line.contains(&format!("\"type\":\"{}\"", e.kind())));
        }
    }

    #[test]
    fn kinds_are_unique_per_variant() {
        let mut kinds: Vec<_> = sample_events().iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        // The sample list covers every variant (one of them twice).
        assert_eq!(
            kinds,
            vec![
                "candidate_committed",
                "chunk_aborted",
                "chunk_committed",
                "chunk_started",
                "diagnostic",
                "fault_injected",
                "recovery_finished",
                "rerun_finished",
                "rerun_segment_finished",
                "run_finished",
                "run_started",
                "snapshot",
                "tune_batch",
                "tune_evaluated",
                "tune_finished",
                "tune_iteration",
                "validation_finished",
            ]
        );
    }

    #[test]
    fn log_lines_are_sequenced_and_parseable() {
        let buf = SharedBuf::default();
        let log = EventLog::new(Box::new(buf.clone()));
        for e in sample_events() {
            log.emit(&e);
        }
        log.flush();
        assert_eq!(log.emitted(), sample_events().len() as u64);
        assert_eq!(log.dropped(), 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (i, line) in lines.iter().enumerate() {
            validate(line).unwrap();
            assert!(line.starts_with(&format!("{{\"seq\":{i},")));
        }
    }

    #[test]
    fn concurrent_emitters_never_interleave_bytes() {
        let buf = SharedBuf::default();
        let log = EventLog::new(Box::new(buf.clone()));
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..200 {
                        log.emit(&Event::ChunkStarted {
                            chunk: t * 1_000 + i,
                            len: 1,
                        });
                    }
                });
            }
        });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let mut seqs = Vec::new();
        for line in text.lines() {
            validate(line).unwrap();
            let seq: u64 = line
                .strip_prefix("{\"seq\":")
                .and_then(|r| r.split(',').next())
                .and_then(|n| n.parse().ok())
                .expect("leading seq field");
            seqs.push(seq);
        }
        seqs.sort_unstable();
        assert_eq!(seqs, (0..800).collect::<Vec<u64>>());
    }

    #[test]
    fn failing_writer_counts_drops() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let log = EventLog::new(Box::new(Failing));
        log.emit(&Event::ChunkStarted { chunk: 0, len: 1 });
        log.emit(&Event::ChunkCommitted { chunk: 0 });
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.emitted(), 0);
    }
}
