//! Exporters: Prometheus text exposition, a human-readable table, and a
//! folded-stacks profile consumable by standard flamegraph tooling.

use crate::counters::{Counter, COUNTERS};
use crate::sink::Snapshot;
use stats_trace::{Trace, CATEGORIES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prometheus text-exposition rendering of a snapshot.
///
/// Counters are exported as `stats_<name>_total` with a `worker` label per
/// shard; the queue high-water mark and snapshot health indicators are
/// gauges. The output follows the text format's `# HELP`/`# TYPE` comment
/// conventions so it can be served from a scrape endpoint or written to a
/// textfile-collector drop directory unchanged.
pub fn prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for &counter in &COUNTERS {
        let name = format!("stats_{}_total", counter.name());
        let _ = writeln!(out, "# HELP {name} {}", counter_help(counter));
        let _ = writeln!(out, "# TYPE {name} counter");
        for w in 0..snapshot.workers() {
            let _ = writeln!(
                out,
                "{name}{{worker=\"{w}\"}} {}",
                snapshot.worker(w, counter)
            );
        }
    }
    let _ = writeln!(
        out,
        "# HELP stats_queue_high_water Highest validation-queue depth observed"
    );
    let _ = writeln!(out, "# TYPE stats_queue_high_water gauge");
    let _ = writeln!(out, "stats_queue_high_water {}", snapshot.queue_high_water);
    for c in &snapshot.categories {
        let _ = writeln!(
            out,
            "stats_category_spans_total{{category=\"{}\"}} {}",
            c.category.name(),
            c.spans
        );
        let _ = writeln!(
            out,
            "stats_category_cycles_total{{category=\"{}\"}} {}",
            c.category.name(),
            c.cycles
        );
    }
    let _ = writeln!(
        out,
        "# HELP stats_snapshot_consistent 1 when the double-read converged"
    );
    let _ = writeln!(out, "# TYPE stats_snapshot_consistent gauge");
    let _ = writeln!(
        out,
        "stats_snapshot_consistent {}",
        u64::from(snapshot.consistent)
    );
    let _ = writeln!(
        out,
        "stats_events_emitted_total {}",
        snapshot.events_emitted
    );
    let _ = writeln!(
        out,
        "stats_events_dropped_total {}",
        snapshot.events_dropped
    );
    out
}

fn counter_help(counter: Counter) -> &'static str {
    match counter {
        Counter::ChunksStarted => "Chunks whose (speculative or first) run began",
        Counter::ChunksCommitted => "Chunks whose speculation validated and committed",
        Counter::ChunksAborted => "Chunks whose speculation aborted",
        Counter::Reruns => "Serialized re-executions after an abort",
        Counter::RerunSegments => "Pool-scheduled segments the reruns split into",
        Counter::SpecCandidates => "Breadth candidates launched for speculative chunks",
        Counter::CandidateHits => "Commits won by a non-primary breadth candidate",
        Counter::ReplicasValidated => "Extra original states generated for validation",
        Counter::StateCopies => "Computational-state clones at protocol points",
        Counter::StateComparisons => "states_match evaluations during validation",
        Counter::StateBytesLogical => "Bytes logically replicated (state size x copy events)",
        Counter::StateBytesCopied => "Bytes physically copied by snapshots and COW faults",
        Counter::BusyTime => "Worker compute time (ns threaded, cycles simulated)",
        Counter::IdleTime => "Worker protocol-wait time (cycles, simulated runtime only)",
        Counter::FaultsInjected => "Fault-plan injections that fired (one per failed attempt)",
        Counter::RetriesScheduled => "Retries scheduled by the fault-recovery guards",
        Counter::WorkersLost => "Pool workers doomed by injected worker-death faults",
    }
}

/// Human-readable metrics table (the `stats metrics` view).
pub fn table(snapshot: &Snapshot) -> String {
    let width = COUNTERS
        .iter()
        .map(|c| c.name().len())
        .max()
        .unwrap_or(0)
        .max("queue_high_water".len());
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$}  total", "counter");
    for &counter in &COUNTERS {
        let _ = writeln!(out, "{:<width$}  {}", counter.name(), snapshot.get(counter));
    }
    let _ = writeln!(
        out,
        "{:<width$}  {}",
        "queue_high_water", snapshot.queue_high_water
    );
    let _ = writeln!(
        out,
        "{:<width$}  {:.3}",
        "commit_rate",
        snapshot.commit_rate()
    );
    if !snapshot.categories.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<width$}  spans  cycles", "category");
        for c in &snapshot.categories {
            let _ = writeln!(
                out,
                "{:<width$}  {:<5}  {}",
                c.category.name(),
                c.spans,
                c.cycles
            );
        }
    }
    if !snapshot.consistent {
        let _ = writeln!(out, "(snapshot torn: taken under concurrent recording)");
    }
    out
}

/// Folded-stacks (flamegraph-collapsed) profile of a trace.
///
/// One line per `(thread, category)` with cycle totals:
/// `scenario;thread 3;state-comparison 1234`. The format is what
/// `flamegraph.pl` / `inferno-flamegraph` consume, so a simulated-run trace
/// can be turned into a flame graph with stock tooling. Lines follow the
/// canonical category presentation order within each thread.
pub fn folded(trace: &Trace) -> String {
    let mut per: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for span in trace.spans() {
        let cat_pos = CATEGORIES
            .iter()
            .position(|c| *c == span.category)
            .expect("span category listed in CATEGORIES");
        *per.entry((span.thread.0, cat_pos)).or_insert(0) += span.duration().get();
    }
    let scenario = if trace.meta().scenario.is_empty() {
        "stats"
    } else {
        &trace.meta().scenario
    };
    // Folded-stack frames are ';'- and ' '-delimited; sanitize the scenario
    // so benchmark names can never break the format.
    let scenario: String = scenario
        .chars()
        .map(|c| if c == ';' || c == ' ' { '_' } else { c })
        .collect();
    let mut out = String::new();
    for ((thread, cat_pos), cycles) in per {
        let _ = writeln!(
            out,
            "{scenario};thread {thread};{} {cycles}",
            CATEGORIES[cat_pos].name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TelemetrySink;
    use stats_trace::{Category, Cycles, ThreadId, TraceBuilder};

    fn sample_snapshot() -> Snapshot {
        let sink = TelemetrySink::new(2);
        sink.incr(0, Counter::ChunksStarted);
        sink.incr(1, Counter::ChunksStarted);
        sink.incr(0, Counter::ChunksCommitted);
        sink.add(1, Counter::StateComparisons, 4);
        sink.record_span(Category::Sync, Cycles(17));
        sink.queue_enter();
        sink.snapshot()
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE stats_chunks_started_total counter"));
        assert!(text.contains("stats_chunks_started_total{worker=\"0\"} 1"));
        assert!(text.contains("stats_chunks_started_total{worker=\"1\"} 1"));
        assert!(text.contains("stats_state_comparisons_total{worker=\"1\"} 4"));
        assert!(text.contains("stats_queue_high_water 1"));
        assert!(text.contains("stats_category_cycles_total{category=\"sync\"} 17"));
        assert!(text.contains("stats_snapshot_consistent 1"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(parts.next().unwrap().starts_with("stats_"));
        }
    }

    #[test]
    fn table_lists_every_counter() {
        let text = table(&sample_snapshot());
        for c in COUNTERS {
            assert!(text.contains(c.name()), "missing {}", c.name());
        }
        assert!(text.contains("queue_high_water"));
        assert!(text.contains("commit_rate"));
        assert!(text.contains("sync"));
        assert!(!text.contains("torn"));
    }

    #[test]
    fn folded_stacks_aggregate_per_thread_and_category() {
        let mut b = TraceBuilder::new("swaptions run");
        b.push(ThreadId(0), Category::Setup, Cycles(0), Cycles(10), 0);
        b.push(
            ThreadId(0),
            Category::ChunkCompute,
            Cycles(10),
            Cycles(110),
            0,
        );
        b.push(
            ThreadId(0),
            Category::ChunkCompute,
            Cycles(110),
            Cycles(160),
            0,
        );
        b.push(ThreadId(1), Category::Sync, Cycles(0), Cycles(30), 0);
        let trace = b.finish().unwrap();
        let text = folded(&trace);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "swaptions_run;thread 0;setup 10",
                "swaptions_run;thread 0;chunk-compute 150",
                "swaptions_run;thread 1;sync 30",
            ]
        );
    }

    #[test]
    fn folded_stacks_empty_trace() {
        let trace = TraceBuilder::new("empty").finish().unwrap();
        assert_eq!(folded(&trace), "");
    }
}
