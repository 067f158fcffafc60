//! End-to-end metrics, measured with no telemetry attached.
//!
//! Each round takes one input stream and times one sequential run, one
//! parallel run at full pool width and one simulated run on it, rotating
//! their order so drift on a shared host falls on all three alike.
//! `speedup` is the ratio of medians; `output_quality` is the mean over
//! the streams, each exactly reproduced by every parallel run.

use crate::measure::{deadline_after, mean, median, passed, tail, Gate, Spans};
use crate::{host, Bench, Metrics};
use stats_core::runtime::sequential::run_sequential;
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::run_threaded_on;
use stats_workloads::Workload;

const SEQUENTIAL: &str = "sequential.run_sequential";
const PARALLEL: &str = "threaded.run_threaded_on";
const SIMULATE: &str = "simulated.run";

pub fn end_to_end<W: Workload>(
    b: &Bench<W>,
    spans: &mut Spans,
    gate: &mut Gate,
    seconds: f64,
) -> Result<Metrics, String> {
    let deadline = deadline_after(seconds);
    let mut round = 0;
    // Every stream at least once, so every stream's parallel output is
    // checked and scored; then round-robin until the deadline.
    while round < b.streams.len() || !passed(deadline) {
        let s = &b.streams[round % b.streams.len()];
        for step in 0..3 {
            match (round + step) % 3 {
                0 => {
                    let (_, run) =
                        spans.time(SEQUENTIAL, || run_sequential(b.w, &s.inputs, s.seed));
                    gate.expect("sequential run", run.outputs.len() == s.inputs.len());
                }
                1 => {
                    let (_, run) = spans.time(PARALLEL, || {
                        run_threaded_on(&b.pool, b.w, &s.inputs, b.config, s.seed, None)
                    });
                    b.check(gate, "parallel run", s, &run.decisions, &run.outputs);
                }
                _ => {
                    let (_, report) = spans.time(SIMULATE, || {
                        SimulatedRuntime::paper_machine().run(
                            b.w.name(),
                            b.w,
                            &s.inputs,
                            b.config,
                            b.w.inner_parallelism(),
                            s.seed,
                        )
                    });
                    match report {
                        Ok(r) => b.check(gate, "simulated run", s, &r.decisions, &r.outputs),
                        Err(e) => gate.expect(&format!("simulated run ({e})"), false),
                    }
                }
            }
        }
        round += 1;
    }

    let (seq, par, sim) = (spans.ms(SEQUENTIAL), spans.ms(PARALLEL), spans.ms(SIMULATE));
    let (par_tail, tail_pct) = tail(&par);
    println!(
        "# samples: {round} rounds over {} streams; parallel_ms.tail is p{tail_pct:.1} of {} \
         parallel runs",
        b.streams.len(),
        par.len()
    );
    let mut m = Metrics::default();
    m.push("speedup", median(&seq) / median(&par), "x");
    m.push("parallel_ms.p50", median(&par), "ms");
    m.push("parallel_ms.tail", par_tail, "ms");
    m.push("sequential_ms.p50", median(&seq), "ms");
    m.push("simulate_ms.p50", median(&sim), "ms");
    let quality: Vec<f64> = b.streams.iter().map(|s| s.reference.quality).collect();
    m.push("output_quality", mean(&quality), "score");
    m.push("setup_s", median(&b.setup_s), "s");
    m.push("peak_rss_mb", host::peak_rss_mib()?, "MiB");
    Ok(m)
}
