//! Native speedup-over-sequential benchmark with a per-layer protocol
//! ledger.
//!
//! ```text
//! perfbench --workload <swaptions|bodytrack|facetrack-abort> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The seed derives several input streams; each stream's seed
//! generates its inputs and is the protocol's master seed on it. Set-up
//! (input generation, pool creation, one warm-up run) is
//! repeated and timed; then, for `--seconds`, the benchmark either
//! measures the end-to-end metrics with no telemetry attached
//! (`--trace 0`, see [`e2e`]) or times each layer's public entry points
//! (`--trace 1`, see [`layers`]). Every parallel result is checked against
//! `run_speculative` with the same seed. Human-readable lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when no
//! operation failed.

mod e2e;
mod host;
mod layers;
mod measure;
mod probe;

use measure::{Gate, Reference, Spans};
use stats_core::runtime::pool::WorkerPool;
use stats_core::runtime::threaded::run_threaded_on;
use stats_core::speculation::{run_speculative, SpeculationOutcome};
use stats_core::{ChunkDecision, Config, SnapshotStrategy};
use stats_telemetry::clock::monotonic_ns;
use stats_telemetry::json::{escape, JsonObject};
use stats_workloads::bodytrack::BodyTrack;
use stats_workloads::facetrack::FaceTrack;
use stats_workloads::swaptions::Swaptions;
use stats_workloads::Workload;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <swaptions|bodytrack|facetrack-abort> --seed <n> --seconds <s> --trace <0|1>";

/// Cores of the paper's machine; the tuned configurations target it.
const PAPER_CORES: usize = 28;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One measured quantity, printed by name with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The commit/abort decision of every chunk of a protocol run.
pub fn decisions<O>(outcome: &SpeculationOutcome<O>) -> Vec<ChunkDecision> {
    outcome.chunks.iter().map(|c| c.decision).collect()
}

/// One input stream of a run, with the semantic protocol's run on it.
pub struct Stream<W: Workload> {
    /// Seeds both the inputs and the protocol's random streams.
    pub seed: u64,
    pub inputs: Vec<W::Input>,
    pub outcome: SpeculationOutcome<W::Output>,
    pub reference: Reference,
}

/// A workload of the benchmark, ready to measure: a paper benchmark at a
/// scale under one STATS configuration, on several input streams.
pub struct Bench<'a, W: Workload> {
    pub w: &'a W,
    pub config: Config,
    /// Pool width: one worker per core, but no more than there are chunks.
    pub width: usize,
    /// The set-up's full-width pool, reused by every parallel run.
    pub pool: WorkerPool,
    pub streams: Vec<Stream<W>>,
    /// Seconds taken by each set-up.
    pub setup_s: Vec<f64>,
}

impl<W: Workload> Bench<'_, W> {
    /// Count one run on `stream`, which must reproduce the stream's
    /// reference exactly.
    pub fn check(
        &self,
        gate: &mut Gate,
        what: &str,
        stream: &Stream<W>,
        decisions: &[ChunkDecision],
        outputs: &[W::Output],
    ) {
        let quality = self.w.quality(&stream.inputs, outputs);
        gate.check_run(what, &stream.reference, decisions, outputs.len(), quality);
    }
}

/// Generate every stream's inputs, create the pool and warm it up with
/// one parallel run, `SETUP_REPS` times, keeping the last set-up; then
/// run the semantic protocol on each stream for reference.
fn set_up<'a, W: Workload>(
    w: &'a W,
    shape: &Shape,
    seed: u64,
    spans: &mut Spans,
    gate: &mut Gate,
) -> Bench<'a, W> {
    let (n, config) = (shape.inputs(w), shape.config);
    let width = shape.width();
    let seeds: Vec<u64> = (0..shape.streams)
        .map(|i| seed.wrapping_mul(shape.streams).wrapping_add(i))
        .collect();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t0 = monotonic_ns();
        let inputs: Vec<Vec<W::Input>> = seeds
            .iter()
            .map(|&s| spans.time(layers::GENERATE, || w.generate_inputs(n, s)).1)
            .collect();
        let (_, pool) = spans.time(layers::POOL_NEW, || WorkerPool::new(width));
        let (_, warm) = spans.time("threaded.warm_up", || {
            run_threaded_on(&pool, w, &inputs[0], config, seeds[0], None)
        });
        setup_s.push((monotonic_ns() - t0) as f64 / 1e9);
        // The previous set-up is dropped here, outside the timed span.
        kept = Some((inputs, pool, warm));
    }
    let (inputs, pool, warm) = kept.expect("at least one set-up");
    let streams: Vec<Stream<W>> = seeds
        .into_iter()
        .zip(inputs)
        .map(|(seed, inputs)| {
            let outcome = run_speculative(w, &inputs, config, seed);
            let reference = Reference {
                decisions: decisions(&outcome),
                outputs: outcome.outputs.len(),
                quality: w.quality(&inputs, &outcome.outputs),
            };
            Stream {
                seed,
                inputs,
                outcome,
                reference,
            }
        })
        .collect();
    let bench = Bench {
        w,
        config,
        width,
        pool,
        streams,
        setup_s,
    };
    bench.check(
        gate,
        "warm-up run",
        &bench.streams[0],
        &warm.decisions,
        &warm.outputs,
    );
    bench
}

/// How a workload of the benchmark runs a paper benchmark.
struct Shape {
    /// Fraction of the benchmark's native input count.
    scale: f64,
    config: Config,
    /// Input streams per run, derived from the seed. Quality and abort
    /// counts differ from one stream to the next, so a run pools several
    /// to keep its figures close to those of a run on another seed.
    streams: u64,
}

impl Shape {
    fn inputs<W: Workload>(&self, w: &W) -> usize {
        (w.native_input_count() as f64 * self.scale).round() as usize
    }

    /// Pool width: one worker per core, but no more than there are chunks.
    fn width(&self) -> usize {
        host::nproc().min(self.config.chunks).max(1)
    }
}

fn fingerprint(args: &Args, shape: &Shape, n: usize) -> String {
    let config = &shape.config;
    let mut cfg = JsonObject::new();
    cfg.u64("chunks", config.chunks as u64)
        .u64("lookback", config.lookback as u64)
        .u64("extra_states", config.extra_states as u64)
        .str("snapshot", config.snapshot.token())
        .u64("spec_breadth", config.spec_breadth as u64)
        .bool("overlap_rerun", config.overlap_rerun);
    let mut o = JsonObject::new();
    o.u64("nproc", host::nproc() as u64)
        .str("cpu_model", &host::cpu_model())
        .str("git_rev", &host::git_rev())
        .str("rustc", host::rustc_version())
        .u64("seed", args.seed)
        .str("workload", &args.workload)
        .f64("scale", shape.scale)
        .u64("inputs", n as u64)
        .u64("streams", shape.streams)
        .u64("pool_width", shape.width() as u64)
        .raw("config", &cfg.finish());
    o.finish()
}

fn measure<W: Workload>(w: &W, shape: Shape, args: &Args) -> Result<Gate, String> {
    let n = shape.inputs(w);
    shape
        .config
        .validate(n)
        .map_err(|e| format!("configuration invalid for {n} inputs: {e}"))?;
    println!("# host {}", fingerprint(args, &shape, n));

    let mut spans = Spans::default();
    let mut gate = Gate::default();
    let bench = set_up(w, &shape, args.seed, &mut spans, &mut gate);
    let metrics = if args.trace {
        layers::per_layer(&bench, &mut spans, &mut gate, args.seconds)?
    } else {
        e2e::end_to_end(&bench, &mut spans, &mut gate, args.seconds)?
    };
    if args.trace {
        print!("{}", spans.summary());
    }

    let mut json = String::from("{");
    for (i, m) in metrics.0.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        println!("{:<36} {:>16} {}", m.name, m.value, m.unit);
        let mut o = JsonObject::new();
        o.f64("value", m.value).str("unit", m.unit);
        let sep = if i == 0 { "" } else { "," };
        json.push_str(&format!("{sep}\"{}\":{}", escape(&m.name), o.finish()));
    }
    json.push('}');
    let mut result = JsonObject::new();
    result
        .bool("correct", gate.failed == 0)
        .u64("attempted", gate.attempted)
        .u64("failed", gate.failed)
        .raw("metrics", &json);
    println!("{}", result.finish());
    Ok(gate)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Why these three workloads: see README.md in this directory.
    let measured = match args.workload.as_str() {
        "swaptions" => {
            let w = Swaptions::paper();
            let config = w.tuned_config(PAPER_CORES);
            measure(
                &w,
                Shape {
                    scale: 0.25,
                    config,
                    streams: 16,
                },
                &args,
            )
        }
        "bodytrack" => {
            let w = BodyTrack::paper();
            let config = w.tuned_config(PAPER_CORES);
            measure(
                &w,
                Shape {
                    scale: 0.25,
                    config,
                    streams: 16,
                },
                &args,
            )
        }
        "facetrack-abort" => {
            let w = FaceTrack::paper();
            let config = Config {
                chunks: 14,
                ..w.tuned_config(PAPER_CORES)
            }
            .with_snapshot(SnapshotStrategy::CopyOnWrite);
            // Its quality and abort count vary most between streams.
            measure(
                &w,
                Shape {
                    scale: 1.0,
                    config,
                    streams: 32,
                },
                &args,
            )
        }
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match measured {
        Ok(gate) if gate.failed == 0 => ExitCode::SUCCESS,
        Ok(gate) => {
            eprintln!(
                "perfbench: {} of {} operations failed",
                gate.failed, gate.attempted
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
