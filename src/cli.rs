//! Command-line interface of the `stats` binary.
//!
//! Subcommands:
//!
//! * `run <benchmark>` — execute one benchmark under its tuned (or
//!   overridden) configuration and print a run summary (`--json` for a
//!   machine-readable one, `--telemetry <path>` for a JSONL event log).
//! * `characterize <benchmark>` — the §V-B loss attribution.
//! * `tune <benchmark>` — the Fig. 3 autotuning loop.
//! * `metrics <benchmark>` — run once and render the telemetry snapshot
//!   (`--format table|prometheus|folded|json`).
//! * `figures [ids…]` — regenerate tables/figures (`all` by default).
//! * `export <benchmark> <path>` — write a Chrome-trace JSON of a run.
//! * `profile <benchmark>` — causal profile of the native pooled runtime
//!   (`--workers N --seeds K --format table|json|chrome`); `run` and
//!   `tune` accept `--profile` to attribute their native replays inline.
//!
//! Argument parsing is hand-rolled (the workbench's dependency policy
//! keeps the offline crate set minimal) and unit-tested.

use stats_bench::native_attribution::{profile_workload_faulted, render_profile_table};
use stats_bench::pipeline::{tuned_config, Scale, FIGURE_SEED};
use stats_core::report::ChunkDecision;
use stats_core::runtime::pool::{default_workers, WorkerPool};
use stats_core::runtime::simulated::SimulatedRuntime;
use stats_core::runtime::threaded::{run_threaded_faulted_on, run_threaded_on};
use stats_core::{FaultPlan, FaultSpec, SnapshotStrategy};
use stats_telemetry::json::JsonObject;
use stats_telemetry::{
    export, Counter, Event, Profiler, TelemetrySink, WallAttribution, WallProfile,
};
use stats_workloads::{dispatch, Workload, WorkloadVisitor, EXTENDED_BENCHMARK_NAMES};
use std::fmt;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run <benchmark>`
    Run {
        /// Benchmark name.
        benchmark: String,
        /// Parsed common options.
        opts: Options,
    },
    /// `characterize <benchmark>`
    Characterize {
        /// Benchmark name.
        benchmark: String,
        /// Parsed common options.
        opts: Options,
    },
    /// `tune <benchmark>`
    Tune {
        /// Benchmark name.
        benchmark: String,
        /// Evaluation budget.
        budget: usize,
        /// Parsed common options.
        opts: Options,
    },
    /// `figures [ids…]`
    Figures {
        /// Figure/table identifiers (e.g. `fig09`, `table1`); empty = all.
        ids: Vec<String>,
        /// Parsed common options.
        opts: Options,
    },
    /// `metrics <benchmark> [--format …]`
    Metrics {
        /// Benchmark name.
        benchmark: String,
        /// Output rendering.
        format: MetricsFormat,
        /// Parsed common options.
        opts: Options,
    },
    /// `export <benchmark> <path>`
    Export {
        /// Benchmark name.
        benchmark: String,
        /// Output path for the Chrome-trace JSON.
        path: String,
        /// Parsed common options.
        opts: Options,
    },
    /// `profile <benchmark> [--workers N] [--seeds K] [--format …]`
    Profile {
        /// Benchmark name.
        benchmark: String,
        /// Output rendering.
        format: ProfileFormat,
        /// Number of seeds profiled (mean ± CI aggregation).
        seeds: usize,
        /// Parsed common options.
        opts: Options,
    },
    /// `help`
    Help,
}

/// How `stats metrics` renders the post-run telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Human-readable counter table (the default).
    #[default]
    Table,
    /// Prometheus text exposition format.
    Prometheus,
    /// Folded stacks for `flamegraph.pl` / `inferno-flamegraph`.
    Folded,
    /// The snapshot as one JSON object.
    Json,
}

impl MetricsFormat {
    fn from_arg(s: &str) -> Result<Self, ParseError> {
        match s {
            "table" => Ok(MetricsFormat::Table),
            "prometheus" => Ok(MetricsFormat::Prometheus),
            "folded" => Ok(MetricsFormat::Folded),
            "json" => Ok(MetricsFormat::Json),
            other => Err(ParseError(format!(
                "--format expects table|prometheus|folded|json, got {other:?}"
            ))),
        }
    }
}

/// How `stats profile` renders the causal profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileFormat {
    /// Human-readable attribution + what-if table (the default).
    #[default]
    Table,
    /// The aggregated profile report as one JSON object.
    Json,
    /// Chrome trace-event JSON of the captured wall-clock spans (real
    /// pool threads, named; open in `chrome://tracing` or Perfetto).
    Chrome,
}

impl ProfileFormat {
    fn from_arg(s: &str) -> Result<Self, ParseError> {
        match s {
            "table" => Ok(ProfileFormat::Table),
            "json" => Ok(ProfileFormat::Json),
            "chrome" => Ok(ProfileFormat::Chrome),
            other => Err(ParseError(format!(
                "--format expects table|json|chrome, got {other:?}"
            ))),
        }
    }
}

/// Options shared by the subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Input scale in `(0, 1]`.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Chunk-count override.
    pub chunks: Option<usize>,
    /// Lookback override.
    pub lookback: Option<usize>,
    /// Extra-original-states override.
    pub extra_states: Option<usize>,
    /// Write a JSONL telemetry event log to this path.
    pub telemetry: Option<String>,
    /// Print a machine-readable JSON summary instead of the text one.
    pub json: bool,
    /// Execute natively on a worker pool of this width (run/metrics
    /// record telemetry from the threaded runtime; tune replays the
    /// winner natively). `None` keeps the simulated-only behavior.
    pub workers: Option<usize>,
    /// Attach the wall-clock profiler to native replays (run/tune with
    /// `--workers`) and append a causal attribution to the summary.
    pub profile: bool,
    /// Snapshot-strategy override (`--snapshot deep|cow`). `None` keeps
    /// the benchmark's tuned strategy; on `tune`, `cow` also adds the
    /// snapshot dimension to the searched design space.
    pub snapshot: Option<SnapshotStrategy>,
    /// Speculation-breadth override (`--breadth k`): run k alternative
    /// candidates per speculative chunk. `None` keeps the tuned breadth
    /// (1); on `tune`, any explicit breadth adds the breadth dimension
    /// to the searched design space.
    pub breadth: Option<usize>,
    /// Split each mispeculation rerun into pool segments so recovery
    /// overlaps with downstream validation (`--overlap-rerun`).
    pub overlap_rerun: bool,
    /// Seeded fault injection into the native run (`--faults COUNT[@SEED]`):
    /// the plan is resolved against the run's configuration, and recovery
    /// must leave decisions/outputs bit-identical.
    pub faults: Option<FaultSpec>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::NATIVE,
            seed: FIGURE_SEED,
            chunks: None,
            lookback: None,
            extra_states: None,
            telemetry: None,
            json: false,
            workers: None,
            profile: false,
            snapshot: None,
            breadth: None,
            overlap_rerun: false,
            faults: None,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
stats — the STATS workload-characterization workbench

USAGE:
  stats run <benchmark> [options]          execute one benchmark
  stats characterize <benchmark> [options] attribute its speedup losses
  stats tune <benchmark> [--budget N] [options]
  stats metrics <benchmark> [--format F] [options]
  stats figures [fig09 fig10 … ablations scaling | all] [options]
  stats export <benchmark> <out.json> [options]
  stats profile <benchmark> [--workers N] [--seeds K] [--format F] [options]
  stats help

BENCHMARKS:
  swaptions streamcluster streamclassifier bodytrack facetrack
  facedet-and-track fluidanimate (the excluded negative control)

OPTIONS:
  --scale F        input scale in (0,1]   (default 1.0)
  --seed N         master seed            (default: the figure seed)
  --chunks N       override the tuned chunk count
  --lookback N     override the tuned lookback k
  --extra-states N override the tuned extra original states m
  --snapshot S     chunk-boundary state snapshots: deep | cow
                   (run/metrics/profile: override; tune with cow: the
                   searched design space gains the snapshot dimension)
  --breadth K      run K alternative candidates per speculative chunk
                   (run/metrics/profile: override; tune: the searched
                   design space gains the breadth dimension 1|2|K)
  --overlap-rerun  split mispeculation reruns into pool segments so
                   recovery overlaps with downstream validation
  --faults C[@S]   inject C seeded recoverable faults (plan seed S,
                   default 0) into the native run; recovery must leave
                   results bit-identical (run with --workers; profile)
  --budget N       tuning evaluations     (default 80; tune only)
  --telemetry PATH write a JSONL telemetry event log (run/tune)
  --json           machine-readable run summary   (run only)
  --format F       metrics rendering: table | prometheus | folded | json
                   profile rendering: table | json | chrome
  --seeds K        seeds profiled for mean ± CI   (default 3; profile only)
  --profile        attribute the native replay's wall-clock speedup loss
                   (run/tune with --workers; `stats profile` is the
                   multi-seed version under the benchmark's tuned config)
  --workers N      use an N-wide worker pool (one pool per invocation)
                   (run/metrics: native execution, telemetry from the
                   threaded runtime; tune: the design-space search is
                   sharded across the pool, the winner's seed-ensemble
                   replay too, and the winner is replayed natively;
                   folded metrics keep using the simulated trace)
";

/// Everything `parse_options` extracts besides the shared [`Options`]:
/// positionals plus the subcommand-specific flags.
struct ParsedArgs {
    opts: Options,
    positional: Vec<String>,
    budget: usize,
    /// Raw `--format` value; each subcommand accepts a different set, so
    /// conversion happens once the subcommand is known.
    format: Option<String>,
    seeds: usize,
}

fn parse_options(args: &[String]) -> Result<ParsedArgs, ParseError> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut budget = 80usize;
    let mut format = None;
    let mut seeds = 3usize;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut take_value = |name: &str| -> Result<String, ParseError> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| ParseError(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--scale" => {
                let v: f64 = take_value("--scale")?
                    .parse()
                    .map_err(|_| ParseError("--scale expects a number".into()))?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(ParseError("--scale must be in (0, 1]".into()));
                }
                opts.scale = Scale(v);
            }
            "--seed" => {
                opts.seed = take_value("--seed")?
                    .parse()
                    .map_err(|_| ParseError("--seed expects an integer".into()))?;
            }
            "--chunks" => {
                opts.chunks = Some(
                    take_value("--chunks")?
                        .parse()
                        .map_err(|_| ParseError("--chunks expects an integer".into()))?,
                );
            }
            "--lookback" => {
                opts.lookback = Some(
                    take_value("--lookback")?
                        .parse()
                        .map_err(|_| ParseError("--lookback expects an integer".into()))?,
                );
            }
            "--extra-states" => {
                opts.extra_states = Some(
                    take_value("--extra-states")?
                        .parse()
                        .map_err(|_| ParseError("--extra-states expects an integer".into()))?,
                );
            }
            "--budget" => {
                budget = take_value("--budget")?
                    .parse()
                    .map_err(|_| ParseError("--budget expects an integer".into()))?;
            }
            "--telemetry" => {
                opts.telemetry = Some(take_value("--telemetry")?);
            }
            "--workers" => {
                let n: usize = take_value("--workers")?
                    .parse()
                    .map_err(|_| ParseError("--workers expects an integer".into()))?;
                if n == 0 {
                    return Err(ParseError("--workers must be at least 1".into()));
                }
                opts.workers = Some(n);
            }
            "--json" => {
                opts.json = true;
            }
            "--profile" => {
                opts.profile = true;
            }
            "--snapshot" => {
                opts.snapshot =
                    Some(SnapshotStrategy::parse(&take_value("--snapshot")?).map_err(ParseError)?);
            }
            "--breadth" => {
                let k: usize = take_value("--breadth")?
                    .parse()
                    .map_err(|_| ParseError("--breadth expects an integer".into()))?;
                if k == 0 {
                    return Err(ParseError("--breadth must be at least 1".into()));
                }
                opts.breadth = Some(k);
            }
            "--overlap-rerun" => {
                opts.overlap_rerun = true;
            }
            "--faults" => {
                opts.faults = Some(FaultSpec::parse(&take_value("--faults")?).map_err(ParseError)?);
            }
            "--seeds" => {
                seeds = take_value("--seeds")?
                    .parse()
                    .map_err(|_| ParseError("--seeds expects an integer".into()))?;
                if seeds == 0 {
                    return Err(ParseError("--seeds must be at least 1".into()));
                }
            }
            "--format" => {
                format = Some(take_value("--format")?);
            }
            other if other.starts_with("--") => {
                return Err(ParseError(format!("unknown option {other}")));
            }
            _ => positional.push(arg.clone()),
        }
        i += 1;
    }
    Ok(ParsedArgs {
        opts,
        positional,
        budget,
        format,
        seeds,
    })
}

fn expect_benchmark(positional: &[String]) -> Result<String, ParseError> {
    let name = positional
        .first()
        .ok_or_else(|| ParseError("missing benchmark name".into()))?;
    if !EXTENDED_BENCHMARK_NAMES.contains(&name.as_str()) {
        return Err(ParseError(format!(
            "unknown benchmark {name:?}; choose one of {EXTENDED_BENCHMARK_NAMES:?}"
        )));
    }
    Ok(name.clone())
}

/// Parse a full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let ParsedArgs {
        opts,
        positional,
        budget,
        format,
        seeds,
    } = parse_options(rest)?;
    if opts.profile && opts.workers.is_none() && matches!(sub.as_str(), "run" | "tune") {
        return Err(ParseError(
            "--profile attributes the native replay, so it requires --workers".into(),
        ));
    }
    if opts.faults.is_some() && opts.workers.is_none() && sub == "run" {
        return Err(ParseError(
            "--faults injects into the native pooled runtime, so it requires --workers".into(),
        ));
    }
    if opts.faults.is_some() && !matches!(sub.as_str(), "run" | "profile") {
        return Err(ParseError(
            "--faults applies to run and profile only".into(),
        ));
    }
    match sub.as_str() {
        "run" => Ok(Command::Run {
            benchmark: expect_benchmark(&positional)?,
            opts,
        }),
        "characterize" => Ok(Command::Characterize {
            benchmark: expect_benchmark(&positional)?,
            opts,
        }),
        "tune" => Ok(Command::Tune {
            benchmark: expect_benchmark(&positional)?,
            budget,
            opts,
        }),
        "metrics" => Ok(Command::Metrics {
            benchmark: expect_benchmark(&positional)?,
            format: match format.as_deref() {
                Some(s) => MetricsFormat::from_arg(s)?,
                None => MetricsFormat::default(),
            },
            opts,
        }),
        "profile" => Ok(Command::Profile {
            benchmark: expect_benchmark(&positional)?,
            format: match format.as_deref() {
                Some(s) => ProfileFormat::from_arg(s)?,
                None => ProfileFormat::default(),
            },
            seeds,
            opts,
        }),
        "figures" => Ok(Command::Figures {
            ids: positional,
            opts,
        }),
        "export" => {
            let benchmark = expect_benchmark(&positional)?;
            let path = positional
                .get(1)
                .cloned()
                .ok_or_else(|| ParseError("export needs an output path".into()))?;
            Ok(Command::Export {
                benchmark,
                path,
                opts,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown subcommand {other:?}"))),
    }
}

fn config_for<W: Workload>(w: &W, opts: &Options) -> stats_core::Config {
    let mut cfg = tuned_config(w, 28, opts.scale);
    if let Some(c) = opts.chunks {
        cfg.chunks = c;
    }
    if let Some(k) = opts.lookback {
        cfg.lookback = k;
    }
    if let Some(m) = opts.extra_states {
        cfg.extra_states = m;
    }
    if let Some(s) = opts.snapshot {
        cfg.snapshot = s;
    }
    if let Some(k) = opts.breadth {
        cfg.spec_breadth = k;
    }
    if opts.overlap_rerun {
        cfg.overlap_rerun = true;
    }
    stats_bench::pipeline::clamp_config(cfg, opts.scale.inputs_for(w))
}

/// Build the telemetry sink for a run: one counter shard per chunk
/// (the simulated runtime shards protocol counters by chunk index),
/// with a buffered JSONL writer attached when `--telemetry` was given.
fn sink_for(cfg: &stats_core::Config, telemetry: Option<&str>) -> std::io::Result<TelemetrySink> {
    let sink = TelemetrySink::new(cfg.chunks.max(1));
    Ok(match telemetry {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            sink.with_event_writer(Box::new(std::io::BufWriter::new(file)))
        }
        None => sink,
    })
}

/// Attribute one profiled native run (the `--profile` flag): assemble
/// the captured spans into a wall-clock profile and run the causal
/// attribution. `None` when the sink carries no profiler.
fn attribute_native<O>(
    sink: &TelemetrySink,
    run: &stats_core::runtime::threaded::ThreadedRun<O>,
    breadth: usize,
) -> Option<WallAttribution> {
    let prof = sink.profiler()?;
    let aborted = run
        .decisions
        .iter()
        .map(|d| *d == ChunkDecision::Aborted)
        .collect();
    let elapsed_ns = u64::try_from(run.elapsed.as_nanos()).unwrap_or(u64::MAX);
    Some(WallProfile::assemble_with_breadth(prof, aborted, breadth, elapsed_ns).attribute())
}

/// The one-line attribution summary `--profile` appends to run/tune
/// text output.
fn profile_line(a: &WallAttribution) -> String {
    format!(
        "profile:       projected {:.2}x of {:.2}x ideal | dominant loss {} | 2x workers -> {:.2}x\n",
        a.projected,
        a.ideal,
        a.dominant().name(),
        a.whatifs.double_workers,
    )
}

struct RunCmd<'p> {
    opts: Options,
    pool: Option<&'p WorkerPool>,
}

impl WorkloadVisitor for RunCmd<'_> {
    type Output = std::io::Result<String>;
    fn visit<W: Workload>(self, w: &W) -> std::io::Result<String> {
        let cfg = config_for(w, &self.opts);
        let n = self.opts.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, self.opts.seed);
        let mut sink = sink_for(&cfg, self.opts.telemetry.as_deref())?;
        if self.opts.profile {
            if let Some(pool) = self.pool {
                sink = sink.with_profiler(Profiler::new(pool.workers()));
            }
        }
        sink.event(&Event::RunStarted {
            benchmark: w.name().to_string(),
            runtime: if self.opts.workers.is_some() {
                "threaded"
            } else {
                "simulated"
            },
            inputs: n,
            chunks: cfg.chunks,
            lookback: cfg.lookback,
            extra_states: cfg.extra_states,
            seed: self.opts.seed,
        });
        let rt = SimulatedRuntime::paper_machine();
        // With --workers the live telemetry comes from the pooled threaded
        // runtime; the simulated run still supplies the model metrics
        // (speedup, accounting) and the parity cross-check. --faults
        // resolves its seeded plan here and injects into the native run;
        // the parity check below then doubles as the recovery contract.
        let faults = self.opts.faults.map(|spec| spec.plan(&cfg, inputs.len()));
        let native = self.pool.map(|pool| match &faults {
            Some(plan) => {
                run_threaded_faulted_on(pool, w, &inputs, cfg, self.opts.seed, plan, Some(&sink))
            }
            None => run_threaded_on(pool, w, &inputs, cfg, self.opts.seed, Some(&sink)),
        });
        let report = rt
            .run_observed(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                self.opts.seed,
                if native.is_some() { None } else { Some(&sink) },
            )
            .expect("valid configuration");
        let decisions_match = native
            .as_ref()
            .is_none_or(|t| t.decisions == report.decisions);
        let wall = native
            .as_ref()
            .and_then(|t| attribute_native(&sink, t, cfg.spec_breadth));
        let quality = w.quality(&inputs, &report.outputs);
        let snap = sink.snapshot();
        sink.event(&Event::Snapshot {
            json: snap.to_json(),
        });
        sink.flush();
        if self.opts.json {
            let mut o = JsonObject::new();
            o.str("benchmark", w.name())
                .str(
                    "runtime",
                    if native.is_some() {
                        "threaded"
                    } else {
                        "simulated"
                    },
                )
                .u64("inputs", n as u64)
                .f64("scale", self.opts.scale.0)
                .u64("seed", self.opts.seed)
                .u64("chunks", cfg.chunks as u64)
                .u64("lookback", cfg.lookback as u64)
                .u64("extra_states", cfg.extra_states as u64)
                .bool("combine_inner_tlp", cfg.combine_inner_tlp)
                .str("snapshot", cfg.snapshot.token())
                .u64("spec_breadth", cfg.spec_breadth as u64)
                .bool("overlap_rerun", cfg.overlap_rerun)
                .f64("speedup", report.speedup())
                .u64("aborts", report.aborts() as u64)
                .u64("threads", report.accounting.threads as u64)
                .u64("states", report.accounting.states as u64)
                .u64("state_bytes", report.accounting.state_bytes as u64)
                .f64(
                    "extra_instruction_percent",
                    report.extra_instruction_percent(),
                )
                .f64("quality", quality)
                .raw("telemetry", &snap.to_json());
            if let Some(t) = &native {
                o.u64("workers", t.workers as u64)
                    .f64("native_ms", t.elapsed.as_secs_f64() * 1e3)
                    .bool("decisions_match", decisions_match);
            }
            if let Some(plan) = &faults {
                let mut f = JsonObject::new();
                f.u64("planned", plan.injections().len() as u64)
                    .u64("injected", snap.get(Counter::FaultsInjected))
                    .u64("retries", snap.get(Counter::RetriesScheduled))
                    .u64("workers_lost", snap.get(Counter::WorkersLost));
                o.raw("faults", &f.finish());
            }
            if let Some(a) = &wall {
                o.raw("profile", &a.to_json());
            }
            return Ok(format!("{}\n", o.finish()));
        }
        let mut out = format!(
            "benchmark:     {}\n\
             configuration: {}\n\
             inputs:        {} ({}x native)\n\
             speedup:       {:.2}x on 28 cores\n\
             commit:        {} aborts over {} boundaries\n\
             threads:       {} | states: {} x {} B\n\
             extra instructions: {:+.1}%\n\
             output quality: {:.3}\n",
            w.name(),
            cfg,
            n,
            self.opts.scale.0,
            report.speedup(),
            report.aborts(),
            cfg.chunks.saturating_sub(1),
            report.accounting.threads,
            report.accounting.states,
            report.accounting.state_bytes,
            report.extra_instruction_percent(),
            quality,
        );
        if let Some(t) = &native {
            out.push_str(&format!(
                "native:        {:.1} ms on {} pooled workers (decisions {} simulated)\n",
                t.elapsed.as_secs_f64() * 1e3,
                t.workers,
                if decisions_match {
                    "match"
                } else {
                    "DIVERGE from"
                },
            ));
        }
        if let Some(plan) = &faults {
            out.push_str(&format!(
                "faults:        {} planned | {} injected, {} retries, {} workers lost\n",
                plan.injections().len(),
                snap.get(Counter::FaultsInjected),
                snap.get(Counter::RetriesScheduled),
                snap.get(Counter::WorkersLost),
            ));
        }
        if let Some(a) = &wall {
            out.push_str(&profile_line(a));
        }
        if let Some(path) = &self.opts.telemetry {
            out.push_str(&format!(
                "telemetry:     {} events -> {}\n",
                snap.events_emitted + 1, // + the final snapshot event
                path
            ));
        }
        Ok(out)
    }
}

struct MetricsCmd<'p> {
    opts: Options,
    format: MetricsFormat,
    pool: Option<&'p WorkerPool>,
}

impl WorkloadVisitor for MetricsCmd<'_> {
    type Output = std::io::Result<String>;
    fn visit<W: Workload>(self, w: &W) -> std::io::Result<String> {
        let cfg = config_for(w, &self.opts);
        let n = self.opts.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, self.opts.seed);
        let sink = sink_for(&cfg, self.opts.telemetry.as_deref())?;
        // Snapshot formats can record from the real threaded runtime
        // (--workers); the folded export is a trace rendering, which only
        // the simulated runtime produces, so it always runs simulated.
        let native_snapshot = self.pool.filter(|_| self.format != MetricsFormat::Folded);
        if let Some(pool) = native_snapshot {
            run_threaded_on(pool, w, &inputs, cfg, self.opts.seed, Some(&sink));
            sink.flush();
            let snap = sink.snapshot();
            return Ok(match self.format {
                MetricsFormat::Table => export::table(&snap),
                MetricsFormat::Prometheus => export::prometheus(&snap),
                MetricsFormat::Json => format!("{}\n", snap.to_json()),
                MetricsFormat::Folded => unreachable!("folded runs simulated"),
            });
        }
        let rt = SimulatedRuntime::paper_machine();
        let report = rt
            .run_observed(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                self.opts.seed,
                Some(&sink),
            )
            .expect("valid configuration");
        sink.flush();
        let snap = sink.snapshot();
        Ok(match self.format {
            MetricsFormat::Table => export::table(&snap),
            MetricsFormat::Prometheus => export::prometheus(&snap),
            MetricsFormat::Folded => export::folded(&report.execution.trace),
            MetricsFormat::Json => format!("{}\n", snap.to_json()),
        })
    }
}

struct ExportCmd {
    opts: Options,
    path: String,
}

impl WorkloadVisitor for ExportCmd {
    type Output = std::io::Result<String>;
    fn visit<W: Workload>(self, w: &W) -> std::io::Result<String> {
        let cfg = config_for(w, &self.opts);
        let n = self.opts.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, self.opts.seed);
        let rt = SimulatedRuntime::paper_machine();
        let report = rt
            .run(
                w.name(),
                w,
                &inputs,
                cfg,
                w.inner_parallelism(),
                self.opts.seed,
            )
            .expect("valid configuration");
        let json = stats_trace::chrome::to_chrome_trace(&report.execution.trace);
        std::fs::write(&self.path, &json)?;
        Ok(format!(
            "wrote {} spans to {} (open in chrome://tracing or Perfetto)\n",
            report.execution.trace.spans().len(),
            self.path
        ))
    }
}

/// Seeds the best configuration is replayed over after tuning, to
/// expose nondeterministic run-to-run speedup variance in the log.
const TUNE_REPLAY_SEEDS: usize = 5;

struct TuneCmd<'p> {
    opts: Options,
    budget: usize,
    pool: Option<&'p WorkerPool>,
}

impl WorkloadVisitor for TuneCmd<'_> {
    type Output = std::io::Result<String>;
    fn visit<W: Workload>(self, w: &W) -> std::io::Result<String> {
        use stats_autotuner::{Strategy, Tuner};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = self.opts.scale.inputs_for(w);
        let inputs = w.generate_inputs(n, self.opts.seed);
        let rt = SimulatedRuntime::paper_machine();
        let mut space =
            stats_core::DesignSpace::for_inputs(n, 28, w.inner_parallelism().is_parallel());
        if self.opts.snapshot == Some(SnapshotStrategy::CopyOnWrite) {
            space.snapshot_choices =
                vec![SnapshotStrategy::DeepClone, SnapshotStrategy::CopyOnWrite];
        }
        if let Some(k) = self.opts.breadth {
            // An explicit --breadth opts the search into the breadth
            // dimension: the historical narrow space, pairwise, and the
            // requested width (deduplicated and sorted for determinism).
            let mut choices = vec![1, 2, k];
            choices.sort_unstable();
            choices.dedup();
            space.breadth_choices = choices;
        }
        let tuner = Tuner::new(space, self.budget, self.opts.seed);
        // One counter shard per worker evaluating tuning batches.
        let mut sink = TelemetrySink::new(self.pool.map_or(1, WorkerPool::workers));
        if let Some(path) = &self.opts.telemetry {
            let file = std::fs::File::create(path)?;
            sink = sink.with_event_writer(Box::new(std::io::BufWriter::new(file)));
        }
        // The objective runs on pool workers under --workers, so its
        // bookkeeping is atomic; `iteration` stamps arrival order of the
        // quality events, which under a pool may differ from the
        // searcher-visible proposal order (the trajectory itself stays
        // worker-count independent — see DESIGN.md §10).
        let iteration = AtomicUsize::new(0);
        let objective = |cfg: stats_core::Config| {
            let run = rt
                .run(
                    w.name(),
                    w,
                    &inputs,
                    cfg,
                    w.inner_parallelism(),
                    self.opts.seed,
                )
                .expect("valid config");
            sink.event(&Event::TuneEvaluated {
                iteration: iteration.fetch_add(1, Ordering::Relaxed) + 1,
                speedup: run.speedup(),
                quality: w.quality(&inputs, &run.outputs),
            });
            run.execution.makespan.get() as f64
        };
        let report = match self.pool {
            // Shard each proposal batch across the pool: the report is
            // bit-identical to the sequential path for any pool width.
            Some(pool) => tuner.tune_parallel_on(pool, Strategy::Ensemble, objective, Some(&sink)),
            None => tuner.tune_observed(Strategy::Ensemble, objective, Some(&sink)),
        };
        // Replay the winner across several seeds: nondeterministic programs
        // have per-run variance the single tuning seed hides. Replays are
        // independent, so the pool shards them too (slot-indexed results
        // keep the reported ensemble identical at any width).
        let replay = |s: u64| {
            let seed = self.opts.seed.wrapping_add(s);
            let replay_inputs = w.generate_inputs(n, seed);
            rt.run(
                w.name(),
                w,
                &replay_inputs,
                report.best,
                w.inner_parallelism(),
                seed,
            )
            .expect("valid config")
            .speedup()
        };
        let mut speedups = [0.0f64; TUNE_REPLAY_SEEDS];
        match self.pool {
            Some(pool) => pool.scope(|scope| {
                for (s, slot) in speedups.iter_mut().enumerate() {
                    let replay = &replay;
                    scope.spawn(move || *slot = replay(s as u64));
                }
            }),
            None => {
                for (s, slot) in speedups.iter_mut().enumerate() {
                    *slot = replay(s as u64);
                }
            }
        }
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let variance =
            speedups.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / speedups.len() as f64;
        sink.event(&Event::TuneFinished {
            chunks: report.best.chunks,
            lookback: report.best.lookback,
            extra_states: report.best.extra_states,
            combine_inner_tlp: report.best.combine_inner_tlp,
            seeds: TUNE_REPLAY_SEEDS,
            mean_speedup: mean,
            speedup_variance: variance,
        });
        sink.flush();
        let mut out = format!(
            "benchmark: {}\nexplored:  {} configurations\nbest:      {}\nspeedup:   {:.2}x mean over {} seeds (variance {:.4})\n",
            w.name(),
            report.configurations_explored(),
            report.best,
            mean,
            TUNE_REPLAY_SEEDS,
            variance,
        );
        // With --workers, replay the winner on real threads so the tuned
        // configuration's native behavior is visible next to the model's;
        // --profile rides the wall-clock profiler on that replay and
        // appends its causal attribution.
        if let Some(pool) = self.pool {
            let psink = self.opts.profile.then(|| {
                TelemetrySink::new(report.best.chunks.max(1))
                    .with_profiler(Profiler::new(pool.workers()))
            });
            let native = run_threaded_on(
                pool,
                w,
                &inputs,
                report.best,
                self.opts.seed,
                psink.as_ref(),
            );
            out.push_str(&format!(
                "native:    {:.1} ms on {} pooled workers ({} aborts)\n",
                native.elapsed.as_secs_f64() * 1e3,
                native.workers,
                native.aborts(),
            ));
            if let Some(a) = psink
                .as_ref()
                .and_then(|s| attribute_native(s, &native, report.best.spec_breadth))
            {
                out.push_str(&profile_line(&a));
            }
        }
        Ok(out)
    }
}

struct ProfileCmd<'p> {
    opts: Options,
    format: ProfileFormat,
    seeds: usize,
    pool: Option<&'p WorkerPool>,
}

impl WorkloadVisitor for ProfileCmd<'_> {
    type Output = std::io::Result<String>;
    fn visit<W: Workload>(self, w: &W) -> std::io::Result<String> {
        let pool = self.pool.expect("execute() builds a pool for profile");
        let seeds: Vec<u64> = (0..self.seeds as u64)
            .map(|i| self.opts.seed.wrapping_add(i))
            .collect();
        let mut cfg = tuned_config(w, 28, self.opts.scale);
        if let Some(s) = self.opts.snapshot {
            cfg.snapshot = s;
        }
        if let Some(k) = self.opts.breadth {
            cfg.spec_breadth = k;
        }
        if self.opts.overlap_rerun {
            cfg.overlap_rerun = true;
        }
        let plan = self.opts.faults.map_or_else(FaultPlan::none, |spec| {
            spec.plan(&cfg, self.opts.scale.inputs_for(w))
        });
        let report = profile_workload_faulted(w, pool, self.opts.scale, &seeds, cfg, &plan);
        Ok(match self.format {
            ProfileFormat::Table => render_profile_table(&report),
            ProfileFormat::Json => format!("{}\n", report.to_json()),
            ProfileFormat::Chrome => {
                let trace = report
                    .profile
                    .to_trace(w.name())
                    .expect("captured spans form a valid trace");
                stats_trace::chrome::to_chrome_trace_with_names(
                    &trace,
                    &report.profile.thread_names(),
                )
            }
        })
    }
}

/// Execute a parsed command, returning its textual output.
///
/// # Errors
///
/// I/O errors from `export` and from `--telemetry` log files; everything
/// else is infallible.
pub fn execute(cmd: Command) -> std::io::Result<String> {
    // Lifetime rule: one `WorkerPool` per CLI invocation, built here and
    // lent to every stage of the command (tune: search batches, the
    // seed-ensemble replay, and the native winner replay all share it) —
    // never one pool per stage, which would re-pay thread spawning.
    let pool = match &cmd {
        Command::Run { opts, .. } | Command::Metrics { opts, .. } | Command::Tune { opts, .. } => {
            opts.workers.map(WorkerPool::new)
        }
        // Profiling is native by definition: no --workers means "the
        // host's natural pool width".
        Command::Profile { opts, .. } => Some(WorkerPool::new(
            opts.workers.unwrap_or_else(default_workers),
        )),
        _ => None,
    };
    let pool = pool.as_ref();
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Run { benchmark, opts } => dispatch(&benchmark, RunCmd { opts, pool }),
        Command::Metrics {
            benchmark,
            format,
            opts,
        } => dispatch(&benchmark, MetricsCmd { opts, format, pool }),
        Command::Characterize { benchmark, opts } => {
            use stats_bench::attribution::attribute;
            use stats_bench::pipeline::Machines;
            struct C {
                opts: Options,
            }
            impl WorkloadVisitor for C {
                type Output = String;
                fn visit<W: Workload>(self, w: &W) -> String {
                    let cfg = config_for(w, &self.opts);
                    let machines = Machines::paper();
                    let b = attribute(w, &machines.cores28, cfg, self.opts.scale, self.opts.seed);
                    let mut out = format!(
                        "benchmark: {}\nachieved:  {:.2}x of {:.0}x ideal ({:.1}% lost)\n\n",
                        b.benchmark,
                        b.achieved,
                        b.ideal,
                        b.total_lost_percent()
                    );
                    let mut shares = b.normalized_percent();
                    shares.sort_by(|a, c| c.1.partial_cmp(&a.1).expect("no NaN"));
                    for (cat, pct) in shares {
                        if pct > 0.05 {
                            out.push_str(&format!("  {:<16} {:>5.1}%\n", cat.name(), pct));
                        }
                    }
                    out
                }
            }
            Ok(dispatch(&benchmark, C { opts }))
        }
        Command::Tune {
            benchmark,
            budget,
            opts,
        } => dispatch(&benchmark, TuneCmd { opts, budget, pool }),
        Command::Figures { ids, opts } => {
            let scale = opts.scale;
            let all = ids.is_empty() || ids.iter().any(|i| i == "all");
            let want = |id: &str| all || ids.iter().any(|i| i == id);
            let mut out = String::new();
            if want("table1") {
                out.push_str(&stats_bench::table1::render(scale));
            }
            if want("fig09") {
                out.push_str(&stats_bench::fig09::render(scale));
            }
            if want("fig10") {
                out.push_str(&stats_bench::fig10::render(scale));
            }
            if want("fig11") {
                out.push_str(&stats_bench::fig11::render(scale));
            }
            if want("fig12") {
                out.push_str(&stats_bench::fig12::render(scale));
            }
            if want("fig13") {
                out.push_str(&stats_bench::fig13::render(scale));
            }
            if want("fig14") {
                out.push_str(&stats_bench::fig14::render(scale));
            }
            if want("fig15") {
                out.push_str(&stats_bench::fig15::render(scale));
            }
            if want("table2") {
                out.push_str(&stats_bench::table2::render(scale));
                out.push_str(&stats_bench::table2::render_cpi(scale));
            }
            if want("fig16") {
                out.push_str(&stats_bench::fig16::render(scale, 40));
            }
            if !all && ids.iter().any(|i| i == "ablations") {
                out.push_str(&stats_bench::ablations::render(scale));
            }
            if !all && ids.iter().any(|i| i == "scaling") {
                out.push_str(&stats_bench::scaling::render());
            }
            if out.is_empty() {
                out = format!("no known figure ids in {ids:?}\n\n{USAGE}");
            }
            Ok(out)
        }
        Command::Export {
            benchmark,
            path,
            opts,
        } => dispatch(&benchmark, ExportCmd { opts, path }),
        Command::Profile {
            benchmark,
            format,
            seeds,
            opts,
        } => dispatch(
            &benchmark,
            ProfileCmd {
                opts,
                format,
                seeds,
                pool,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse(&args("run bodytrack --scale 0.25 --seed 7 --chunks 8")).unwrap();
        match cmd {
            Command::Run { benchmark, opts } => {
                assert_eq!(benchmark, "bodytrack");
                assert_eq!(opts.scale, Scale(0.25));
                assert_eq!(opts.seed, 7);
                assert_eq!(opts.chunks, Some(8));
                assert_eq!(opts.lookback, None);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_benchmark_and_option() {
        assert!(parse(&args("run blackscholes")).is_err());
        assert!(parse(&args("run bodytrack --frobnicate 3")).is_err());
        assert!(parse(&args("run")).is_err());
    }

    #[test]
    fn rejects_bad_scale() {
        assert!(parse(&args("run bodytrack --scale 0")).is_err());
        assert!(parse(&args("run bodytrack --scale 1.5")).is_err());
        assert!(parse(&args("run bodytrack --scale abc")).is_err());
    }

    #[test]
    fn empty_and_help_show_usage() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
        assert!(execute(Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn parses_tune_budget_and_figures_ids() {
        match parse(&args("tune swaptions --budget 25")).unwrap() {
            Command::Tune { budget, .. } => assert_eq!(budget, 25),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args("figures fig09 table1 --scale 0.1")).unwrap() {
            Command::Figures { ids, opts } => {
                assert_eq!(ids, vec!["fig09", "table1"]);
                assert_eq!(opts.scale, Scale(0.1));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn export_requires_a_path() {
        assert!(parse(&args("export swaptions")).is_err());
        assert!(parse(&args("export swaptions /tmp/x.json")).is_ok());
    }

    #[test]
    fn run_command_executes_end_to_end() {
        let cmd = parse(&args("run swaptions --scale 0.05 --chunks 8")).unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("swaptions"));
        assert!(out.contains("speedup"));
    }

    #[test]
    fn figures_command_renders_requested_ids() {
        let cmd = parse(&args("figures table1 --scale 0.05")).unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("Table I"));
        assert!(!out.contains("Fig. 9"));
    }

    #[test]
    fn parses_telemetry_json_and_format() {
        match parse(&args("run swaptions --telemetry /tmp/t.jsonl --json")).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.telemetry.as_deref(), Some("/tmp/t.jsonl"));
                assert!(opts.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args("metrics swaptions --format prometheus")).unwrap() {
            Command::Metrics { format, .. } => assert_eq!(format, MetricsFormat::Prometheus),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&args("metrics swaptions --format xml")).is_err());
        assert!(parse(&args("run swaptions --telemetry")).is_err());
    }

    #[test]
    fn run_json_summary_is_valid_json() {
        let cmd = parse(&args("run swaptions --scale 0.05 --chunks 8 --json")).unwrap();
        let out = execute(cmd).unwrap();
        stats_telemetry::json::validate(out.trim())
            .unwrap_or_else(|e| panic!("invalid --json summary: {e}\n{out}"));
        assert!(out.contains("\"benchmark\":\"swaptions\""));
        assert!(out.contains("\"speedup\":"));
        // The embedded telemetry snapshot rides along.
        assert!(out.contains("\"telemetry\":{"));
        assert!(out.contains("\"chunks_started\":8"));
    }

    #[test]
    fn metrics_command_renders_each_format() {
        for (fmt, needle) in [
            ("table", "chunks_committed"),
            ("prometheus", "stats_chunks_committed_total"),
            ("folded", ";chunk-compute "),
            ("json", "\"state_comparisons\":"),
        ] {
            let cmd = parse(&args(&format!(
                "metrics swaptions --scale 0.05 --format {fmt}"
            )))
            .unwrap();
            let out = execute(cmd).unwrap();
            assert!(
                out.contains(needle),
                "--format {fmt} missing {needle:?}:\n{out}"
            );
        }
    }

    #[test]
    fn run_telemetry_writes_a_jsonl_event_log() {
        let path = std::env::temp_dir().join("stats-cli-telemetry-test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse(&args(&format!(
            "run swaptions --scale 0.05 --chunks 8 --telemetry {path_str}"
        )))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("telemetry:"));
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines.len() >= 2, "expected a full lifecycle, got:\n{log}");
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"type\":\"run_started\""));
        assert!(lines[0].contains("\"benchmark\":\"swaptions\""));
        assert!(lines[lines.len() - 1].contains("\"type\":\"snapshot\""));
        for line in &lines {
            stats_telemetry::json::validate(line)
                .unwrap_or_else(|e| panic!("invalid event line: {e}\n{line}"));
        }
    }

    #[test]
    fn parses_and_validates_workers() {
        match parse(&args("run swaptions --workers 4")).unwrap() {
            Command::Run { opts, .. } => assert_eq!(opts.workers, Some(4)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&args("run swaptions --workers 0")).is_err());
        assert!(parse(&args("run swaptions --workers abc")).is_err());
        assert!(parse(&args("run swaptions --workers")).is_err());
    }

    #[test]
    fn run_with_workers_executes_natively_and_matches() {
        let cmd = parse(&args("run swaptions --scale 0.05 --chunks 8 --workers 2")).unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("native:"));
        assert!(out.contains("2 pooled workers"));
        assert!(
            out.contains("decisions match simulated"),
            "threaded must agree with simulated:\n{out}"
        );
    }

    #[test]
    fn run_json_with_workers_records_pool_width() {
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --workers 2 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        stats_telemetry::json::validate(out.trim())
            .unwrap_or_else(|e| panic!("invalid --json summary: {e}\n{out}"));
        assert!(out.contains("\"runtime\":\"threaded\""));
        assert!(out.contains("\"workers\":2"));
        assert!(out.contains("\"native_ms\":"));
        assert!(out.contains("\"decisions_match\":true"));
        // The embedded snapshot now comes from the threaded runtime and
        // still carries the full protocol counter set.
        assert!(out.contains("\"chunks_started\":8"));
    }

    #[test]
    fn metrics_with_workers_snapshots_the_threaded_runtime() {
        let cmd = parse(&args(
            "metrics swaptions --scale 0.05 --chunks 8 --workers 2 --format json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("\"chunks_started\":8"));
        // Folded is a simulated-trace export; it must still work with
        // --workers rather than erroring out.
        let folded = parse(&args(
            "metrics swaptions --scale 0.05 --workers 2 --format folded",
        ))
        .unwrap();
        assert!(execute(folded).unwrap().contains(";chunk-compute "));
    }

    #[test]
    fn tune_with_workers_replays_winner_natively() {
        let cmd = parse(&args("tune swaptions --scale 0.05 --budget 3 --workers 2")).unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("native:"));
        assert!(out.contains("2 pooled workers"));
    }

    #[test]
    fn tune_with_workers_shards_the_search_and_matches_sequential() {
        // Same (seed, budget, batch) → identical report whether the
        // search batches run serially or sharded over a pool. The visible
        // output (explored count, best configuration, seed-ensemble
        // stats) must therefore be identical too.
        let seq =
            execute(parse(&args("tune swaptions --scale 0.05 --budget 12")).unwrap()).unwrap();
        let par =
            execute(parse(&args("tune swaptions --scale 0.05 --budget 12 --workers 4")).unwrap())
                .unwrap();
        let strip_native = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("native:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip_native(&seq), strip_native(&par));
        assert!(par.contains("native:"), "winner replayed natively:\n{par}");
    }

    #[test]
    fn tune_telemetry_logs_batches_under_workers() {
        let path = std::env::temp_dir().join("stats-cli-tune-batch-telemetry-test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse(&args(&format!(
            "tune swaptions --scale 0.05 --budget 9 --workers 2 --telemetry {path_str}"
        )))
        .unwrap();
        execute(cmd).unwrap();
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(
            log.contains("\"type\":\"tune_batch\"") && log.contains("\"workers\":2"),
            "expected pool-width-stamped tune_batch events:\n{log}"
        );
    }

    #[test]
    fn parses_profile_with_options() {
        match parse(&args(
            "profile swaptions --workers 2 --seeds 4 --format json",
        ))
        .unwrap()
        {
            Command::Profile {
                benchmark,
                format,
                seeds,
                opts,
            } => {
                assert_eq!(benchmark, "swaptions");
                assert_eq!(format, ProfileFormat::Json);
                assert_eq!(seeds, 4);
                assert_eq!(opts.workers, Some(2));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: table rendering, 3 seeds, host-width pool.
        match parse(&args("profile swaptions")).unwrap() {
            Command::Profile { format, seeds, .. } => {
                assert_eq!(format, ProfileFormat::Table);
                assert_eq!(seeds, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&args("profile swaptions --format prometheus")).is_err());
        assert!(parse(&args("profile swaptions --seeds 0")).is_err());
        assert!(parse(&args("profile")).is_err());
    }

    #[test]
    fn profile_flag_requires_workers_on_run_and_tune() {
        assert!(parse(&args("run swaptions --profile")).is_err());
        assert!(parse(&args("tune swaptions --profile")).is_err());
        assert!(parse(&args("run swaptions --profile --workers 2")).is_ok());
        // `stats profile` itself needs no flag.
        assert!(parse(&args("profile swaptions")).is_ok());
    }

    #[test]
    fn profile_command_renders_each_format() {
        let table = execute(
            parse(&args(
                "profile swaptions --scale 0.05 --workers 2 --seeds 2",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(table.contains("causal profile: swaptions"));
        assert!(table.contains("speedup lost to:"));
        assert!(table.contains("what-if projections:"));

        let json = execute(
            parse(&args(
                "profile swaptions --scale 0.05 --workers 2 --format json",
            ))
            .unwrap(),
        )
        .unwrap();
        stats_telemetry::json::validate(json.trim())
            .unwrap_or_else(|e| panic!("invalid profile json: {e}\n{json}"));
        assert!(json.contains("\"losses\":"));
        assert!(json.contains("\"whatifs\":"));

        let chrome = execute(
            parse(&args(
                "profile swaptions --scale 0.05 --workers 2 --format chrome",
            ))
            .unwrap(),
        )
        .unwrap();
        assert!(chrome.trim_start().starts_with('['));
        assert!(chrome.contains("\"thread_name\""));
        assert!(chrome.contains("stats-pool-0"));
        assert!(chrome.contains("coordinator"));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn run_with_profile_appends_attribution() {
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --workers 2 --profile",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("profile:"), "missing attribution:\n{out}");
        assert!(out.contains("dominant loss"));
        // JSON summary embeds the full attribution object.
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --workers 2 --profile --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        stats_telemetry::json::validate(out.trim())
            .unwrap_or_else(|e| panic!("invalid --json summary: {e}\n{out}"));
        assert!(out.contains("\"profile\":{"));
        assert!(out.contains("\"losses\":"));
    }

    #[test]
    fn tune_with_profile_attributes_the_native_replay() {
        let cmd = parse(&args(
            "tune swaptions --scale 0.05 --budget 3 --workers 2 --profile",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("native:"));
        assert!(out.contains("profile:"), "missing attribution:\n{out}");
    }

    #[test]
    fn parses_snapshot_strategy() {
        match parse(&args("run bodytrack --snapshot cow")).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.snapshot, Some(SnapshotStrategy::CopyOnWrite));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args("profile bodytrack --snapshot deep")).unwrap() {
            Command::Profile { opts, .. } => {
                assert_eq!(opts.snapshot, Some(SnapshotStrategy::DeepClone));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(&args("run bodytrack")).map(|c| match c {
                Command::Run { opts, .. } => opts.snapshot,
                _ => unreachable!(),
            }),
            Ok(None)
        );
        assert!(parse(&args("run bodytrack --snapshot shallow")).is_err());
        assert!(parse(&args("run bodytrack --snapshot")).is_err());
    }

    #[test]
    fn run_with_cow_snapshots_matches_simulated_decisions() {
        // The keystone bit-identity contract, exercised end to end through
        // the CLI: COW snapshots must not change a single decision.
        let cmd = parse(&args(
            "run bodytrack --scale 0.05 --chunks 4 --workers 2 --snapshot cow",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(
            out.contains("cow snapshots"),
            "config line shows cow:\n{out}"
        );
        assert!(
            out.contains("decisions match simulated"),
            "cow threaded must agree with cow simulated:\n{out}"
        );
    }

    #[test]
    fn run_json_reports_snapshot_strategy() {
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --snapshot cow --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("\"snapshot\":\"cow\""));
        // Byte counters ride along in the embedded telemetry snapshot.
        assert!(out.contains("\"state_bytes_logical\":"));
        assert!(out.contains("\"state_bytes_copied\":"));
    }

    #[test]
    fn parses_breadth_and_overlap() {
        match parse(&args("run bodytrack --breadth 2 --overlap-rerun")).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.breadth, Some(2));
                assert!(opts.overlap_rerun);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&args("profile bodytrack --breadth 4")).unwrap() {
            Command::Profile { opts, .. } => {
                assert_eq!(opts.breadth, Some(4));
                assert!(!opts.overlap_rerun);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(&args("run bodytrack")).map(|c| match c {
                Command::Run { opts, .. } => opts.breadth,
                _ => unreachable!(),
            }),
            Ok(None)
        );
        assert!(parse(&args("run bodytrack --breadth 0")).is_err());
        assert!(parse(&args("run bodytrack --breadth wide")).is_err());
        assert!(parse(&args("run bodytrack --breadth")).is_err());
    }

    #[test]
    fn parses_faults_spec() {
        match parse(&args("run swaptions --workers 2 --faults 4@7")).unwrap() {
            Command::Run { opts, .. } => {
                assert_eq!(opts.faults, Some(FaultSpec { count: 4, seed: 7 }));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Bare COUNT defaults the plan seed to 0; profile is always
        // native, so it needs no --workers.
        match parse(&args("profile swaptions --faults 3")).unwrap() {
            Command::Profile { opts, .. } => {
                assert_eq!(opts.faults, Some(FaultSpec { count: 3, seed: 0 }));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&args("run swaptions --workers 2 --faults 0")).is_err());
        assert!(parse(&args("run swaptions --workers 2 --faults x@1")).is_err());
        assert!(parse(&args("run swaptions --workers 2 --faults")).is_err());
        // Injection happens in the pooled runtime: run needs --workers,
        // and the other subcommands reject the flag outright.
        assert!(parse(&args("run swaptions --faults 4")).is_err());
        assert!(parse(&args("tune swaptions --faults 4 --workers 2")).is_err());
        assert!(parse(&args("metrics swaptions --faults 4")).is_err());
    }

    #[test]
    fn run_with_faults_recovers_invisibly() {
        // The recovery contract end to end through the CLI: the injected
        // faults fire (visible in the fault counters) yet the decision
        // sequence still matches the fault-free simulated run.
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --workers 2 --faults 5@9",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("faults:"), "missing fault line:\n{out}");
        assert!(out.contains("5 planned"), "plan size echoed:\n{out}");
        assert!(
            out.contains("decisions match simulated"),
            "faulted threaded must agree with fault-free simulated:\n{out}"
        );
    }

    #[test]
    fn run_json_reports_fault_plane() {
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --workers 2 --faults 5@9 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        stats_telemetry::json::validate(out.trim())
            .unwrap_or_else(|e| panic!("invalid --json summary: {e}\n{out}"));
        assert!(out.contains("\"faults\":{"));
        assert!(out.contains("\"planned\":5"));
        assert!(out.contains("\"decisions_match\":true"));
        // The fault counters also ride along in the embedded snapshot.
        assert!(out.contains("\"faults_injected\":"));
    }

    #[test]
    fn profile_with_faults_prints_the_fault_plane() {
        let cmd = parse(&args(
            "profile swaptions --scale 0.05 --workers 2 --seeds 2 --faults 4@7",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("fault plane:"), "missing fault plane:\n{out}");
        assert!(out.contains("4 planned"), "plan size echoed:\n{out}");
        let json = execute(
            parse(&args(
                "profile swaptions --scale 0.05 --workers 2 --faults 4@7 --format json",
            ))
            .unwrap(),
        )
        .unwrap();
        stats_telemetry::json::validate(json.trim())
            .unwrap_or_else(|e| panic!("invalid profile json: {e}\n{json}"));
        assert!(json.contains("\"faults\":{"));
    }

    #[test]
    fn run_with_breadth_matches_simulated_decisions() {
        // The breadth bit-identity contract end to end through the CLI:
        // alternative candidates plus overlapped recovery must leave the
        // native decision sequence exactly where the model puts it.
        let cmd = parse(&args(
            "run bodytrack --scale 0.05 --chunks 4 --workers 2 --breadth 2 --overlap-rerun",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(
            out.contains("breadth 2") && out.contains("overlapped reruns"),
            "config line shows the breadth knobs:\n{out}"
        );
        assert!(
            out.contains("decisions match simulated"),
            "breadth-2 threaded must agree with breadth-2 simulated:\n{out}"
        );
    }

    #[test]
    fn run_json_reports_breadth_and_overlap() {
        let cmd = parse(&args(
            "run swaptions --scale 0.05 --chunks 8 --breadth 3 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("\"spec_breadth\":3"));
        assert!(out.contains("\"overlap_rerun\":false"));
        // Candidate counters ride along in the embedded telemetry
        // snapshot: 7 speculative chunks x 3 candidates each.
        assert!(out.contains("\"spec_candidates\":21"));
    }

    #[test]
    fn tune_with_breadth_searches_the_breadth_dimension() {
        let out =
            execute(parse(&args("tune swaptions --scale 0.05 --budget 6 --breadth 4")).unwrap())
                .unwrap();
        // The searched space gained the dimension; the winner is still a
        // sound configuration whatever breadth it lands on.
        assert!(out.contains("explored:"), "tune ran:\n{out}");
        assert!(out.contains("best:"), "tune reported a winner:\n{out}");
    }

    #[test]
    fn tune_with_cow_searches_the_snapshot_dimension() {
        let cmd = parse(&args(
            "tune bodytrack --scale 0.05 --budget 16 --snapshot cow",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        // Under the byte-proportional cost model COW strictly cheapens
        // bodytrack's 500 KB copies, so the winner adopts it.
        assert!(
            out.contains("cow snapshots"),
            "expected the tuner to pick cow for the copy-heavy tracker:\n{out}"
        );
    }

    #[test]
    fn tune_telemetry_logs_iterations_and_finish() {
        let path = std::env::temp_dir().join("stats-cli-tune-telemetry-test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let cmd = parse(&args(&format!(
            "tune swaptions --scale 0.05 --budget 5 --telemetry {path_str}"
        )))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("mean over 5 seeds"));
        let log = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let evaluated = log.matches("\"type\":\"tune_evaluated\"").count();
        let iterations = log.matches("\"type\":\"tune_iteration\"").count();
        assert_eq!(
            evaluated, iterations,
            "one evaluation per iteration:\n{log}"
        );
        assert!(evaluated >= 1);
        assert_eq!(log.matches("\"type\":\"tune_finished\"").count(), 1);
        for line in log.lines() {
            stats_telemetry::json::validate(line)
                .unwrap_or_else(|e| panic!("invalid event line: {e}\n{line}"));
        }
    }

    const SUBCOMMANDS: &[&str] = &[
        "run",
        "characterize",
        "tune",
        "metrics",
        "profile",
        "figures",
        "export",
        "help",
        "--help",
        "-h",
    ];

    const FLAGS: &[&str] = &[
        "--scale",
        "--seed",
        "--chunks",
        "--lookback",
        "--extra-states",
        "--budget",
        "--telemetry",
        "--workers",
        "--json",
        "--profile",
        "--snapshot",
        "--breadth",
        "--overlap-rerun",
        "--faults",
        "--seeds",
        "--format",
        "--bogus",
    ];

    /// Benchmark names, flag values, and numbers at and past the edges
    /// of what each flag accepts.
    const VALUES: &[&str] = &[
        "swaptions",
        "bodytrack",
        "facetrack",
        "fig09",
        "deep",
        "cow",
        "table",
        "json",
        "chrome",
        "3@7",
        "0@1",
        "0",
        "1",
        "0.5",
        "2",
        "-1",
        "nan",
        "inf",
        "1e309",
        "18446744073709551616",
        "",
        "--",
    ];

    /// An argv of a subcommand, a positional, then flags (most with a
    /// value), each word sometimes replaced by an arbitrary (lossily
    /// decoded) byte string.
    fn argv() -> impl proptest::strategy::Strategy<Value = Vec<String>> {
        use proptest::prelude::*;
        proptest::collection::vec(any::<u64>(), 0..8).prop_map(|picks| {
            let pick =
                |table: &[&str], p: u64| match table.get((p % (table.len() as u64 + 2)) as usize) {
                    Some(word) => word.to_string(),
                    None => String::from_utf8_lossy(&p.to_le_bytes()[..(p >> 61) as usize]).into(),
                };
            let mut argv = Vec::new();
            for (i, p) in picks.into_iter().enumerate() {
                match i {
                    0 => argv.push(pick(SUBCOMMANDS, p)),
                    1 => argv.push(pick(VALUES, p)),
                    _ => {
                        argv.push(pick(FLAGS, p));
                        if p % 4 != 0 {
                            argv.push(pick(VALUES, p >> 8));
                        }
                    }
                }
            }
            argv
        })
    }

    fn options(cmd: &Command) -> Option<&Options> {
        match cmd {
            Command::Run { opts, .. }
            | Command::Characterize { opts, .. }
            | Command::Tune { opts, .. }
            | Command::Figures { opts, .. }
            | Command::Metrics { opts, .. }
            | Command::Export { opts, .. }
            | Command::Profile { opts, .. } => Some(opts),
            Command::Help => None,
        }
    }

    proptest::proptest! {
        // Parsing is cheap, and a rejected value only shows once its whole
        // argv parses, so the case count is high.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16384))]

        #[test]
        fn parse_never_panics_and_accepts_only_valid_options(argv in argv()) {
            // The property is the call returning at all; a panic fails it.
            let parsed = parse(&argv);
            if let Some(opts) = parsed.as_ref().ok().and_then(options) {
                proptest::prop_assert!(opts.scale.0 > 0.0 && opts.scale.0 <= 1.0, "{:?}", argv);
                proptest::prop_assert!(opts.workers != Some(0) && opts.breadth != Some(0));
                proptest::prop_assert!(opts.faults.is_none_or(|f| f.count > 0));
            }
        }
    }
}
