//! What the native bench binaries share: the argument parser, the timer,
//! the parity fingerprint and the `BENCH_*.json` report tail. Each binary
//! keeps its sweep, gate rule and row JSON, and exits 0 on success, 1 when
//! an enforced gate fails and 2 on bad arguments (usage line on stderr).

use crate::pipeline::{Scale, FIGURE_SEED};
use stats_core::report::ChunkDecision;
use stats_core::runtime::pool::default_workers;
use stats_telemetry::clock::monotonic_ns;
use stats_telemetry::json::{validate, JsonObject};
use stats_telemetry::Estimate;
use stats_workloads::Workload;

/// The arguments after one flag; a flag that takes a value pulls it
/// through one of the typed helpers.
pub struct Argv {
    rest: std::vec::IntoIter<String>,
    flag: String,
}

fn positive_int(s: &str) -> Option<usize> {
    s.trim().parse().ok().filter(|n| *n > 0)
}

impl Argv {
    /// The flag's raw value.
    pub fn value(&mut self) -> Result<String, String> {
        let flag = &self.flag;
        self.rest.next().ok_or(format!("{flag} requires a value"))
    }

    fn check<T>(&self, what: &str, raw: &str, parsed: Option<T>) -> Result<T, String> {
        parsed.ok_or(format!("{} expects {what}, got {raw:?}", self.flag))
    }

    /// A finite positive number.
    pub fn positive(&mut self) -> Result<f64, String> {
        let raw = self.value()?;
        let v = raw.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0);
        self.check("a finite value > 0", &raw, v)
    }

    /// A positive integer.
    pub fn count(&mut self) -> Result<usize, String> {
        let raw = self.value()?;
        self.check("a positive integer", &raw, positive_int(&raw))
    }

    /// A comma list of positive integers.
    pub fn counts(&mut self) -> Result<Vec<usize>, String> {
        let raw = self.value()?;
        let list = raw.split(',').map(positive_int).collect();
        self.check("a list like 1,2,4", &raw, list)
    }

    /// An input-size scale in (0, 1].
    pub fn scale(&mut self) -> Result<Scale, String> {
        let raw = self.value()?;
        let v = raw.parse().ok().filter(|v: &f64| *v > 0.0 && *v <= 1.0);
        self.check("a scale in (0, 1]", &raw, v.map(Scale))
    }
}

/// Walk `argv` (without the program name), handing each flag and the
/// arguments after it to the binary's `each`.
pub fn parse(
    argv: Vec<String>,
    mut each: impl FnMut(&str, &mut Argv) -> Result<(), String>,
) -> Result<(), String> {
    let (rest, flag) = (argv.into_iter(), String::new());
    let mut argv = Argv { rest, flag };
    while let Some(flag) = argv.rest.next() {
        argv.flag.clone_from(&flag);
        each(&flag, &mut argv)?;
    }
    Ok(())
}

/// Parse the process arguments with `parse`; on an error, print it and
/// `usage` to stderr and exit 2.
pub fn args_or_exit<A>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<A, String>) -> A {
    parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

/// Wall time of one call in milliseconds, and its result.
pub fn time_ms<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let t0 = monotonic_ns();
    let out = run();
    ((monotonic_ns() - t0) as f64 / 1e6, out)
}

/// What a run must reproduce bit for bit: its commit/abort decisions,
/// its output count and the bits of its quality score (which hashes
/// every output bit; outputs lack a `PartialEq` bound at this level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub decisions: Vec<ChunkDecision>,
    pub outputs: (usize, u64),
}

impl Fingerprint {
    pub fn of<W: Workload>(
        w: &W,
        inputs: &[W::Input],
        decisions: &[ChunkDecision],
        outputs: &[W::Output],
    ) -> Fingerprint {
        let outputs = (outputs.len(), w.quality(inputs, outputs).to_bits());
        let decisions = decisions.to_vec();
        Fingerprint { decisions, outputs }
    }
}

/// A JSON array of already serialized values.
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// An estimate as `{"mean":…,"ci":…}`.
pub fn estimate_json(e: &Estimate) -> String {
    format!("{{\"mean\":{:.6},\"ci\":{:.6}}}", e.mean, e.half_width)
}

/// The `gate` object: `enforced`, the binary's verdict fields, `pass`.
pub fn gate_json(enforced: bool, fields: impl FnOnce(&mut JsonObject), pass: bool) -> String {
    let mut g = JsonObject::new();
    fields(g.bool("enforced", enforced));
    g.bool("pass", pass);
    g.finish()
}

/// The report envelope: `bench`, `seed`, `scale`, the binary's run
/// parameters, `host_parallelism`, `benchmarks`, `gate`.
pub fn envelope(
    bench: &str,
    scale: Scale,
    params: impl FnOnce(&mut JsonObject),
    benchmarks: &str,
    gate: &str,
) -> String {
    let mut o = JsonObject::new();
    params(
        o.str("bench", bench)
            .u64("seed", FIGURE_SEED)
            .f64("scale", scale.0),
    );
    o.u64("host_parallelism", default_workers() as u64)
        .raw("benchmarks", benchmarks)
        .raw("gate", gate);
    format!("{}\n", o.finish())
}

/// Validate `json` and write it to `out`; exit 2 if it cannot be written.
pub fn write(out: &str, json: &str) {
    validate(json.trim()).unwrap_or_else(|e| panic!("generated invalid JSON: {e}"));
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(2)
    });
}

/// Settle an enforced gate: print `ok` on a pass, or `fail` and exit 1.
pub fn settle(enforced: bool, pass: bool, ok: &str, fail: &str) {
    if enforced {
        println!("{}", if pass { ok } else { fail });
        if !pass {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Parsed = (f64, usize, Vec<usize>, f64);

    fn run(line: &str) -> Result<Parsed, String> {
        let mut got = (0.1, 3, vec![1, 4], 10.0);
        let argv = line.split_whitespace().map(String::from).collect();
        parse(argv, |flag, v| {
            match flag {
                "--scale" => got.0 = v.scale()?.0,
                "--reps" => got.1 = v.count()?,
                "--widths" => got.2 = v.counts()?,
                "--pct" => got.3 = v.positive()?,
                other => return Err(format!("unknown option {other}")),
            }
            Ok(())
        })?;
        Ok(got)
    }

    fn rejected(lines: &[&str]) {
        for line in lines {
            assert!(run(line).is_err(), "{line} was accepted");
        }
    }

    #[test]
    fn defaults_stand_and_comma_lists_parse() {
        assert_eq!(run(""), Ok((0.1, 3, vec![1, 4], 10.0)));
        let all = run("--scale 1 --reps 5 --widths 1,2,4 --pct 2.5");
        assert_eq!(all, Ok((1.0, 5, vec![1, 2, 4], 2.5)));
        rejected(&["--widths 1,,4", "--widths 1;2", "--widths x"]);
    }

    #[test]
    fn missing_values_and_unknown_flags_are_errors() {
        let missing = run("--reps 3 --scale");
        assert_eq!(missing, Err("--scale requires a value".into()));
        assert_eq!(run("--bogus 1"), Err("unknown option --bogus".into()));
    }

    #[test]
    fn zero_is_rejected() {
        rejected(&["--reps 0", "--widths 1,0", "--pct 0"]);
    }

    #[test]
    fn negative_values_are_rejected() {
        rejected(&["--reps -1", "--widths -2", "--pct -5"]);
    }

    #[test]
    fn nan_infinity_and_fractional_counts_are_rejected() {
        rejected(&["--pct nan", "--pct inf", "--scale nan"]);
        rejected(&["--reps 2.7", "--widths 1,2.5"]);
    }

    #[test]
    fn scale_outside_the_unit_interval_is_rejected() {
        rejected(&["--scale 0", "--scale -0.5", "--scale 1.01"]);
        assert_eq!(run("--scale 1e-3").map(|got| got.0), Ok(1e-3));
    }

    #[test]
    fn envelope_keeps_the_report_key_order() {
        let gate = gate_json(true, |g| _ = g.bool("all_match", true), false);
        let json = envelope("x", Scale(0.5), |o| _ = o.u64("reps", 3), "[]", &gate);
        assert!(validate(json.trim()).is_ok());
        let keys = "bench seed scale reps host_parallelism benchmarks gate enforced all_match pass";
        let find = |k: &str| json.find(&format!("\"{k}\":"));
        let at: Vec<_> = keys.split(' ').map(find).collect();
        assert!(at.windows(2).all(|p| p[0].is_some() && p[0] < p[1]));
    }
}
