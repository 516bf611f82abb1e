//! End-to-end and per-layer benchmark of LEAPS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_paced|serve_capacity|train_paper --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it builds the `leaps` binary from the
//! checkout, drives it as a user would (`leaps serve` over a Unix socket,
//! `leaps train` on raw logs), checks every output, and prints one JSON
//! line. With `--trace 0` the line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate traced pass
//! that also writes its spans under `.perfbench-work/`. See README.md.

mod inputs;
mod procfs;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("result_ms", "ms"), ("cpu_us_per_event", "us"), ("peak_rss_mb", "MB")];

/// The per-layer metrics of the traced pass, with their units. A layer a
/// workload does not exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    // leaps-serve (daemon and wire protocol)
    ("proto.decode_us", "us"),
    ("serve.ack_us", "us"),
    ("serve.event_us", "us"),
    ("serve.events_per_drain", "count"),
    ("serve.daemon_util", "ratio"),
    ("serve.other_us", "us"),
    ("serve.eps", "1/s"),
    ("serve.workers", "count"),
    ("verdict.p50_us", "us"),
    ("verdict.p90_us", "us"),
    ("verdict.p99_us", "us"),
    ("verdict.p999_us", "us"),
    ("verdict.samples", "count"),
    ("gen.offered_eps", "1/s"),
    ("gen.late_p99_us", "us"),
    // leaps-core
    ("stream.push_us", "us"),
    ("stream.self_us", "us"),
    ("stream.verdicts_per_event", "ratio"),
    ("persist.load_ms", "ms"),
    // leaps-cluster
    ("cluster.encode_us", "us"),
    ("cluster.repeat_share", "ratio"),
    ("cluster.fit_s", "s"),
    ("cluster.encode_sequence_s", "s"),
    ("cluster.lib_clusters", "count"),
    ("cluster.func_clusters", "count"),
    // leaps-svm
    ("svm.decide_us", "us"),
    ("svm.support_vectors", "count"),
    ("svm.cv_s", "s"),
    ("svm.cv_cells", "count"),
    ("svm.smo_s", "s"),
    ("svm.smo_iterations", "count"),
    ("svm.train_samples", "count"),
    // leaps-cfg
    ("cfg.infer_s", "s"),
    ("cfg.weights_s", "s"),
    // leaps-hmm
    ("hmm.prelude_s", "s"),
    ("hmm.bw_s", "s"),
    ("hmm.score_us", "us"),
    ("hmm.accuracy", "ratio"),
    ("svm.accuracy", "ratio"),
    // leaps-trace
    ("trace.parse_s", "s"),
    // checkpointing
    ("ckpt.writes", "count"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.overhead_s", "s"),
    // whole training runs
    ("train.wsvm_s", "s"),
    ("train.ckpt_s", "s"),
    ("train.hmm_s", "s"),
    ("train.cpu_s", "s"),
    ("train.threads", "count"),
    ("train.stage_sum_ratio", "ratio"),
    // the span recorder itself
    ("trace.overhead", "ratio"),
    // the host: CPU time the hypervisor gave to other machines during the
    // measured phase, to tell host drift from a change of the program
    ("host.steal_share", "ratio"),
];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    };
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(opts)
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: verdicts expected, models trained, models
    /// compared.
    pub attempted: u64,
    /// Of those, how many failed a correctness check or were refused.
    pub failed: u64,
    /// Every failure, one line each, for stderr.
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation that was already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    fn to_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let values = if trace { &self.per_layer } else { &self.end_to_end };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let mut value = values.get(name).copied().unwrap_or(0.0);
                if !value.is_finite() {
                    correct = false;
                    value = 0.0;
                }
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Paths of one run.
pub struct Ctx {
    pub opts: Opts,
    /// The `leaps` executable built from the checkout.
    pub leaps: PathBuf,
    /// Scratch directory of this run, relative to the checkout root.
    pub work: PathBuf,
    pub tracer: trace::Tracer,
}

impl Ctx {
    /// A fresh subdirectory of the run's scratch directory.
    pub fn dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Builds `leaps` from the checkout (a no-op when it is up to date) and
/// returns its path.
fn build_leaps() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/leaps-cli").is_dir() {
        return Err("run from the repository root".to_owned());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "leaps-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building leaps failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("leaps");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

fn run(opts: Opts) -> Result<Report, String> {
    let leaps = build_leaps()?;
    let work = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}-{}",
        opts.workload,
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let tracer = trace::Tracer::new(opts.trace);
    let mut ctx = Ctx { opts, leaps, work, tracer };
    let outcome = match ctx.opts.workload.as_str() {
        "serve_paced" => serve::run(&mut ctx, serve::Mode::Paced { rate: 5000 }),
        "serve_capacity" => serve::run(&mut ctx, serve::Mode::Capacity { inflight: 128 }),
        "train_paper" => train::run(&mut ctx),
        other => {
            Err(format!("unknown workload {other:?} (serve_paced|serve_capacity|train_paper)"))
        }
    };
    if ctx.opts.trace {
        let path = PathBuf::from(".perfbench-work")
            .join(format!("spans-{}-seed{}.jsonl", ctx.opts.workload, ctx.opts.seed));
        ctx.tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: {} spans written to {}", ctx.tracer.spans().len(), path.display());
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let trace = opts.trace;
    match run(opts) {
        Ok(report) => {
            for failure in &report.failures {
                eprintln!("perfbench: FAILED {failure}");
            }
            if trace {
                for (name, unit) in PER_LAYER {
                    let value = report.per_layer.get(name).copied().unwrap_or(0.0);
                    eprintln!("  {name:<28} {value:>16.4} {unit}");
                }
            }
            println!("{}", report.to_json(trace));
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn options_parse_and_validate() {
        let o = parse_opts(&strings(&[
            "--workload",
            "train_paper",
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("train_paper", 3, 15, true));
        assert!(parse_opts(&strings(&["--seed", "3"])).is_err());
        assert!(parse_opts(&strings(&["--workload", "x", "--seed", "3", "--trace", "2"])).is_err());
        assert!(parse_opts(&strings(&["--workload", "x", "--seed"])).is_err());
    }

    #[test]
    fn report_json_lists_every_metric_of_the_pass() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.end_to_end.insert("setup_s", 0.5);
        let json = r.to_json(false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.check(false, || "mismatch".to_owned());
        assert!(r
            .to_json(true)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.end_to_end.insert("result_ms", f64::NAN);
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }
}
