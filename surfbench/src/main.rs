//! `surfbench`: the SuRF benchmark. One command runs one workload and prints every metric by
//! name with its unit, after checking that the program's outputs are correct.
//!
//! ```text
//! surfbench --workload <explore|fit|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--workload-seed <n>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured through the top-level API only;
//! `--trace 1` repeats the same ops untraced and traced and reports the per-layer breakdown.
//! The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `NOTES.md` for what each workload loads.

mod explore;
mod fit;
mod measure;
mod serve;
mod task;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use serde::Serialize;

use crate::measure::Checksum;

/// End-to-end metrics (untraced run) and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("iou_mean", "stat"),
    ("valid_frac", "ratio"),
    ("mine_p50_ms", "ms"),
    ("slo_ok_frac", "ratio"),
];

/// Per-layer metrics (traced run) and their units. A layer a workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("op_tail_ms", "ms"),
    ("op_tail_pct", "pct"),
    ("op_samples", "count"),
    ("data.sample_ms", "ms"),
    ("data.index_build_ms", "ms"),
    ("data.eval_ms", "ms"),
    ("data.eval_busy_ms", "ms"),
    ("data.eval_count", "count"),
    ("data.positive_frac", "ratio"),
    ("ml.train_ms", "ms"),
    ("ml.compile_ms", "ms"),
    ("ml.kde_fit_ms", "ms"),
    ("ml.holdout_rmse", "stat"),
    ("ml.predict_ms", "ms"),
    ("ml.predict_busy_ms", "ms"),
    ("ml.predict_rows", "count"),
    ("ml.predict_ns_per_row", "ns"),
    ("ml.predict_us_per_req", "us"),
    ("optim.density_ms", "ms"),
    ("optim.density_busy_ms", "ms"),
    ("optim.density_calls", "count"),
    ("optim.gso_self_ms", "ms"),
    ("optim.iterations", "count"),
    ("optim.swarm_valid_frac", "ratio"),
    ("core.fallback_frac", "ratio"),
    ("core.regions_returned", "count"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.recv_parse_p50_us", "us"),
    ("serve.recv_parse_p99_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.batch_wait_p50_us", "us"),
    ("serve.batch_wait_p99_us", "us"),
    ("serve.kernel_p50_us", "us"),
    ("serve.kernel_p99_us", "us"),
    ("serve.write_flush_p50_us", "us"),
    ("serve.write_flush_p99_us", "us"),
    ("serve.batch_rows", "count"),
    ("serve.admission_rejects", "count"),
    ("client.late_max_ms", "ms"),
    ("client.late_p99_ms", "ms"),
    ("error_frac", "ratio"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.accounted_frac", "ratio"),
    ("trace.within_tolerance", "bool"),
];

/// Largest relative gap between the per-layer self times and the untraced op time that the
/// traced run accepts as accounting for it.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Setups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
pub struct Options {
    pub workload: String,
    pub workload_seed: u64,
    pub run_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Ops attempted and failed (an `Err` from fit or mine; a non-200, 503, timeout or
    /// unsent request on serve).
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output checksums by op, compared across runs of the same build.
    pub checksums: BTreeMap<String, String>,
    /// Correctness failures; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

const USAGE: &str = "usage: surfbench --workload <explore|fit|serve> --seed <n> --seconds <s> \
                     --trace <0|1> [--workload-seed <n>]";

fn parse_args() -> Result<Options, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(name.to_string(), value);
    }
    let get = |name: &str| values.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    let options = Options {
        workload: get("workload")?.clone(),
        workload_seed: match values.get("workload-seed") {
            Some(_) => number("workload-seed")?,
            None => task::PRIMARY_WORKLOAD_SEED,
        },
        run_seed: number("seed")?,
        seconds: number("seconds")? as f64,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    };
    let known = ["workload", "workload-seed", "seed", "seconds", "trace"];
    if let Some(unknown) = values.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{unknown}"));
    }
    if options.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(options)
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|line| line.ends_with(reference))
                            .and_then(|line| line.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unavailable (not a git checkout)".into()
    } else {
        sha.to_string()
    }
}

/// Where and how a result was produced, printed ahead of it.
#[derive(Serialize)]
struct Provenance {
    git_sha: String,
    nproc: usize,
    isa_flags: Vec<String>,
    profile: String,
    workload: String,
    workload_seed: u64,
    held_out_workload_seed: u64,
    run_seed: u64,
    seconds: f64,
    trace: bool,
    serve_offered_rate_per_s: f64,
    serve_predict_slo_ms: f64,
}

#[derive(Serialize)]
struct ProvenanceLine {
    provenance: Provenance,
}

#[derive(Serialize)]
struct Measured {
    value: f64,
    unit: String,
}

/// The result line: the last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

fn provenance(options: &Options) -> ProvenanceLine {
    ProvenanceLine {
        provenance: Provenance {
            git_sha: git_sha(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            isa_flags: measure::cpu_isa_flags(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
            workload: options.workload.clone(),
            workload_seed: options.workload_seed,
            held_out_workload_seed: task::HELD_OUT_WORKLOAD_SEED,
            run_seed: options.run_seed,
            seconds: options.seconds,
            trace: options.trace,
            serve_offered_rate_per_s: task::SERVE_RATE_PER_S,
            serve_predict_slo_ms: task::PREDICT_SLO_MS,
        },
    }
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

/// Compares this run's checksums with those earlier runs of the same build recorded for
/// the same task, then records the union. Every run seed orders the same task, so every
/// recorded checksum must repeat exactly.
fn check_determinism(options: &Options, report: &mut Report) {
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| Checksum::default().bytes(&bytes).hex())
        .unwrap_or_default();
    let dir = Path::new(".bench_state");
    let path = dir.join(format!(
        "{}-w{}-s{}-{build}.json",
        options.workload, options.workload_seed, options.seconds
    ));
    let mut recorded: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();
    for (key, value) in &report.checksums {
        match recorded.get(key) {
            Some(before) if before != value => report.mismatches.push(format!(
                "determinism: `{key}` was {before} in an earlier run, now {value}"
            )),
            Some(_) => {}
            None => {
                recorded.insert(key.clone(), value.clone());
            }
        }
    }
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let text = serde_json::to_string(&recorded).map_err(std::io::Error::other)?;
        std::fs::write(&path, text)
    });
    if let Err(e) = written {
        eprintln!(
            "surfbench: cannot record checksums in {}: {e}",
            path.display()
        );
    }
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("surfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workload.as_str() {
        "explore" => explore::run(&options),
        "fit" => fit::run(&options),
        "serve" => serve::run(&options),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("surfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    check_determinism(&options, &mut report);

    let ok = report.attempted.saturating_sub(report.failed) as f64;
    let attempted = report.attempted.max(1) as f64;
    report.metrics.insert("ok_frac", ok / attempted);
    report
        .metrics
        .insert("error_frac", report.failed as f64 / attempted);
    report
        .metrics
        .insert("peak_rss_mb", measure::peak_rss_mib());

    println!("{}", to_json(&provenance(&options)));
    for note in &report.notes {
        println!("{note}");
    }
    for mismatch in &report.mismatches {
        eprintln!("surfbench: MISMATCH {mismatch}");
    }
    let table: &[(&str, &str)] = if options.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = BTreeMap::new();
    for &(name, unit) in table {
        let value = match (report.metrics.get(name), options.trace) {
            (Some(&value), _) if value.is_finite() => value,
            (None, true) => 0.0,
            _ => {
                eprintln!("surfbench: workload did not measure `{name}`");
                return ExitCode::FAILURE;
            }
        };
        let unit = unit.to_string();
        metrics.insert(name.to_string(), Measured { value, unit });
    }
    let correct = report.mismatches.is_empty();
    let result = ResultLine {
        correct,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics,
    };
    println!("{}", to_json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
