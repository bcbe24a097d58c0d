//! The repository's benchmark: runs one named workload through the public
//! entry points (`SweepSession`, `PlannedSweep`, `Store`) down to a verified
//! table fingerprint, and prints its metrics as one JSON line.
//!
//! ```text
//! ladder --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` alternates untraced jobs with traced ones — the same work as
//! a sequence of public layer calls, each inside a span recorded here, with
//! the program's own `anonrv-obs` counters switched on — and prints the
//! per-layer metrics.  See README.md for the workloads and metrics.

mod pins;
mod torus;
mod trace;
mod universal;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use anonrv_obs::MetricsSnapshot;

use trace::{self_time_by_job, totals_by_name, Tracer, Unit};
use workload::{JobReport, Size};

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have taken
/// less than `SETUP_SECONDS` in all; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 1.0;

/// The layers whose self time the traced run reports, with its metric name.
const LAYERS: [(&str, &str); 6] = [
    ("graph", "graph.self_s"),
    ("plan", "plan.self_s"),
    ("sim", "sim.self_s"),
    ("core", "core.self_s"),
    ("uxs", "uxs.self_s"),
    ("store", "store.self_s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// One run's result: the last line the benchmark prints.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The file system type of the mount holding `path`.
fn file_system(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let sep = fields.iter().position(|&f| f == "-")?;
            Some((*fields.get(4)?, *fields.get(sep + 1)?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    work: &Path,
) -> Result<Outcome, String> {
    let mut w = workload::make(name, seed, size, work)
        .ok_or_else(|| format!("unknown workload {name:?} (known: {:?})", workload::NAMES))?;
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let tracer = Tracer::new(traced);
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        tracer.set_unit(Unit::Setup(setup_s.len()));
        let start = Instant::now();
        w.setup(&tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    w.prepare()?;
    eprintln!(
        "ladder: {name}: {}; nproc {}, rayon workers {}, store file system {}",
        w.describe(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        rayon::current_num_threads(),
        file_system(work)
    );

    let off = Tracer::new(false);
    let mut untraced: Vec<JobReport> = Vec::new();
    let mut traced_jobs: Vec<(JobReport, MetricsSnapshot)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let begin = Instant::now();
    loop {
        let enough =
            if traced { !untraced.is_empty() && !traced_jobs.is_empty() } else { attempted > 0 };
        if enough && begin.elapsed() >= budget {
            break;
        }
        attempted += 1;
        let traced_job = traced && attempted % 2 == 0;
        let result = if traced_job {
            tracer.set_unit(Unit::Job(attempted));
            let guard = anonrv_obs::install(anonrv_obs::ObsConfig::metrics_only())
                .map_err(|e| format!("cannot switch telemetry on: {e}"))?;
            let result = w.job(&tracer);
            let snapshot = anonrv_obs::snapshot();
            drop(guard);
            result.map(|report| traced_jobs.push((report, snapshot)))
        } else {
            w.job(&off).map(|report| untraced.push(report))
        };
        if let Err(e) = result {
            failed += 1;
            eprintln!("ladder: {name}: job {attempted} failed: {e}");
        }
    }

    let job_s: Vec<f64> = untraced.iter().map(|r| r.job_s).collect();
    eprintln!(
        "ladder: {name}: {} untraced jobs, job_s {:?}; setup_s {:?}; failed_ratio {}",
        job_s.len(),
        job_s,
        setup_s,
        failed as f64 / attempted as f64
    );
    let metrics = if traced {
        let spans = tracer.spans();
        let spans_path = work.with_file_name(format!("spans-{name}-seed{seed}.jsonl"));
        match tracer.write_jsonl(&spans_path) {
            Ok(()) => eprintln!("ladder: {name}: spans written to {}", spans_path.display()),
            Err(e) => eprintln!("ladder: {name}: cannot write spans: {e}"),
        }
        layer_metrics(&spans, &traced_jobs, median(&job_s))
    } else {
        let cache: Vec<f64> = untraced.iter().map(|r| r.cache_bytes as f64).collect();
        vec![
            ("job_s", median(&job_s), "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mib(), "MiB"),
            ("cache_mb", median(&cache) / (1 << 20) as f64, "MiB"),
        ]
    };
    Ok(Outcome { attempted, failed, metrics })
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    spans: &[trace::Span],
    jobs: &[(JobReport, MetricsSnapshot)],
    untraced_job_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let totals = totals_by_name(spans);
    let timed = |span: &str| totals.get(span).map_or(0.0, |v| median(v));
    let per_job = |f: &dyn Fn(&JobReport, &MetricsSnapshot) -> f64| {
        median(&jobs.iter().map(|(r, s)| f(r, s)).collect::<Vec<_>>())
    };
    let hist_sum = |s: &MetricsSnapshot, name: &str| s.histogram(name).map_or(0, |h| h.sum) as f64;
    let merge_segments =
        per_job(&|r, s| (s.counter("merge.segments") + r.uncounted_merge_segments) as f64);
    let merge_s = timed("sim.merge");
    let selves = self_time_by_job(spans);
    let layer_self = |layer: &str| {
        median(&selves.values().map(|m| m.get(layer).copied().unwrap_or(0.0)).collect::<Vec<_>>())
    };
    let traced_job_s = timed("job");
    let mut m = vec![
        ("graph.build_s", timed("graph.build"), "s"),
        ("graph.hash_s", timed("graph.hash"), "s"),
        ("plan.orbits_s", timed("plan.orbits"), "s"),
        ("plan.pair_classes", per_job(&|r, _| r.pair_classes as f64), "count"),
        ("plan.compression", per_job(&|r, _| r.compression), "ratio"),
        ("sim.record_s", timed("sim.record"), "s"),
        ("sim.record_segments", per_job(&|_, s| s.counter("record.segments") as f64), "count"),
        ("sim.record_moves", per_job(&|_, s| s.counter("record.moves") as f64), "count"),
        ("sim.timeline_bytes", per_job(&|r, _| r.recorded_timeline_bytes as f64), "B"),
        ("sim.merge_s", merge_s, "s"),
        ("sim.merge_segments", merge_segments, "count"),
        (
            "sim.merge_calls",
            per_job(&|r, s| {
                (s.counter("merge.calls")
                    + s.counter("merge.delta_passes")
                    + s.counter("merge.extend.calls")
                    + r.uncounted_merge_calls) as f64
            }),
            "count",
        ),
        (
            "sim.merge_segments_per_s",
            if merge_s > 0.0 { merge_segments / merge_s } else { 0.0 },
            "1/s",
        ),
        ("core.classify_s", timed("core.classify"), "s"),
        ("uxs.cover_s", timed("uxs.cover"), "s"),
        ("store.timelines_write_s", timed("store.timelines_write"), "s"),
        ("store.table_write_s", timed("store.table_write"), "s"),
        ("store.bytes_written", per_job(&|_, s| hist_sum(s, "store.write.bytes")), "B"),
        ("store.probe_s", timed("store.probe"), "s"),
        ("store.timelines_read_s", timed("store.timelines_read"), "s"),
        ("store.bytes_read", per_job(&|_, s| hist_sum(s, "store.read.bytes")), "B"),
        ("store.fingerprint_s", timed("store.fingerprint"), "s"),
        ("job.traced_s", traced_job_s, "s"),
        ("job.uncovered_s", layer_self("job"), "s"),
        ("obs.overhead_pct", (traced_job_s / untraced_job_s - 1.0) * 100.0, "%"),
    ];
    for (layer, name) in LAYERS {
        m.push((name, layer_self(layer), "s"));
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "ladder: {e}\nusage: ladder --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // stores and span files stay inside the directory the benchmark runs in
    let work =
        PathBuf::from(".ladder-work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args.workload, args.seed, args.seconds, args.trace, Size::Full, &work);
    std::fs::remove_dir_all(&work).ok();
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ladder: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonrv_obs::json::{parse, Value};

    /// A work directory of its own for each test and workload: tests run
    /// on parallel threads.
    fn work_dir(test: &str, workload: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.ladder-work")
            .join(format!("selftest-{}-{test}-{workload}", std::process::id()))
    }

    fn declared() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(v: &Value, key: &str) -> Vec<String> {
        let mut out: Vec<String> = v
            .get(key)
            .and_then(Value::as_array)
            .expect("a list")
            .iter()
            .map(|e| e.get("name").and_then(Value::as_str).expect("a name").to_string())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn every_workload_passes_its_gates_and_prints_exactly_the_declared_metrics() {
        let declared = declared();
        let mut workloads: Vec<String> = workload::NAMES.iter().map(|s| s.to_string()).collect();
        workloads.sort();
        assert_eq!(names(&declared, "workloads"), workloads);
        for name in workload::NAMES {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let work = work_dir("metrics", name);
                let out = run(name, 3, 0.0, traced, Size::Small, &work).expect("run");
                std::fs::remove_file(work.with_file_name(format!("spans-{name}-seed3.jsonl"))).ok();
                std::fs::remove_dir_all(&work).ok();
                assert_eq!(out.failed, 0, "{name} failed a gate");
                let mut printed: Vec<String> =
                    out.metrics.iter().map(|m| m.0.to_string()).collect();
                printed.sort();
                assert_eq!(printed, names(&declared, key), "{name}, trace {traced}");
                let line = parse(&out.to_json()).expect("the result line is JSON");
                assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
            }
        }
    }

    #[test]
    fn gates_fire_on_a_corrupted_fingerprint() {
        let off = Tracer::new(false);
        for name in workload::NAMES {
            let work = work_dir("gates", name);
            std::fs::create_dir_all(&work).unwrap();
            let mut w = workload::make(name, 0, Size::Small, &work).unwrap();
            w.setup(&off).unwrap();
            w.prepare().unwrap();
            w.job(&off).unwrap_or_else(|e| panic!("{name}: {e}"));
            w.corrupt_reference();
            assert!(w.job(&off).is_err(), "{name}: the gate let a corrupted fingerprint pass");
            std::fs::remove_dir_all(&work).ok();
        }
    }

    #[test]
    fn arguments_parse_as_documented() {
        let args = ["--workload", "torus-warm", "--seed", "7", "--seconds", "10", "--trace", "1"];
        let a = parse_args(args.iter().map(|s| s.to_string())).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("torus-warm", 7, 10.0, true)
        );
        assert!(parse_args(["--seed", "x"].iter().map(|s| s.to_string())).is_err());
    }
}
