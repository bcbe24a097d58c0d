//! Workspace-level telemetry tests: the metrics registry under concurrent
//! hammering from rayon and supervisor-style threads (exact counts, no
//! torn histograms), a JSONL trace round-trip through a real supervised
//! sweep (every line parses, schema-versioned, span nesting well-formed),
//! a fault-injected supervised run whose retry events and failpoint
//! trips match the injected failures record for record, and exact
//! `merge.*` δ-sweep counters on the materialised and the streamed sweep.
//!
//! Every test installs its own pipeline via [`anonrv::obs::install`]; the
//! guard serializes installs, so the per-test metrics and sinks cannot
//! interleave even though the test harness runs threads in parallel.

use anonrv::graph::generators::oriented_torus;
use anonrv::obs::{self, MemorySink, ObsConfig};
use anonrv::plan::SweepPlan;
use anonrv::sim::{EngineConfig, Round, SweepWalker};
use anonrv::store::{fault, table_fingerprint, Store, SuperviseConfig, SweepSession};
use rayon::prelude::*;

const KEY: &str = "obs-walker-5eed";
const HORIZON: Round = 32;

/// Unique, self-deleting scratch directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("anonrv-observability-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn registry_survives_concurrent_hammering_with_exact_counts() {
    let _g = obs::install(ObsConfig::metrics_only()).unwrap();

    const RAYON_TASKS: usize = 64;
    const THREADS: usize = 4;
    const PER: u64 = 1_000;

    // a rayon pool (the sweep executor's concurrency) and plain spawned
    // threads (the supervisor's) hammer the same names simultaneously
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER {
                    obs::counter_add("hammer.count", 1);
                    obs::observe("hammer.hist", i);
                }
            });
        }
        let done: Vec<usize> = (0..RAYON_TASKS)
            .into_par_iter()
            .map(|task| {
                for i in 0..PER {
                    obs::counter_add("hammer.count", 1);
                    obs::observe("hammer.hist", i);
                }
                task
            })
            .collect();
        assert_eq!(done.len(), RAYON_TASKS);
    });

    let snap = obs::snapshot();
    let total = (RAYON_TASKS + THREADS) as u64 * PER;
    assert_eq!(snap.counter("hammer.count"), total, "counter lost increments");

    let h = snap.histogram("hammer.hist").expect("histogram recorded");
    assert_eq!(h.count, total, "histogram lost observations");
    assert_eq!(
        h.sum,
        (RAYON_TASKS + THREADS) as u64 * (PER * (PER - 1) / 2),
        "histogram sum drifted"
    );
    assert_eq!((h.min, h.max), (0, PER - 1));
    // not torn: the per-bucket counts account for every observation (this
    // is the same invariant `report_check` enforces on emitted snapshots)
    let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, h.count);
}

#[test]
fn supervised_sweep_trace_round_trips_with_well_formed_nesting() {
    let dir = TempDir::new("trace");
    std::fs::create_dir_all(&dir.0).unwrap();
    let trace_path = dir.0.join("trace.jsonl");
    let store = Store::open(dir.0.join("cache")).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = SweepWalker { seed: 0x5EED };

    let report = {
        let _g = obs::install(ObsConfig::trace_file(&trace_path)).unwrap();
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
        let (_, report) =
            session.run_sharded_supervised(&plan, 2, SuperviseConfig::default()).unwrap();
        report
    }; // guard dropped: the sink is flushed before we read the file

    let content = std::fs::read_to_string(&trace_path).unwrap();
    // validate_trace parses every line, requires the header first, checks
    // the record version, span-id uniqueness, dangling parents and
    // parent/child interval containment
    let summary = obs::report::validate_trace(&content).expect("trace must validate");
    assert!(summary.spans > 0, "the sweep opened no spans");
    assert_eq!(
        summary.event_count("supervisor.attempt"),
        report.attempts_log.len() as u64,
        "one trace event per supervised attempt"
    );

    // spot-check the stream shape directly too: first line is the header,
    // every subsequent record is a span or event carrying v == 1
    let mut lines = content.lines();
    let header = obs::json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(header.get("kind").unwrap().as_str(), Some("header"));
    assert_eq!(
        header.get("schema").unwrap().as_str(),
        Some(obs::report::TRACE_SCHEMA),
        "trace header must carry the schema version"
    );
    for line in lines {
        let v = obs::json::parse(line).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1));
        assert!(matches!(v.get("kind").unwrap().as_str(), Some("span" | "event")));
    }
}

#[test]
fn injected_faults_surface_as_matching_retry_rows_trips_and_events() {
    let dir = TempDir::new("faults");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = SweepWalker { seed: 0x5EED };
    let sink = MemorySink::shared();

    // install the pipeline first, then arm the failpoint: both scopes
    // serialize on their own registries, and this order matches the CLI's
    // (telemetry outermost)
    let (report, snap) = {
        let _g = obs::install(ObsConfig::with_sink(sink.clone())).unwrap();
        let _fault = fault::scoped("shard.persist=io-error:1");
        let config = SuperviseConfig {
            base_backoff: std::time::Duration::from_millis(1),
            ..SuperviseConfig::default()
        };
        let mut session =
            SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
        let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
        let (_, report) = session.run_sharded_supervised(&plan, 2, config).unwrap();
        (report, obs::snapshot())
    };

    // the structured rows record the injected failure exactly: shard 0
    // fails its first persist, backs off, succeeds on the second try
    assert_eq!(report.retried, vec![0]);
    let shard0: Vec<_> = report.attempts_log.iter().filter(|r| r.shard == 0).collect();
    assert_eq!(shard0.len(), 2);
    assert_eq!((shard0[0].attempt, shard0[0].outcome()), (1, "error"));
    assert_eq!((shard0[1].attempt, shard0[1].outcome()), (2, "ok"));

    // the armed failpoint tripped exactly once, and the counters agree
    // with the report
    assert_eq!(snap.counter("fault.trip.shard.persist"), 1, "one injected trip");
    assert_eq!(snap.counter("supervisor.attempts"), report.attempts as u64);
    assert_eq!(snap.counter("supervisor.retries"), 1);

    // every supervisor.attempt event in the trace matches its row field
    // for field (same single source, two renderings)
    let events: Vec<(u64, u64, String)> = sink
        .lines()
        .iter()
        .filter_map(|line| {
            let v = obs::json::parse(line).ok()?;
            if v.get("kind")?.as_str()? != "event"
                || v.get("name")?.as_str()? != "supervisor.attempt"
            {
                return None;
            }
            let fields = v.get("fields")?;
            Some((
                fields.get("shard")?.as_u64()?,
                fields.get("attempt")?.as_u64()?,
                fields.get("outcome")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let rows: Vec<(u64, u64, String)> = report
        .attempts_log
        .iter()
        .map(|r| (r.shard as u64, r.attempt as u64, r.outcome().to_string()))
        .collect();
    assert_eq!(events, rows, "trace events and report rows diverged");
}

#[test]
fn streamed_and_materialised_sweeps_count_one_delta_pass_per_class() {
    let g = oriented_torus(8, 8).unwrap();
    let program = SweepWalker { seed: 0x5EED };
    let deltas: Vec<Round> = vec![0, 1, 2, 3];
    let config = EngineConfig::batch(HORIZON);

    // the materialised table: one δ-sweep pass per representative class
    let (table_fp, classes, t0_segments, materialised) = {
        let _g = obs::install(ObsConfig::metrics_only()).unwrap();
        let mut session = SweepSession::in_memory(&g, &program, config);
        let plan = SweepPlan::from_orbits(session.orbits().clone(), deltas.clone(), HORIZON);
        let (outcomes, _) = session.run_plan(&plan).unwrap();
        let t0_segments = session.engine().cache().timeline(0).num_segments();
        (
            table_fingerprint(outcomes.table()),
            plan.orbits().num_pair_classes(),
            t0_segments,
            obs::snapshot(),
        )
    };
    // the streamed sweep of the same plan, in several chunks, counted once
    // per chunk
    let (streamed_fp, streamed) = {
        let _g = obs::install(ObsConfig::metrics_only()).unwrap();
        let mut session = SweepSession::in_memory(&g, &program, config);
        let plan = SweepPlan::from_orbits(session.orbits().clone(), deltas.clone(), HORIZON);
        let summary = session.run_streamed(&plan, 10).unwrap();
        assert_eq!(summary.classes, classes);
        (summary.fingerprint, obs::snapshot())
    };
    assert_eq!(streamed_fp, table_fp, "the two routes ran the same sweep");
    assert_eq!(classes, 64, "torus:8x8 has one pair class per group element");

    for (route, snap) in [("materialised", &materialised), ("streamed", &streamed)] {
        assert_eq!(snap.counter("merge.delta_passes"), classes as u64, "{route}");
        assert_eq!(snap.counter("merge.deltas"), (classes * deltas.len()) as u64, "{route}");
        // every start node's walk is an image of node 0's, so every pass
        // covers 2·|timeline(0)| segments
        assert_eq!(snap.counter("merge.segments"), (classes * 2 * t0_segments) as u64, "{route}");
    }
}
