//! In-process fault-injection tests: arm failpoints through
//! [`anonrv::store::fault::scoped`] and assert every degradation path the
//! failure model promises — supervised retries heal persist failures, torn
//! writes leave only reclaimable debris, unreadable frames degrade to
//! recompute without quarantining intact files, and stragglers are counted
//! without breaking convergence.  (Real process deaths are covered by the
//! `crash_recovery` harness; these tests stay in-process so they can
//! inspect reports and stats.)

use anonrv::graph::generators::oriented_torus;
use anonrv::plan::SweepPlan;
use anonrv::sim::{EngineConfig, Round, SweepWalker};
use anonrv::store::{
    fault, table_fingerprint, OutcomeProvenance, Store, SuperviseConfig, SweepSession,
};

const KEY: &str = "fault-walker-5eed";
const HORIZON: Round = 32;

fn walker() -> SweepWalker {
    SweepWalker { seed: 0x5EED }
}

/// Unique, self-deleting scratch directory per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("anonrv-fault-injection-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn reference_fingerprint(g: &anonrv::graph::PortGraph, deltas: Vec<Round>) -> u64 {
    let program = walker();
    let mut session = SweepSession::in_memory(g, &program, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), deltas, HORIZON);
    table_fingerprint(session.run_plan(&plan).unwrap().0.table())
}

#[test]
fn injected_persist_failures_retry_until_the_table_matches_undisturbed() {
    let dir = TempDir::new("persist-retry");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let reference = reference_fingerprint(&g, vec![0, 1]);

    // the first shard persist dies; the supervisor's probe sees the gap
    // and re-runs exactly that slice
    let guard = fault::scoped("shard.persist=io-error:1");
    let config = SuperviseConfig {
        base_backoff: std::time::Duration::from_millis(1),
        ..SuperviseConfig::default()
    };
    let program = walker();
    let mut session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
    let (merged, report) = session.run_sharded_supervised(&plan, 2, config).unwrap();
    drop(guard);

    assert_eq!(report.retried, vec![0], "exactly the failed slice retries");
    assert_eq!(report.attempts, 3);
    assert_eq!(
        table_fingerprint(merged.table()),
        reference,
        "healed run diverged from the undisturbed table"
    );
}

#[test]
fn torn_writes_leave_only_reclaimable_debris_and_never_publish() {
    let dir = TempDir::new("torn-write");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let reference = reference_fingerprint(&g, vec![0, 1]);
    let program = walker();

    // every temp-file write persists only its first 57 bytes, then fails:
    // no artifact may ever be published from a torn buffer
    let guard = fault::scoped("store.write_tmp=torn-write-57");
    let mut session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
    let err = session.run_plan(&plan).unwrap_err();
    assert!(err.contains("injected"), "{err}");
    drop(guard);
    // hold the failpoint lock with nothing armed for the rest of the test,
    // so a concurrent test's failpoints cannot fire in the clean rerun
    let _quiet = fault::scoped("");

    // the rename never ran: nothing under an artifact name, only torn temps
    let (tmps, frames): (Vec<_>, Vec<_>) = std::fs::read_dir(&dir.0)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .partition(|p| p.to_string_lossy().contains(".tmp"));
    assert!(!tmps.is_empty(), "torn writes must leave their temp debris");
    assert!(frames.is_empty(), "a torn buffer must never be published: {frames:?}");
    for tmp in &tmps {
        assert!(
            std::fs::metadata(tmp).unwrap().len() <= 57,
            "torn temp holds more than the injected prefix"
        );
    }

    // gc reclaims the debris, and a clean rerun converges
    store.gc_with_min_age(std::time::Duration::ZERO).unwrap();
    assert!(
        std::fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .all(|e| !e.file_name().to_string_lossy().contains(".tmp")),
        "gc must reclaim torn temps"
    );
    let mut clean =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let (outcomes, _) = clean.run_plan(&plan).unwrap();
    assert_eq!(table_fingerprint(outcomes.table()), reference);
}

#[test]
fn unreadable_frames_degrade_to_recompute_without_quarantining_intact_files() {
    let dir = TempDir::new("read-error");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let program = walker();

    // populate a warm cache first, holding the failpoint lock with nothing
    // armed so a concurrent test's failpoints cannot fire here
    let quiet = fault::scoped("");
    let mut seed_session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(seed_session.orbits().clone(), vec![0, 1], HORIZON);
    let (seeded, prov) = seed_session.run_plan(&plan).unwrap();
    assert_eq!(prov, OutcomeProvenance::Cold);
    let reference = table_fingerprint(seeded.table());
    drop(quiet);

    // a failing disk: every frame read errors.  Loads must degrade to a
    // miss (recompute), never to wrong data — and must not quarantine
    // files that are merely unreadable, not damaged.
    let guard = fault::scoped("store.read_frame=io-error");
    let mut session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
    let (recomputed, prov) = session.run_plan(&plan).unwrap();
    assert_eq!(prov, OutcomeProvenance::Cold, "unreadable frames must look like misses");
    assert_eq!(table_fingerprint(recomputed.table()), reference);
    drop(guard);

    let _quiet = fault::scoped("");
    assert_eq!(store.stats().unwrap().quarantined.files, 0, "intact files were quarantined");
    // with the fault gone the (rewritten) cache serves warm again
    let mut warm = SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let (_, prov) = warm.run_plan(&plan).unwrap();
    assert_eq!(prov, OutcomeProvenance::WarmExact);
}

#[test]
fn stragglers_past_the_deadline_are_counted_but_still_converge() {
    let dir = TempDir::new("straggler");
    let store = Store::open(&dir.0).unwrap();
    let g = oriented_torus(3, 3).unwrap();
    let reference = reference_fingerprint(&g, vec![0, 1]);
    let program = walker();

    // every slice dawdles past a 1 ms deadline; the supervisor counts the
    // stragglers (observationally — completed-late work is kept) and the
    // run still converges without retries
    let guard = fault::scoped("shard.execute=delay-30");
    let config = SuperviseConfig {
        shard_deadline: std::time::Duration::from_millis(1),
        base_backoff: std::time::Duration::from_millis(1),
        ..SuperviseConfig::default()
    };
    let mut session =
        SweepSession::new(Some(&store), &g, &program, KEY, EngineConfig::batch(HORIZON));
    let plan = SweepPlan::from_orbits(session.orbits().clone(), vec![0, 1], HORIZON);
    let (merged, report) = session.run_sharded_supervised(&plan, 2, config).unwrap();
    drop(guard);

    assert_eq!(report.timed_out, 2, "both dawdling slices are counted");
    assert!(report.retried.is_empty(), "late is not failed: no retries");
    assert_eq!(table_fingerprint(merged.table()), reference);
}
