//! The torus workloads: the cold and warm all-pairs sweep of
//! `ExpensiveWalker` on `torus:64x64`, and the streamed `SweepWalker` sweep
//! of `torus:1024x1024`.

use std::path::PathBuf;
use std::time::Instant;

use anonrv_bench::ExpensiveWalker;
use anonrv_graph::generators::oriented_torus;
use anonrv_graph::{NodeId, PortGraph};
use anonrv_plan::{PairOrbits, PlannedOutcomes, PlannedSweep, SweepPlan};
use anonrv_sim::{EngineConfig, Round, SimOutcome, SweepWalker};
use anonrv_store::{
    table_fingerprint, OutcomeProvenance, Provenance, Store, SweepSession, TableFingerprinter,
};

use crate::trace::Tracer;
use crate::workload::{
    cache_timeline_bytes, dir_bytes, fresh_dir, prerecord, walker_seed, JobReport, Size, Workload,
};

/// Graph, orbits and plan: the set-up every torus workload shares.
struct Planned {
    graph: PortGraph,
    orbits: PairOrbits,
    plan: SweepPlan,
}

fn plan_torus(
    t: &Tracer,
    side: usize,
    deltas: &[Round],
    horizon: Round,
) -> Result<Planned, String> {
    let graph = t.span("graph.build", || oriented_torus(side, side)).map_err(|e| e.to_string())?;
    // the identity every store artifact of the graph is keyed on
    std::hint::black_box(t.span("graph.hash", || graph.canonical_hash()));
    let orbits = t.span("plan.orbits", || PairOrbits::compute(&graph));
    let plan = SweepPlan::from_orbits(orbits.clone(), deltas.to_vec(), horizon);
    Ok(Planned { graph, orbits, plan })
}

fn plan_counts(plan: &SweepPlan) -> (u64, f64) {
    let classes = plan.orbits().num_pair_classes() as u64;
    let compression = plan.num_member_queries() as f64 / plan.num_representative_queries() as f64;
    (classes, compression)
}

/// `torus-cold` and `torus-warm`: all ordered pairs × δ 0..4 at horizon
/// 256 on `torus:64x64`, recorded by `ExpensiveWalker` (cost 2048).
pub struct TorusSweep {
    warm: bool,
    side: usize,
    horizon: Round,
    deltas: Vec<Round>,
    program: ExpensiveWalker,
    key: String,
    work: PathBuf,
    planned: Option<Planned>,
    setups: usize,
    /// The store seeded during set-up with a recording at twice the
    /// horizon (`torus-warm` only).
    seeded: Option<Store>,
    /// The table of a storeless `PlannedSweep::run`, and its fingerprint.
    reference: Vec<SimOutcome>,
    reference_fp: u64,
    /// Start nodes of the representative queries: what a cold job records.
    record_nodes: Vec<NodeId>,
    jobs: usize,
}

impl TorusSweep {
    pub fn new(warm: bool, seed: u64, size: Size, work: PathBuf) -> Self {
        let (side, horizon, deltas, cost) = match size {
            Size::Full => (64, 256, 5, 2048),
            Size::Small => (8, 32, 3, 16),
        };
        let program = ExpensiveWalker { seed: walker_seed(seed), cost };
        TorusSweep {
            warm,
            side,
            horizon,
            deltas: (0..deltas).collect(),
            key: program.program_key(),
            program,
            work,
            planned: None,
            setups: 0,
            seeded: None,
            reference: Vec::new(),
            reference_fp: 0,
            record_nodes: Vec::new(),
            jobs: 0,
        }
    }

    fn planned(&self) -> Result<&Planned, String> {
        self.planned.as_ref().ok_or_else(|| "job before set-up".to_string())
    }

    fn check_table(&self, table: &[SimOutcome]) -> Result<u64, String> {
        let fp = table_fingerprint(table);
        if fp != self.reference_fp {
            return Err(format!(
                "fingerprint {fp:016x} differs from the storeless run's {:016x}",
                self.reference_fp
            ));
        }
        if self.warm && table != self.reference.as_slice() {
            return Err("the prefix-served table differs from the cold one".into());
        }
        Ok(fp)
    }

    fn cold_job(&mut self, t: &Tracer) -> Result<JobReport, String> {
        let dir = fresh_dir(self.work.join(format!("cold-{}", self.jobs)))?;
        let result = self.cold_job_in(t, &dir);
        let cache_bytes = dir_bytes(&dir);
        std::fs::remove_dir_all(&dir).ok();
        result.map(|report| JobReport { cache_bytes, ..report })
    }

    fn cold_job_in(&self, t: &Tracer, dir: &std::path::Path) -> Result<JobReport, String> {
        let p = self.planned()?;
        let config = EngineConfig::batch(self.horizon);
        let start = Instant::now();
        let recorded_bytes = t.span("job", || -> Result<_, String> {
            let store = Store::open(dir).map_err(|e| e.to_string())?;
            let mut session = t.span("sim.open", || {
                SweepSession::with_orbits(
                    Some(&store),
                    &p.orbits,
                    Provenance::Cold,
                    &p.graph,
                    &self.program,
                    self.key.as_str(),
                    config,
                )
            });
            let table = if t.enabled() {
                // SweepSession::run_plan's cold path, one layer call at a time
                let engine = session.engine();
                t.span("store.timelines_read", || store.warm_engine(engine, &self.key));
                t.span("sim.record", || prerecord(engine, &self.record_nodes));
                let outcomes = t.span("sim.merge", || session.planned().run(&p.plan));
                t.span("store.timelines_write", || store.persist_engine(engine, &self.key))
                    .map_err(|e| e.to_string())?;
                t.span("store.table_write", || {
                    store.save_plan_outcomes(&p.graph, &self.key, &p.plan, outcomes.table())
                })
                .map_err(|e| e.to_string())?;
                outcomes.table().to_vec()
            } else {
                let (outcomes, provenance) = session.run_plan(&p.plan)?;
                if provenance != OutcomeProvenance::Cold {
                    return Err(format!("expected a cold run, got {provenance}"));
                }
                outcomes.table().to_vec()
            };
            t.span("store.fingerprint", || self.check_table(&table))?;
            let recorded_bytes = cache_timeline_bytes(session.engine());
            t.span("sim.free", || drop(session));
            Ok(recorded_bytes)
        })?;
        let job_s = start.elapsed().as_secs_f64();
        let (pair_classes, compression) = plan_counts(&p.plan);
        Ok(JobReport {
            job_s,
            recorded_timeline_bytes: recorded_bytes,
            pair_classes,
            compression,
            ..JobReport::default()
        })
    }

    fn warm_job(&self, t: &Tracer) -> Result<JobReport, String> {
        let p = self.planned()?;
        let store = self.seeded.as_ref().ok_or("no seeded store")?;
        let config = EngineConfig::batch(self.horizon);
        let start = Instant::now();
        t.span("job", || -> Result<(), String> {
            let mut session = t.span("sim.open", || {
                SweepSession::with_orbits(
                    Some(store),
                    &p.orbits,
                    Provenance::Warm,
                    &p.graph,
                    &self.program,
                    self.key.as_str(),
                    config,
                )
            });
            if t.enabled() {
                // SweepSession::run_plan's prefix-hit path, one layer call at a time
                let (table, recorded) = t
                    .span("store.probe", || {
                        store.load_plan_outcomes_any(&p.graph, &self.key, &p.plan)
                    })
                    .ok_or("the seeded outcome table is missing")?;
                let recorded_plan = SweepPlan::from_orbits(
                    p.plan.orbits().clone(),
                    p.plan.deltas().to_vec(),
                    recorded,
                );
                let engine = session.engine();
                let warmed =
                    t.span("store.timelines_read", || store.warm_engine(engine, &self.key));
                let (outcomes, _) = t.span("sim.merge", || {
                    let full = PlannedOutcomes::from_table(&recorded_plan, table)?;
                    session.planned().serve_prefix(&full, &p.plan)
                })?;
                let executed = engine.cache().computed() - warmed.installed;
                if executed != 0 {
                    return Err(format!("{executed} timelines were recorded on a warm job"));
                }
                t.span("store.fingerprint", || self.check_table(outcomes.table()))?;
            } else {
                let (outcomes, provenance) = session.run_plan(&p.plan)?;
                match provenance {
                    OutcomeProvenance::WarmPrefix { recorded, .. }
                        if recorded == 2 * self.horizon => {}
                    other => return Err(format!("expected a prefix hit, got {other}")),
                }
                let misses = session.stats().timeline_misses;
                if misses != 0 {
                    return Err(format!("{misses} timeline misses on a warm job"));
                }
                self.check_table(outcomes.table())?;
            }
            t.span("sim.free", || drop(session));
            Ok(())
        })?;
        let job_s = start.elapsed().as_secs_f64();
        let (pair_classes, compression) = plan_counts(&p.plan);
        Ok(JobReport {
            job_s,
            cache_bytes: dir_bytes(store.root()),
            pair_classes,
            compression,
            ..JobReport::default()
        })
    }
}

impl Workload for TorusSweep {
    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        self.planned = None;
        self.seeded = None;
        let planned = plan_torus(t, self.side, &self.deltas, self.horizon)?;
        if self.warm {
            // a cold run at twice the horizon leaves the timelines and the
            // outcome table every warm job is served from
            let dir = fresh_dir(self.work.join(format!("seed-{}", self.setups)))?;
            if self.setups > 0 {
                std::fs::remove_dir_all(self.work.join(format!("seed-{}", self.setups - 1))).ok();
            }
            let store = Store::open(&dir).map_err(|e| e.to_string())?;
            t.span("store.seed", || -> Result<(), String> {
                let long = 2 * self.horizon;
                let mut session = SweepSession::with_orbits(
                    Some(&store),
                    &planned.orbits,
                    Provenance::Cold,
                    &planned.graph,
                    &self.program,
                    self.key.as_str(),
                    EngineConfig::batch(long),
                );
                let plan =
                    SweepPlan::from_orbits(planned.orbits.clone(), self.deltas.clone(), long);
                session.run_plan(&plan).map(|_| ())
            })?;
            self.seeded = Some(store);
        }
        self.planned = Some(planned);
        self.setups += 1;
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        let p = self.planned()?;
        let storeless = PlannedSweep::with_orbits(
            &p.orbits,
            &p.graph,
            &self.program,
            EngineConfig::batch(self.horizon),
        );
        let reference = storeless.run(&p.plan).table().to_vec();
        if !reference.iter().any(|o| o.met()) {
            return Err("the reference sweep found no meetings".into());
        }
        let mut nodes: Vec<NodeId> =
            p.plan.representative_queries().flat_map(|(_, s)| [s.earlier, s.later]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        self.reference_fp = table_fingerprint(&reference);
        self.reference = reference;
        self.record_nodes = nodes;
        Ok(())
    }

    fn job(&mut self, t: &Tracer) -> Result<JobReport, String> {
        self.jobs += 1;
        if self.warm {
            self.warm_job(t)
        } else {
            self.cold_job(t)
        }
    }

    fn corrupt_reference(&mut self) {
        self.reference_fp ^= 1;
    }

    fn describe(&self) -> String {
        format!(
            "torus:{0}x{0}, {1} (seed {2:#x}, cost {3}), all pairs x delta 0..{4}, horizon {5}, {6}",
            self.side,
            self.program.program_key(),
            self.program.seed,
            self.program.cost,
            self.deltas.len() - 1,
            self.horizon,
            if self.warm { "prefix-served from a 2x-horizon store" } else { "fresh store per job" }
        )
    }
}

/// `torus-1m-streamed`: all ordered pairs of `torus:1024x1024` through
/// `SweepSession::run_streamed`, recorded by `SweepWalker`.
pub struct Streamed {
    seed: u64,
    side: usize,
    horizon: Round,
    deltas: Vec<Round>,
    program: SweepWalker,
    planned: Option<Planned>,
    /// `(met_total, fingerprint)` every job must reproduce: pinned per seed
    /// where a pin exists, else the first job's.
    expected: Option<(usize, u64)>,
}

/// Classes merged per streamed chunk (the chunk size of the CLI and the
/// old million-node timing row).
const CHUNK_CLASSES: usize = 4096;

impl Streamed {
    pub fn new(seed: u64, size: Size) -> Self {
        let (side, horizon, deltas) = match size {
            Size::Full => (1024, STREAM_HORIZON, STREAM_DELTAS),
            Size::Small => (16, 32, 3),
        };
        Streamed {
            seed,
            side,
            horizon,
            deltas: (0..deltas).collect(),
            program: SweepWalker { seed: walker_seed(seed) },
            planned: None,
            expected: (size == Size::Full).then(|| crate::pins::streamed(seed)).flatten(),
        }
    }
}

/// Horizon and δ grid of the full-size streamed sweep.
pub const STREAM_HORIZON: Round = 256;
pub const STREAM_DELTAS: Round = 4;

impl Workload for Streamed {
    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        self.planned = None;
        let planned = plan_torus(t, self.side, &self.deltas, self.horizon)?;
        if !planned.orbits.is_implicit() {
            return Err("the torus generator did not stamp its closed-form group".into());
        }
        self.planned = Some(planned);
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        // the streamed route must reproduce the materialised table's
        // fingerprint; checked once on a torus small enough to materialise
        let small = oriented_torus(16, 16).map_err(|e| e.to_string())?;
        let orbits = PairOrbits::compute(&small);
        let plan = SweepPlan::from_orbits(orbits.clone(), self.deltas.clone(), self.horizon);
        let config = EngineConfig::batch(self.horizon);
        let materialised = table_fingerprint(
            PlannedSweep::with_orbits(&orbits, &small, &self.program, config).run(&plan).table(),
        );
        let mut session = SweepSession::with_orbits(
            None,
            &orbits,
            Provenance::Cold,
            &small,
            &self.program,
            "",
            config,
        );
        let streamed = session.run_streamed(&plan, CHUNK_CLASSES)?.fingerprint;
        if streamed != materialised {
            return Err(format!(
                "torus:16x16 streamed fingerprint {streamed:016x} != materialised {materialised:016x}"
            ));
        }
        Ok(())
    }

    fn job(&mut self, t: &Tracer) -> Result<JobReport, String> {
        let p = self.planned.as_ref().ok_or("job before set-up")?;
        let config = EngineConfig::batch(self.horizon);
        let start = Instant::now();
        let (classes, cache_bytes, t0_segments) = t.span("job", || {
            let mut session = t.span("sim.open", || {
                SweepSession::with_orbits(
                    None,
                    &p.orbits,
                    Provenance::Cold,
                    &p.graph,
                    &self.program,
                    "",
                    config,
                )
            });
            let summary = if t.enabled() {
                // SweepSession::run_streamed, one layer call at a time; the
                // running fingerprint is timed chunk by chunk
                let planned = session.planned();
                t.span("sim.record", || planned.engine().cache().timeline(0));
                let total = p.plan.orbits().num_pair_classes() * p.plan.deltas().len();
                let mut fp = TableFingerprinter::new(total);
                let stats = t.span("sim.merge", || {
                    planned.run_streamed(&p.plan, CHUNK_CLASSES, |_, chunk| {
                        t.span("store.fingerprint", || fp.extend(chunk))
                    })
                })?;
                (stats.met_total, stats.classes, fp.finish())
            } else {
                let s = session.run_streamed(&p.plan, CHUNK_CLASSES)?;
                (s.met_total, s.classes, s.fingerprint)
            };
            let t0 = session.engine().cache().timeline(0);
            let got = (summary.0, summary.2);
            if self.expected.is_none() {
                eprintln!(
                    "ladder: torus-1m-streamed: seed {} has no pin; it gives ({}, {}, {:#018x})",
                    self.seed, self.seed, got.0, got.1
                );
            }
            let expected = *self.expected.get_or_insert(got);
            if got != expected {
                return Err(format!(
                    "meetings/fingerprint {} / {:016x} differ from the expected {} / {:016x}",
                    got.0, got.1, expected.0, expected.1
                ));
            }
            let (bytes, t0_segments) = (cache_timeline_bytes(session.engine()), t0.num_segments());
            t.span("sim.free", || drop(session));
            Ok((summary.1, bytes, t0_segments))
        })?;
        let job_s = start.elapsed().as_secs_f64();
        let (pair_classes, compression) = plan_counts(&p.plan);
        Ok(JobReport {
            job_s,
            cache_bytes,
            recorded_timeline_bytes: cache_bytes,
            pair_classes,
            compression,
            // one mapped δ-sweep pass per class, over node 0's timeline
            // against its mapped self: the segment bound the counted kernels
            // use (earlier + later segments)
            uncounted_merge_calls: classes as u64,
            uncounted_merge_segments: (classes * 2 * t0_segments) as u64,
        })
    }

    fn corrupt_reference(&mut self) {
        let (met, fp) = self.expected.unwrap_or((0, 0));
        self.expected = Some((met, fp ^ 1));
    }

    fn describe(&self) -> String {
        format!(
            "torus:{0}x{0}, sweep-walker (seed {1:#x}; benchmark seed {2}), all pairs x delta \
             0..{3}, horizon {4}, streamed in chunks of {CHUNK_CLASSES} classes, pinned: {5}",
            self.side,
            self.program.seed,
            self.seed,
            self.deltas.len() - 1,
            self.horizon,
            self.expected.is_some()
        )
    }
}
