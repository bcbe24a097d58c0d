//! What every workload provides, and the helpers they share.

use std::path::{Path, PathBuf};

use anonrv_graph::NodeId;
use anonrv_sim::{SweepEngine, Timeline};
use rayon::prelude::*;

use crate::trace::Tracer;

/// The workload names, as `--workload` takes them and BENCHMARK.json
/// lists them.
pub const NAMES: [&str; 4] = ["torus-cold", "torus-warm", "universal-t31", "torus-1m-streamed"];

/// Full size is what the benchmark measures; small size is what its
/// self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// What one job reports besides passing its gate.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// Wall seconds from session open to the verified fingerprint.
    pub job_s: f64,
    /// Bytes the job's cache holds once it is done: the store directory
    /// where the workload has a store, the in-memory trajectory cache
    /// where it has none.
    pub cache_bytes: u64,
    /// Bytes of the timelines this job recorded (segments × column widths).
    pub recorded_timeline_bytes: u64,
    /// Pair classes the plan executes.
    pub pair_classes: u64,
    /// Member queries answered per representative query.
    pub compression: f64,
    /// Merge passes and segments of kernels that keep no counters of their
    /// own (the mapped kernel of the streamed path), derived from outside.
    pub uncounted_merge_calls: u64,
    pub uncounted_merge_segments: u64,
}

/// One named workload.  A traced job (the tracer is enabled) runs the same
/// work as an untraced one, but as a sequence of public layer calls with a
/// span around each, instead of through one session call.
pub trait Workload {
    /// Build what the jobs need (graph, orbits, seeded store).  Runs
    /// several times; each run replaces the previous state.
    fn setup(&mut self, t: &Tracer) -> Result<(), String>;
    /// Compute the correctness references of the gates (untimed, once).
    fn prepare(&mut self) -> Result<(), String>;
    /// Run one job.  `Err` is a job that errored or failed its gate.
    fn job(&mut self, t: &Tracer) -> Result<JobReport, String>;
    /// Corrupt the expected fingerprint, so the next job must fail its gate.
    #[cfg_attr(not(test), allow(dead_code))]
    fn corrupt_reference(&mut self);
    /// One line naming the instance, program and grid.
    fn describe(&self) -> String;
}

pub fn make(name: &str, seed: u64, size: Size, work: &Path) -> Option<Box<dyn Workload>> {
    let work = work.to_path_buf();
    Some(match name {
        "torus-cold" => Box::new(crate::torus::TorusSweep::new(false, seed, size, work)),
        "torus-warm" => Box::new(crate::torus::TorusSweep::new(true, seed, size, work)),
        "universal-t31" => Box::new(crate::universal::UniversalT31::new(seed, size)),
        "torus-1m-streamed" => Box::new(crate::torus::Streamed::new(seed, size)),
        _ => return None,
    })
}

/// SplitMix64: the benchmark's one source of seeded choices.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The walker seed of the torus workloads: seed 0 is the committed
/// `0x5EED` program of the old timing binaries.
pub fn walker_seed(seed: u64) -> u64 {
    0x5EED_u64.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// In-memory bytes of a recorded timeline: every column's length times its
/// element width.
pub fn timeline_bytes(t: &Timeline) -> u64 {
    (std::mem::size_of_val(t.starts())
        + std::mem::size_of_val(t.seg_nodes())
        + std::mem::size_of_val(t.occ_starts())
        + std::mem::size_of_val(t.occ_interval_starts())
        + std::mem::size_of_val(t.occ_interval_ends())
        + std::mem::size_of_val(t.occ_segs())) as u64
}

/// Bytes of every timeline an engine's trajectory cache holds.
pub fn cache_timeline_bytes(engine: &SweepEngine<'_>) -> u64 {
    engine.cache().computed_timelines().map(|(_, t)| timeline_bytes(t)).sum()
}

/// Record the timelines of `nodes` through the engine's trajectory cache,
/// in parallel, so that a later merge finds them all recorded.
pub fn prerecord(engine: &SweepEngine<'_>, nodes: &[NodeId]) {
    nodes.par_iter().for_each(|&u| {
        engine.cache().timeline(u);
    });
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A fresh, empty directory.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    std::fs::remove_dir_all(&path).ok();
    std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(path)
}
