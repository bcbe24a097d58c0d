//! Sharded persistence of planned sweeps.
//!
//! A [`SweepPlan`]'s work-list — one representative STIC per `(pair class,
//! δ)` — is embarrassingly parallel: each class's outcomes are the merge of
//! two deterministic timelines and depend on nothing outside the class.
//! This module is the *persistence* half of splitting that work-list across
//! processes (or machines sharing a directory): `--shards K --shard-index i`
//! selects the classes `c mod K == i` ([`ShardSpec::classes`]), a
//! [`crate::SweepSession::run_shard`] executes the slice and writes one
//! partial outcome artifact here, and [`Store::merge_shards`] reassembles
//! the `K` partial tables into the exact table a single-process
//! [`anonrv_plan::PlannedSweep::run`] produces — **bit-identical**, because
//! assembly is pure index arithmetic (`table[class · |δ| + di]`) over
//! outcomes that were each computed by the same deterministic merge
//! regardless of which process ran them.
//!
//! Round-robin assignment (rather than contiguous ranges) balances the
//! shards under the one systematic cost gradient classes have: classes
//! sharing a first-coordinate orbit appear consecutively, and their
//! representative timelines are recorded on first touch, so interleaving
//! spreads both the recording and the merging evenly.
//!
//! Unlike the merged outcome tables (which serve smaller horizons by prefix
//! truncation), shard partials are keyed to their **exact** horizon: mixing
//! slices executed at different horizons into one merge would be a
//! correctness trap, so a partial from a different horizon is simply a
//! miss.  Once a merged table covering a shard's horizon exists, the
//! partial is superseded and [`Store::gc`] reclaims it.
//!
//! The merge refuses to produce a table unless every class is covered
//! exactly once by mutually consistent shards — a missing shard, a
//! double-run with inconsistent specs, or a partial file from a different
//! plan all fail loudly instead of merging silently wrong.

use std::io;
use std::path::PathBuf;

use anonrv_graph::PortGraph;
use anonrv_plan::SweepPlan;
use anonrv_sim::SimOutcome;

use crate::cache::{
    decode_outcome_table, decode_plan_identity, encode_outcome_table, encode_plan_identity, Store,
};
use crate::codec::{Enc, Kind};
use crate::fault;

/// One slice of a sharded sweep: this process is shard `index` of `shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
    index: usize,
}

impl ShardSpec {
    /// Validate a `(shards, index)` pair (`shards >= 1`, `index < shards`).
    pub fn new(shards: usize, index: usize) -> Result<Self, String> {
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        if index >= shards {
            return Err(format!("--shard-index {index} out of range for {shards} shard(s)"));
        }
        Ok(ShardSpec { shards, index })
    }

    /// Total number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// This shard's index, in `0..shards`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The pair classes this shard executes: round-robin over
    /// `0..num_classes` (see the module docs for why round-robin).
    pub fn classes(&self, num_classes: usize) -> Vec<usize> {
        (self.index..num_classes).step_by(self.shards).collect()
    }
}

impl std::fmt::Display for ShardSpec {
    /// `"2/4"` = shard index 2 of 4.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.shards)
    }
}

/// The partial outcome table produced by one shard: the outcomes of
/// [`ShardSpec::classes`], class-major and δ-minor within each class block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutcomes {
    /// Which slice this is.
    pub spec: ShardSpec,
    /// The classes executed, in execution order.
    pub classes: Vec<usize>,
    /// `classes.len() × |deltas|` outcomes (block `k` holds class
    /// `classes[k]`).
    pub table: Vec<SimOutcome>,
}

impl Store {
    fn shard_path(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        spec: ShardSpec,
    ) -> PathBuf {
        // reuse the outcomes stem so all artifacts of one sweep sort
        // together; the horizon is part of the name (unlike merged tables,
        // partials are exact-horizon — see the module docs)
        let stem = self.plan_artifact_stem(g, program_key, plan);
        self.root().join(format!(
            "shard-{stem}-h{:x}-{}of{}.anrv",
            plan.horizon(),
            spec.index(),
            spec.shards()
        ))
    }

    /// Persist one shard's partial outcomes.  Returns the artifact path.
    pub fn save_shard(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        outcomes: &ShardOutcomes,
    ) -> io::Result<PathBuf> {
        assert_eq!(
            outcomes.table.len(),
            outcomes.classes.len() * plan.deltas().len(),
            "shard table does not match its class list"
        );
        let mut e = Enc::new();
        encode_plan_identity(&mut e, g, program_key, plan);
        e.u128(plan.horizon());
        e.usize(outcomes.spec.shards());
        e.usize(outcomes.spec.index());
        e.usize(outcomes.classes.len());
        for &c in &outcomes.classes {
            e.usize(c);
        }
        encode_outcome_table(&mut e, &outcomes.table);
        fault::hit_io("shard.persist")?;
        let path = self.shard_path(g, program_key, plan, outcomes.spec);
        self.write_atomic(&path, &e.into_frame(Kind::Shard))?;
        Ok(path)
    }

    /// Load one shard's partial outcomes, or `None` on any miss (absent /
    /// corrupt / stale / produced for a different plan or **horizon** —
    /// shard partials never serve by prefix, see the module docs).
    pub fn load_shard(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        spec: ShardSpec,
    ) -> Option<ShardOutcomes> {
        let path = self.shard_path(g, program_key, plan, spec);
        let bytes = self.read_artifact(&path)?;
        let mut d = self.gate_frame(&path, Kind::Shard, &bytes)?;
        decode_plan_identity(&mut d, g, program_key, plan)?;
        if d.u128()? != plan.horizon() {
            return None;
        }
        if d.usize()? != spec.shards() || d.usize()? != spec.index() {
            return None;
        }
        let num_classes = plan.orbits().num_pair_classes();
        let count = d.usize()?;
        // a forged count must not drive the allocation below
        if count > d.remaining() / 8 {
            return None;
        }
        let mut classes = Vec::with_capacity(count);
        for _ in 0..count {
            let c = d.usize()?;
            if c >= num_classes {
                return None;
            }
            classes.push(c);
        }
        let table = decode_outcome_table(&mut d)?;
        if table.len() != count * plan.deltas().len() {
            return None;
        }
        d.exhausted().then_some(ShardOutcomes { spec, classes, table })
    }

    /// The shard indices of a `K`-way split whose partial artifact is
    /// missing or unloadable — the probe [`crate::SweepSession`]'s
    /// supervisor re-dispatches from, and the ground truth a retry loop
    /// should trust over any in-memory bookkeeping (an artifact that fails
    /// its integrity gates *is* a missing shard, whatever the executor
    /// reported).  An empty result means [`Store::merge_shards`] will
    /// succeed, barring concurrent deletion.
    pub fn missing_shards(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        shards: usize,
    ) -> Result<Vec<usize>, String> {
        ShardSpec::new(shards, 0)?; // validate the count once
        Ok((0..shards)
            .filter(|&index| {
                let spec = ShardSpec::new(shards, index).expect("index < shards");
                self.load_shard(g, program_key, plan, spec).is_none()
            })
            .collect())
    }

    /// Merge the `shards` partial artifacts of `(g, program_key, plan)`
    /// into the full representative-outcome table — bit-identical to an
    /// unsharded [`anonrv_plan::PlannedSweep::run`] (see the module docs).
    /// Fails with a description naming the first missing or inconsistent
    /// shard.
    pub fn merge_shards(
        &self,
        g: &PortGraph,
        program_key: &str,
        plan: &SweepPlan,
        shards: usize,
    ) -> Result<Vec<SimOutcome>, String> {
        ShardSpec::new(shards, 0)?; // validate the count once
        let mut parts = Vec::with_capacity(shards);
        for index in 0..shards {
            let spec = ShardSpec::new(shards, index).expect("index < shards");
            let part = self.load_shard(g, program_key, plan, spec).ok_or_else(|| {
                format!("shard {index}/{shards} is missing or invalid in {}", self.root().display())
            })?;
            parts.push(part);
        }
        merge_shard_outcomes(plan, &parts)
    }
}

/// Assemble partial shard tables into the full class-major, δ-minor table,
/// verifying that the parts cover every class exactly once.
pub fn merge_shard_outcomes(
    plan: &SweepPlan,
    parts: &[ShardOutcomes],
) -> Result<Vec<SimOutcome>, String> {
    let num_classes = plan.orbits().num_pair_classes();
    let ndeltas = plan.deltas().len();
    let mut table: Vec<Option<SimOutcome>> = vec![None; num_classes * ndeltas];
    for part in parts {
        if part.table.len() != part.classes.len() * ndeltas {
            return Err(format!("shard {} table does not match its class list", part.spec));
        }
        for (k, &class) in part.classes.iter().enumerate() {
            for di in 0..ndeltas {
                let slot = class * ndeltas + di;
                if table[slot].is_some() {
                    return Err(format!("class {class} covered by more than one shard"));
                }
                table[slot] = Some(part.table[k * ndeltas + di]);
            }
        }
    }
    table
        .into_iter()
        .enumerate()
        .map(|(slot, o)| {
            o.ok_or_else(|| format!("class {} not covered by any shard", slot / ndeltas.max(1)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{TempDir, Walker};
    use crate::SweepSession;
    use anonrv_graph::generators::oriented_torus;
    use anonrv_plan::PlannedSweep;
    use anonrv_sim::EngineConfig;

    /// A shard slice executed in-process (the persistence-free half of
    /// [`SweepSession::run_shard`], for tests of the pure merge).
    fn slice(planned: &PlannedSweep<'_>, plan: &SweepPlan, spec: ShardSpec) -> ShardOutcomes {
        let classes = spec.classes(plan.orbits().num_pair_classes());
        let table = planned.run_classes(plan, &classes);
        ShardOutcomes { spec, classes, table }
    }

    #[test]
    fn shard_specs_validate_and_partition_the_classes() {
        assert!(ShardSpec::new(0, 0).is_err());
        assert!(ShardSpec::new(2, 2).is_err());
        assert!(ShardSpec::new(2, 3).is_err());
        for shards in [1usize, 2, 3, 7] {
            let mut seen = [0usize; 23];
            for index in 0..shards {
                for c in ShardSpec::new(shards, index).unwrap().classes(23) {
                    seen[c] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1), "{shards} shards must partition the classes");
        }
        assert_eq!(ShardSpec::new(4, 1).unwrap().to_string(), "1/4");
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_the_unsharded_run() {
        let dir = TempDir::new("shard-merge");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_torus(3, 4).unwrap();
        let program = Walker { seed: 0x5EED };
        let key = "test-walker-5eed";
        let deltas: Vec<anonrv_sim::Round> = vec![0, 1, 2, 3, 4];

        // the single-process reference table
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(64));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), deltas, 64);
        let reference = planned.run(&plan);

        for shards in [2usize, 3] {
            // each "process": its own session, its own partial artifact
            for index in 0..shards {
                let mut worker =
                    SweepSession::new(Some(&store), &g, &program, key, EngineConfig::batch(64));
                let spec = ShardSpec::new(shards, index).unwrap();
                let part = worker.run_shard(&plan, spec).unwrap();
                assert_eq!(part.classes, spec.classes(12));
            }
            let merged = store.merge_shards(&g, key, &plan, shards).unwrap();
            assert_eq!(merged, reference.table(), "{shards}-shard merge diverged");
        }

        // merging with the wrong shard count fails loudly
        assert!(store.merge_shards(&g, key, &plan, 5).is_err());
    }

    #[test]
    fn merge_rejects_gaps_and_double_coverage() {
        let g = oriented_torus(3, 3).unwrap();
        let program = Walker { seed: 1 };
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 32);
        let a = slice(&planned, &plan, ShardSpec::new(2, 0).unwrap());
        let b = slice(&planned, &plan, ShardSpec::new(2, 1).unwrap());
        // complete coverage merges
        let merged = merge_shard_outcomes(&plan, &[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.len(), plan.num_representative_queries());
        // a missing slice is a gap
        let err = merge_shard_outcomes(&plan, std::slice::from_ref(&a)).unwrap_err();
        assert!(err.contains("not covered"), "{err}");
        // the same slice twice is double coverage
        let err = merge_shard_outcomes(&plan, &[a.clone(), a.clone(), b]).unwrap_err();
        assert!(err.contains("more than one shard"), "{err}");
        // a table/class-list mismatch is rejected
        let mut broken = a;
        broken.table.pop();
        let err = merge_shard_outcomes(&plan, &[broken]).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn shard_artifacts_are_rejected_for_a_different_plan_or_horizon() {
        let dir = TempDir::new("shard-identity");
        let store = Store::open(&dir.0).unwrap();
        let g = oriented_torus(3, 3).unwrap();
        let program = Walker { seed: 9 };
        let key = "test-walker-9";
        let planned = PlannedSweep::new(&g, &program, EngineConfig::batch(32));
        let plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 32);
        let spec = ShardSpec::new(2, 0).unwrap();
        let part = slice(&planned, &plan, spec);
        let path = store.save_shard(&g, key, &plan, &part).unwrap();
        assert!(store.load_shard(&g, key, &plan, spec).is_some());
        // same file, interrogated under a different plan identity: miss
        let other_plan = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 2], 32);
        assert!(store.load_shard(&g, key, &other_plan, spec).is_none());
        assert!(store.load_shard(&g, "other-key", &plan, spec).is_none());
        // a different horizon is a miss too: partials never serve by prefix
        let other_horizon = SweepPlan::from_orbits(planned.orbits().clone(), vec![0, 1], 16);
        assert!(store.load_shard(&g, key, &other_horizon, spec).is_none());
        // corruption is caught by the frame
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_shard(&g, key, &plan, spec).is_none());
        // a well-framed partial claiming 2^60 classes it does not carry is
        // a miss, never an allocation of that size
        let mut e = Enc::new();
        encode_plan_identity(&mut e, &g, key, &plan);
        e.u128(plan.horizon());
        e.usize(spec.shards());
        e.usize(spec.index());
        e.usize(1 << 60);
        std::fs::write(&path, e.into_frame(Kind::Shard)).unwrap();
        assert!(store.load_shard(&g, key, &plan, spec).is_none());
    }
}
