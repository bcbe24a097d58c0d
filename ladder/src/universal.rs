//! `universal-t31`: the paper's `UniversalRV` on the EXP-T31 full case
//! list — nonsymmetric pairs on rigid instances and symmetric pairs at
//! δ = Shrink (feasible) and δ = Shrink − 1 (infeasible) — each instance
//! through `SweepSession::in_memory(..).simulate_cases`.

use std::time::Instant;

use anonrv_core::feasibility::{FeasibilityOracle, SticClass};
use anonrv_core::label::{LabelScheme, TrailSignature};
use anonrv_core::pairing::phase_of;
use anonrv_core::universal_rv::UniversalRv;
use anonrv_experiments::suite::{
    nonsymmetric_pairs, nonsymmetric_workloads, symmetric_pairs, symmetric_workloads, Scale,
};
use anonrv_graph::{NodeId, PortGraph};
use anonrv_sim::{EngineConfig, Round, Stic};
use anonrv_store::{table_fingerprint, SweepSession};
use anonrv_uxs::{covers_from_all, LengthRule, PseudorandomUxs, UxsProvider};

use crate::trace::Tracer;
use crate::workload::{cache_timeline_bytes, prerecord, splitmix, JobReport, Size, Workload};

/// The EXP-T31 configuration (`UniversalConfig::full()` of the experiments
/// crate) and its reduced self-test form.
struct Config {
    scale: Scale,
    max_pairs: usize,
    max_nodes: usize,
    max_phase: u64,
    nonsymmetric_deltas: &'static [Round],
}

const FULL: Config = Config {
    scale: Scale::Full,
    max_pairs: 3,
    max_nodes: 7,
    max_phase: 700,
    nonsymmetric_deltas: &[0, 1, 3, 5],
};

const SMALL: Config = Config {
    scale: Scale::Quick,
    max_pairs: 1,
    max_nodes: 5,
    max_phase: 130,
    nonsymmetric_deltas: &[0, 1],
};

struct Instance {
    label: String,
    graph: PortGraph,
    /// `(stic, horizon)` in case order, as `simulate_cases` takes them.
    queries: Vec<(Stic, Round)>,
    feasible: Vec<bool>,
}

pub struct UniversalT31 {
    seed: u64,
    config: Config,
    uxs: PseudorandomUxs,
    scheme: TrailSignature,
    instances: Vec<Instance>,
    /// The combined outcome fingerprint every job must reproduce (the
    /// first job's).
    expected: Option<u64>,
}

impl UniversalT31 {
    pub fn new(seed: u64, size: Size) -> Self {
        let uxs = PseudorandomUxs::with_rule(LengthRule::Quadratic { c: 1, min_len: 16 });
        UniversalT31 {
            seed,
            config: if size == Size::Full { FULL } else { SMALL },
            uxs,
            scheme: TrailSignature::new(uxs),
            instances: Vec::new(),
            expected: None,
        }
    }

    /// The nonsymmetric pairs of a rigid instance.  Seed 0 takes EXP-T31's
    /// own (the first pairs in node order: a star around node 0); other
    /// seeds take a star of as many pairs around a seeded hub, so every
    /// seed records the same number of start nodes.
    fn nonsymmetric_pairs(
        &self,
        g: &PortGraph,
        oracle: &FeasibilityOracle,
        rng: &mut u64,
    ) -> Vec<(NodeId, NodeId)> {
        let n = g.num_nodes();
        let distinct = |u, v| self.scheme.labels_distinct(g, u, v, n);
        let want = self.config.max_pairs;
        if self.seed != 0 {
            for _ in 0..4 * n {
                let hub = (splitmix(rng) % n as u64) as usize;
                let mut leaves: Vec<NodeId> = (0..n)
                    .filter(|&x| x != hub && !oracle.partition().are_symmetric(hub, x))
                    .filter(|&x| distinct(hub.min(x), hub.max(x)))
                    .collect();
                if leaves.len() < want {
                    continue;
                }
                for i in 0..want {
                    let j = i + (splitmix(rng) % (leaves.len() - i) as u64) as usize;
                    leaves.swap(i, j);
                }
                let mut pairs: Vec<_> =
                    leaves[..want].iter().map(|&x| (hub.min(x), hub.max(x))).collect();
                pairs.sort_unstable();
                return pairs;
            }
        }
        nonsymmetric_pairs(g, want).into_iter().filter(|&(u, v)| distinct(u, v)).collect()
    }

    fn build_cases(&self, t: &Tracer) -> Result<Vec<Instance>, String> {
        let c = &self.config;
        let algo = UniversalRv::new(&self.uxs, &self.scheme);
        let mut rng = self.seed;
        let (rigid, symmetric) = t.span("graph.build", || {
            (nonsymmetric_workloads(c.scale), symmetric_workloads(c.scale))
        });
        let mut out = Vec::new();
        for (w, is_symmetric) in
            rigid.into_iter().map(|w| (w, false)).chain(symmetric.into_iter().map(|w| (w, true)))
        {
            let n = w.n();
            if n > c.max_nodes {
                continue;
            }
            let uxs = UxsProvider::sequence(&self.uxs, n);
            if !t.span("uxs.cover", || covers_from_all(&w.graph, &uxs)) {
                continue;
            }
            let oracle = t.span("core.classify", || FeasibilityOracle::new(&w.graph));
            // (u, v, δ, Shrink hint of the completion horizon, built class)
            let mut cases: Vec<(NodeId, NodeId, Round, usize, Option<bool>)> = Vec::new();
            if is_symmetric {
                for p in t.span("graph.shrink", || symmetric_pairs(&w.graph, c.max_pairs)) {
                    if phase_of(n, p.shrink, p.shrink as u64) > c.max_phase {
                        continue;
                    }
                    cases.push((p.u, p.v, p.shrink as Round, p.shrink.max(1), Some(true)));
                    if p.shrink >= 1 {
                        let delta = p.shrink as Round - 1;
                        cases.push((p.u, p.v, delta, p.shrink.max(1), Some(false)));
                    }
                }
            } else {
                for (u, v) in
                    t.span("core.labels", || self.nonsymmetric_pairs(&w.graph, &oracle, &mut rng))
                {
                    for &delta in c.nonsymmetric_deltas {
                        if phase_of(n, 1, delta.max(1) as u64) <= c.max_phase {
                            cases.push((u, v, delta, 1, None));
                        }
                    }
                }
            }
            if cases.is_empty() {
                continue;
            }
            let mut instance = Instance {
                label: w.label.clone(),
                graph: w.graph.clone(),
                queries: Vec::new(),
                feasible: Vec::new(),
            };
            t.span("core.classify", || -> Result<(), String> {
                for &(u, v, delta, d_hint, built) in &cases {
                    let class = oracle.classify(u, v, delta);
                    let feasible = class.is_feasible();
                    let consistent = match built {
                        Some(f) => f == feasible && !matches!(class, SticClass::Nonsymmetric),
                        None => matches!(class, SticClass::Nonsymmetric),
                    };
                    if !consistent {
                        return Err(format!(
                            "{}: ({u}, {v}) delta {delta} classified {class:?}",
                            w.label
                        ));
                    }
                    let horizon = algo.completion_horizon(n, d_hint, delta.max(1));
                    instance.queries.push((Stic::new(u, v, delta), horizon));
                    instance.feasible.push(feasible);
                }
                Ok(())
            })?;
            out.push(instance);
        }
        Ok(out)
    }
}

impl Workload for UniversalT31 {
    fn setup(&mut self, t: &Tracer) -> Result<(), String> {
        self.instances = self.build_cases(t)?;
        let infeasible = self.instances.iter().flat_map(|i| &i.feasible).any(|f| !f);
        if self.instances.is_empty() || !infeasible {
            return Err("the case list lacks feasible or infeasible STICs".into());
        }
        Ok(())
    }

    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn job(&mut self, t: &Tracer) -> Result<JobReport, String> {
        let algo = UniversalRv::new(&self.uxs, &self.scheme);
        let mut report = JobReport::default();
        let (mut executed, mut answered) = (0usize, 0usize);
        let start = Instant::now();
        t.span("job", || -> Result<(), String> {
            let mut fingerprint = 0u64;
            for inst in &self.instances {
                let max_horizon = inst.queries.iter().map(|&(_, h)| h).max().unwrap_or(0);
                let mut session = t.span("plan.orbits", || {
                    SweepSession::in_memory(
                        &inst.graph,
                        &algo,
                        EngineConfig::with_horizon(max_horizon),
                    )
                });
                if t.enabled() {
                    let planned = session.planned();
                    let mut nodes: Vec<NodeId> = inst
                        .queries
                        .iter()
                        .map(|(s, _)| planned.canonical_stic(s))
                        .flat_map(|s| [s.earlier, s.later])
                        .collect();
                    nodes.sort_unstable();
                    nodes.dedup();
                    t.span("sim.record", || prerecord(session.engine(), &nodes));
                }
                let outcomes = t.span("sim.merge", || session.simulate_cases(&inst.queries));
                for ((&(stic, horizon), &feasible), o) in
                    inst.queries.iter().zip(&inst.feasible).zip(&outcomes)
                {
                    if o.met() != feasible {
                        return Err(format!(
                            "{}: {stic:?} is {} but {}",
                            inst.label,
                            if feasible { "feasible" } else { "infeasible" },
                            if o.met() { "met" } else { "not met" }
                        ));
                    }
                    if o.rendezvous_time().is_some_and(|time| time > horizon) {
                        return Err(format!("{}: {stic:?} met after its horizon", inst.label));
                    }
                }
                let table = t.span("store.fingerprint", || table_fingerprint(&outcomes));
                fingerprint = fingerprint.rotate_left(7) ^ table;
                let stats = session.stats();
                executed += stats.executed;
                answered += stats.answered;
                report.pair_classes += session.orbits().num_pair_classes() as u64;
                report.cache_bytes += cache_timeline_bytes(session.engine());
                t.span("sim.free", || drop(session));
            }
            let expected = *self.expected.get_or_insert(fingerprint);
            if fingerprint != expected {
                return Err(format!("fingerprint {fingerprint:016x} != {expected:016x}"));
            }
            Ok(())
        })?;
        report.job_s = start.elapsed().as_secs_f64();
        report.recorded_timeline_bytes = report.cache_bytes;
        report.compression = answered as f64 / executed.max(1) as f64;
        Ok(report)
    }

    fn corrupt_reference(&mut self) {
        self.expected = Some(self.expected.unwrap_or(0) ^ 1);
    }

    fn describe(&self) -> String {
        let cases: usize = self.instances.iter().map(|i| i.queries.len()).sum();
        let feasible = self.instances.iter().flat_map(|i| &i.feasible).filter(|&&f| f).count();
        let labels: Vec<&str> = self.instances.iter().map(|i| i.label.as_str()).collect();
        format!(
            "UniversalRV, EXP-T31 case list (seed {}): {cases} STICs ({feasible} feasible) on {} \
             instances: {}",
            self.seed,
            self.instances.len(),
            labels.join(", ")
        )
    }
}
