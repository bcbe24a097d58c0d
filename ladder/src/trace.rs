//! Spans recorded from the benchmark's own code, around each call into a
//! layer.  Nothing here reaches into the program: a span is opened before a
//! public call and closed after it returns.
//!
//! A span holds its name (`<layer>.<operation>`), start and end, the span
//! that was open when it started (its parent) and the unit it belongs to (a
//! set-up or a job).  Spans stay in memory; [`Tracer::write_jsonl`] writes
//! them out once the run is over.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// What a span was recorded for: the k-th set-up or the k-th traced job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    Setup(usize),
    Job(usize),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: Unit,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder.  A disabled tracer runs the closures and
/// records nothing, so untraced jobs pay no bookkeeping.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    unit: Cell<Unit>,
    open: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            unit: Cell::new(Unit::Setup(0)),
            open: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute the spans that follow to `unit`.
    pub fn set_unit(&self, unit: Unit) {
        self.unit.set(unit);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span { name, start_ns: 0, end_ns: 0, parent, unit: self.unit.get() });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].start_ns = start;
        spans[index].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let (kind, k) = match s.unit {
                Unit::Setup(k) => ("setup", k),
                Unit::Job(k) => ("job", k),
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"unit\": \"{kind}-{k}\"}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out)
    }
}

/// Per-unit sums of span durations, by span name: `name → [seconds per
/// unit that holds such a span]`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut per: BTreeMap<(&'static str, Unit), f64> = BTreeMap::new();
    for s in spans {
        *per.entry((s.name, s.unit)).or_default() += s.duration_s();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), secs) in per {
        out.entry(name).or_default().push(secs);
    }
    out
}

/// Self time per layer for each job: a span's duration minus the part its
/// child spans cover, summed by layer.  The root `job` span's self time is
/// the remainder of the job no layer span covers.
pub fn self_time_by_job(spans: &[Span]) -> BTreeMap<usize, BTreeMap<&'static str, f64>> {
    let mut child_time = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration_s();
        }
    }
    let mut out: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Unit::Job(k) = s.unit {
            *out.entry(k).or_default().entry(s.layer()).or_default() +=
                s.duration_s() - child_time[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_the_root_keeps_the_remainder() {
        let t = Tracer::new(true);
        t.set_unit(Unit::Job(0));
        t.span("job", || {
            t.span("sim.merge", || {
                t.span("store.fingerprint", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let layers = &self_time_by_job(&spans)[&0];
        let total: f64 = layers.values().sum();
        assert!((total - spans[0].duration_s()).abs() < 1e-9, "self times partition the job");
        assert!(layers["store"] >= 0.005 && layers["job"] >= 0.005);
        assert!(layers["sim"] < layers["store"]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("sim.record", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
