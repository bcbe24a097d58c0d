//! Timing spans, structured events and pluggable trace sinks.
//!
//! A **span** is an explicit timing scope: [`crate::span`] returns a guard,
//! and dropping the guard closes the scope — recording its duration into
//! the metrics registry (histogram `span.<name>.us`) and, when a trace
//! sink is installed, emitting one JSONL record.  Spans nest through a
//! thread-local stack: a span opened while another is live on the same
//! thread records that span as its parent, so a trace reconstructs the
//! phase tree (plan → probe → execute → record → persist) without any
//! global coordination.  Work handed to a thread pool starts a fresh stack
//! on each worker — cross-thread records simply carry no parent.
//!
//! An **event** is a point-in-time record with named fields (a supervisor
//! retry, a quarantined frame, a failpoint trip): no duration, same JSONL
//! stream, parented to the thread's innermost live span.
//!
//! ## Record shapes (`anonrv.trace/v1`)
//!
//! One JSON object per line.  The first line is a header; `span` records
//! are written when the scope **closes** (so a child's line precedes its
//! parent's), `event` records when they happen:
//!
//! ```text
//! {"v":1,"kind":"header","schema":"anonrv.trace/v1"}
//! {"v":1,"kind":"span","id":2,"parent":1,"name":"session.execute",
//!  "start_us":17,"dur_us":5210,"thread":"ThreadId(1)"}
//! {"v":1,"kind":"event","name":"supervisor.attempt","ts_us":9,"parent":1,
//!  "thread":"ThreadId(1)","fields":{"shard":0,"attempt":1,"outcome":"ok"}}
//! ```
//!
//! Timestamps are microseconds since the first [`crate::install`] of the
//! process (monotonic, not wall clock): subtractable, serializable and
//! free of clock-step artifacts.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::json::{self, Value};

/// Version tag carried by every trace record (`"v"` field).
pub const TRACE_VERSION: u64 = 1;

/// A value attached to an [`crate::event`] field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Boolean.
    B(bool),
    /// String.
    S(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U(v as u64)
    }
}
impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U(u64::from(v))
    }
}
impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::B(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::S(v.to_string())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::S(v)
    }
}

impl Field {
    fn to_json(&self) -> Value {
        match self {
            Field::U(v) => Value::Uint(*v),
            Field::I(v) => Value::from(*v),
            Field::B(v) => Value::Bool(*v),
            Field::S(v) => Value::Str(v.clone()),
        }
    }
}

/// Where trace records go.  Implementations must tolerate concurrent
/// `record` calls; `flush` is called once, when the pipeline uninstalls.
pub trait TraceSink: Send + Sync {
    /// Persist one complete JSONL record (no trailing newline).
    fn record(&self, line: &str);
    /// Flush any buffering; called on uninstall.
    fn flush(&self) {}
}

/// [`TraceSink`] writing JSON lines to a buffered file — the `--trace-out
/// FILE` sink.
pub struct JsonlWriter {
    file: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlWriter {
    /// Create (truncating) the trace file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlWriter { file: Mutex::new(std::io::BufWriter::new(file)) })
    }
}

impl TraceSink for JsonlWriter {
    fn record(&self, line: &str) {
        let mut f = self.file.lock().expect("trace writer poisoned");
        let _ = writeln!(f, "{line}");
    }

    fn flush(&self) {
        let _ = self.file.lock().expect("trace writer poisoned").flush();
    }
}

/// [`TraceSink`] collecting records in memory — for tests and in-process
/// consumers.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// A fresh, shareable sink.
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::default())
    }

    /// Every record seen so far, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink poisoned").clone()
    }
}

impl TraceSink for MemorySink {
    fn record(&self, line: &str) {
        self.lines.lock().expect("memory sink poisoned").push(line.to_string());
    }
}

/// The installed sink, if any (behind its own lock so metrics-only
/// installs never touch it).
pub(crate) fn sink_slot() -> &'static RwLock<Option<Arc<dyn TraceSink>>> {
    static SINK: OnceLock<RwLock<Option<Arc<dyn TraceSink>>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

/// Microseconds since the process's first install (the trace epoch).
pub(crate) fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn next_span_id() -> u64 {
    // span id 0 is reserved as "no span" for the thread-local stack
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Innermost-last stack of live span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_parent() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

pub(crate) fn emit(record: &Value) {
    if let Some(sink) = sink_slot().read().expect("trace sink poisoned").as_ref() {
        sink.record(&record.to_string());
    }
}

pub(crate) fn emit_header() {
    emit(&json::obj([
        ("v", Value::Uint(TRACE_VERSION)),
        ("kind", Value::from("header")),
        ("schema", Value::from(crate::report::TRACE_SCHEMA)),
    ]));
}

/// An open timing scope; see the module docs.  Created by [`crate::span`],
/// closed (and recorded) on drop.
pub struct SpanGuard {
    /// `None` when telemetry was disabled at creation: drop does nothing.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_us: u64,
}

pub(crate) fn start_span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let id = next_span_id();
    let parent = current_parent();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        live: Some(LiveSpan { id, parent, name, start: Instant::now(), start_us: now_us() }),
    }
}

impl SpanGuard {
    /// This span's id (0 when telemetry was disabled at creation) — lets a
    /// caller correlate events it emits with the enclosing span.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map(|l| l.id).unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // pop this span; tolerate disorder (a guard moved across scopes)
            if let Some(pos) = stack.iter().rposition(|&id| id == live.id) {
                stack.remove(pos);
            }
        });
        let dur_us = u64::try_from(live.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        // the duration also lands in the metrics registry, so per-phase
        // latency is part of every snapshot without parsing the trace
        crate::metrics::registry().observe(&format!("span.{}.us", live.name), dur_us);
        if sink_slot().read().expect("trace sink poisoned").is_some() {
            emit(&json::obj([
                ("v", Value::Uint(TRACE_VERSION)),
                ("kind", Value::from("span")),
                ("id", Value::Uint(live.id)),
                ("parent", live.parent.map(Value::Uint).unwrap_or(Value::Null)),
                ("name", Value::from(live.name)),
                ("start_us", Value::Uint(live.start_us)),
                ("dur_us", Value::Uint(dur_us)),
                ("thread", Value::from(format!("{:?}", std::thread::current().id()))),
            ]));
        }
    }
}

pub(crate) fn emit_event(name: &'static str, fields: &[(&'static str, Field)]) {
    // point events also bump a counter, so event totals survive into the
    // metrics snapshot even without a trace sink
    crate::metrics::registry().counter_add(&format!("event.{name}"), 1);
    if sink_slot().read().expect("trace sink poisoned").is_none() {
        return;
    }
    let fields_json =
        Value::Obj(fields.iter().map(|(k, v)| (k.to_string(), v.to_json())).collect());
    emit(&json::obj([
        ("v", Value::Uint(TRACE_VERSION)),
        ("kind", Value::from("event")),
        ("name", Value::from(name)),
        ("ts_us", Value::Uint(now_us())),
        ("parent", current_parent().map(Value::Uint).unwrap_or(Value::Null)),
        ("thread", Value::from(format!("{:?}", std::thread::current().id()))),
        ("fields", fields_json),
    ]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_serialize_each_variant() {
        assert_eq!(Field::from(3usize).to_json(), Value::Uint(3));
        assert_eq!(Field::from(-2i64).to_json(), Value::Int(-2));
        assert_eq!(Field::from(true).to_json(), Value::Bool(true));
        assert_eq!(Field::from("x").to_json(), Value::Str("x".into()));
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::default();
        sink.record("a");
        sink.record("b");
        assert_eq!(sink.lines(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn disabled_spans_are_inert() {
        // hold the install lock so no concurrent test switches telemetry on
        // underneath: disabled guards must not touch the stack
        let _serial = crate::serial_lock().lock().unwrap_or_else(|p| p.into_inner());
        let g = crate::span("unit.test");
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(current_parent(), None);
    }
}
