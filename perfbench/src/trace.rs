//! The traced run's span recorder: spans are timed by the benchmark's
//! own code around each call into the program, kept in memory, and
//! written out when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The cell this call belongs to (one id per cell per round).
    pub cell: u64,
    /// What was called, e.g. `rig.construct`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder, shared by the pool's workers.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Times `f` as span `name` of `cell` under `parent`; `f` receives
    /// the new span's id so that nested calls can name it as parent.
    pub fn span<T>(
        &self,
        cell: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            cell,
            name,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            end_ns: end.duration_since(self.t0).as_nanos() as u64,
        };
        self.spans.lock().expect("tracer mutex poisoned").push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer mutex poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Total nanoseconds of spans called `name` whose cell passes
    /// `keep`.
    pub fn total_ns(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        self.spans
            .lock()
            .expect("tracer mutex poisoned")
            .iter()
            .filter(|s| s.name == name && keep(s.cell))
            .map(Span::ns)
            .sum()
    }

    /// Writes every span as a JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let lines: Vec<String> = self
            .spans()
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {}, \"parent\": {parent}, \"cell\": {}, \"name\": \"{}\", \"startNs\": {}, \"endNs\": {}}}",
                    s.id, s.cell, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
    }
}
