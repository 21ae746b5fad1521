//! In-memory span recorder for traced runs.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end, the span that caused it, the
//! query it belongs to, and an item count (candidates costed, flows
//! simulated, ...) so per-item times can be derived. Counters carry the
//! program's own statistics (`SearchStats`, memo and contention-warm
//! counters) read at the same boundaries. Everything stays in memory
//! until [`Tracer::write`] dumps it as one JSON file at the end of the
//! run. A disabled tracer records nothing and only runs the closures.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{self, Obj};

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    query: Option<u64>,
    start_ns: u64,
    end_ns: u64,
    items: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id
    /// (0 when tracing is off) to parent its own child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        query: Option<u64>,
        items: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start = Instant::now();
        let result = f(id);
        let end = Instant::now();
        self.push(id, parent, name, query, start, end, items);
        result
    }

    /// Records a span whose bounds the caller measured itself (a due
    /// time, or a duration a reply reported). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        query: Option<u64>,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.push(id, parent, name, query, start, end, items);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        query: Option<u64>,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            query,
            start_ns: ns(start),
            end_ns: ns(end),
            items,
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Adds `value` to the named counter.
    pub fn count(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        *self
            .counters
            .lock()
            .expect("counter lock")
            .entry(name.to_string())
            .or_insert(0.0) += value;
    }

    /// Writes every span and counter as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let rendered: Vec<String> = spans
            .iter()
            .map(|s| {
                Obj::new()
                    .int("id", s.id)
                    .int("parent", s.parent)
                    .str("name", s.name)
                    .raw(
                        "query",
                        &s.query.map_or("null".to_string(), |q| q.to_string()),
                    )
                    .int("start_ns", s.start_ns)
                    .int("end_ns", s.end_ns)
                    .int("items", s.items)
                    .finish()
            })
            .collect();
        let counters = self.counters.lock().expect("counter lock");
        let mut obj = Obj::new();
        for (name, value) in counters.iter() {
            obj = obj.num(name, *value);
        }
        let doc = Obj::new()
            .raw("spans", &json::array(&rendered))
            .raw("counters", &obj.finish())
            .finish();
        std::fs::write(path, doc)
    }
}
