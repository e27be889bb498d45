//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name (`<crate>.<call>`), an id, the id of the span that
//! caused it (0 for none), start and end in nanoseconds since the run
//! started, and a count of the work items it covered (lines, keys, balls).
//! Totals per name are kept exactly; individual spans are kept up to a cap
//! and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Individual spans kept per tracer; totals keep counting past it.
const KEEP_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

/// Exact totals of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub spans: u64,
    pub ns: u64,
    pub count: u64,
}

impl Total {
    /// Nanoseconds per work item.
    pub fn ns_per_item(&self) -> f64 {
        self.ns as f64 / self.count.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Spans of different tracers of one run get distinct ids.
    id_base: u64,
    next: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new(epoch: Instant, id_base: u64) -> Self {
        Self {
            epoch,
            id_base,
            next: 0,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A timestamp to pass to [`Tracer::record`] as a span's start.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        self.id_base + self.next
    }

    /// Records the span `name` from `start_ns` to now; returns its id.
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, count: u64) -> u64 {
        let id = self.reserve();
        self.record_id(id, name, parent, start_ns, count);
        id
    }

    /// Records the span `name` under an id from [`Tracer::reserve`].
    pub fn record_id(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start_ns: u64,
        count: u64,
    ) {
        let end_ns = self.now();
        let total = self.totals.entry(name).or_default();
        total.spans += 1;
        total.ns += end_ns.saturating_sub(start_ns);
        total.count += count;
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                count,
            });
        }
    }

    /// Runs `f` inside the span `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        count: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.record(name, parent, start, count);
        out
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let total = self.totals.entry(name).or_default();
            total.spans += t.spans;
            total.ns += t.ns;
            total.count += t.count;
        }
        let room = KEEP_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Writes the kept spans as JSON lines, then one line per total.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.count
            )?;
        }
        for (name, t) in &self.totals {
            writeln!(
                out,
                "{{\"total\":\"{name}\",\"spans\":{},\"ns\":{},\"count\":{}}}",
                t.spans, t.ns, t.count
            )?;
        }
        out.flush()
    }
}
