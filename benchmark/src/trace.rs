//! In-memory span recorder for the traced run.
//!
//! A span is one call from this benchmark into a layer's public function:
//! its name, start, end, the span that was open when it began (its parent)
//! and a group id — one per workload pass or per served request. Spans are
//! kept in memory and written out once, when the run ends. A layer's *self
//! time* is its span's duration minus the time its child spans cover.
//!
//! A disabled tracer records nothing and reads no clock, so the untraced
//! run pays only a branch per call site.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub group: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between calls; the traced run alternates
    /// traced and untraced passes so the overhead is measured in one process.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle the tracer inside an open span");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<Cow<'static, str>>, group: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in LIFO order");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.begin(name, group);
        let out = f(self);
        self.end(id);
        out
    }

    /// Durations in seconds of every closed span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Count, total and self time per span name. Children of one span never
    /// overlap (every span here is opened and closed on the calling thread),
    /// so the covered time is the sum of the children's durations.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = totals.entry(span.name.to_string()).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Every span as one JSON document, plus the per-name totals.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}  {{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.group,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n], \"totals\": {\n");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let _ = write!(
                out,
                "{}  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { ",\n" },
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("outer", 1, |tr| {
            tr.span("inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let totals = tr.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(outer.self_ns < outer.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tr.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        off.span("outer", 1, |_| ());
        assert!(off.spans.is_empty());
    }
}
