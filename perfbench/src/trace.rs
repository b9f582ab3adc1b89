//! In-memory spans around the benchmark's calls into each layer.
//!
//! A traced run wraps every timed call in a span: its name (`layer.call`),
//! start and end, the span that was open when it started (its parent) and
//! the request it served (a circuit, job or event).  Spans stay in memory
//! until the run ends; [`Tracer::write_jsonl`] then writes them out with
//! each span's self time (its duration minus what its children cover).
//! All spans are recorded on the benchmark's own thread: a call that fans
//! out to engine workers is one span.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `sched.force`.
    pub name: &'static str,
    /// The request it served, as interned by [`Tracer::request`].
    pub request: u32,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.  A disabled recorder (an untraced run) records
/// nothing and costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    requests: Vec<String>,
    request_ids: HashMap<String, u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            requests: Vec::new(),
            request_ids: HashMap::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    /// Interns a request name (a circuit, job or event id).
    pub fn request(&mut self, name: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        if let Some(&id) = self.request_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.requests.len()).expect("fewer than 2^32 requests");
        self.requests.push(name.to_owned());
        self.request_ids.insert(name.to_owned(), id);
        id
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`] in LIFO order.
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        if !self.enabled {
            return u32::MAX;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, start_ns, end_ns: 0, parent });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(id), "spans close in LIFO order");
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns()).sum::<u64>() as f64
            / 1e6
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Durations of the spans called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children, in nanoseconds.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Self time summed per layer (the part of a span name before the
    /// first `.`), in milliseconds, sorted by layer name.
    pub fn layer_self_ms(&self) -> Vec<(String, f64)> {
        let mut layers: Vec<(String, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            match layers.iter_mut().find(|(name, _)| name == layer) {
                Some((_, ms)) => *ms += own as f64 / 1e6,
                None => layers.push((layer.to_owned(), own as f64 / 1e6)),
            }
        }
        layers.sort_by(|a, b| a.0.cmp(&b.0));
        layers
    }

    /// Writes every span as one JSON line: name, request, start and end
    /// (µs), parent index and self time (µs).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (index, (span, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"parent\": {parent}, \"self_us\": {:.3}}}",
                span.name,
                engine::report::json_string(&self.requests[span.request as usize]),
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                own as f64 / 1e3,
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let req = t.request("c");
        let outer = t.open("engine.walk", req);
        t.time("sched.force", req, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.close(outer);
        let own = t.self_times_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(own[0] < t.spans()[0].duration_ns());
        assert_eq!(own[1], t.spans()[1].duration_ns());
        assert_eq!(t.count("sched.force"), 1);
        assert_eq!(t.request("c"), req, "requests are interned");
    }
}
