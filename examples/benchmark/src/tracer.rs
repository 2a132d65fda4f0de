//! Host-clock spans recorded around the benchmark's calls into the public
//! API. The tree is workload → pass → op (graph × token) → call; spans of
//! one op share a trace id. Spans stay in memory and are exported at the
//! end through `tc_telemetry::chrome_trace_json`.

use std::time::Instant;

use tc_telemetry::{chrome_trace_json, RequestTrace, TraceSpan};

use crate::stats;

#[derive(Clone, Debug)]
pub struct HostSpan {
    /// What the span measures: `"pass"`, `"op"`, or the called layer
    /// (`"prepare"`, `"count"`, `"run_batch"`, …).
    pub layer: &'static str,
    pub label: String,
    /// Trace id: an op's own id, shared by the calls inside it; 0 above
    /// op level.
    pub id: u64,
    pub depth: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Peak resident set during the call, MiB (calls only, when `/proc`
    /// allows resetting the high-water mark).
    pub peak_rss_mb: Option<f64>,
}

impl HostSpan {
    pub fn seconds(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

/// Records spans when on; every method is a no-op when off, so untraced
/// runs pay nothing for the instrumentation.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<(usize, Instant)>,
    next_id: u64,
    /// Host nanoseconds spent in the tracer's own bookkeeping.
    own_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_id: 1,
            own_ns: 0,
        }
    }

    /// Host seconds the tracer has spent on its own bookkeeping: span
    /// records and memory probes.
    pub fn own_seconds(&self) -> f64 {
        self.own_ns as f64 * 1e-9
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between passes (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.on = on;
    }

    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Open a span under the innermost open one and return its index. An
    /// `"op"` span takes a fresh trace id; every other span inherits its
    /// parent's.
    pub fn open(&mut self, layer: &'static str, label: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let entered = Instant::now();
        let id = if layer == "op" {
            self.next_id += 1;
            self.next_id - 1
        } else {
            self.open.last().map_or(0, |&(i, _)| self.spans[i].id)
        };
        let now = Instant::now();
        self.spans.push(HostSpan {
            layer,
            label: label.to_string(),
            id,
            depth: self.open.len(),
            start_ns: self.ns(now),
            dur_ns: 0,
            peak_rss_mb: None,
        });
        self.open.push((self.spans.len() - 1, now));
        self.own_ns += elapsed_ns(entered);
        Some(self.spans.len() - 1)
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let (i, start) = self.open.pop().expect("close without open");
        let closed = Instant::now();
        self.spans[i].dur_ns = closed.duration_since(start).as_nanos() as u64;
        self.own_ns += elapsed_ns(closed);
    }

    /// Run one call into the system as a closed span, with its peak
    /// resident set.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let entered = Instant::now();
        let rss_reset = stats::reset_peak_rss();
        self.own_ns += elapsed_ns(entered);
        self.open(layer, layer);
        let out = f();
        self.close();
        let returned = Instant::now();
        let last = self.spans.len() - 1;
        self.spans[last].peak_rss_mb = if rss_reset {
            stats::peak_rss_mb()
        } else {
            None
        };
        self.own_ns += elapsed_ns(returned);
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Indices of the direct children of span `i` (spans are stored in
    /// open order, so they follow it until the depth falls back).
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let depth = self.spans[i].depth;
        (i + 1..self.spans.len())
            .take_while(move |&j| self.spans[j].depth > depth)
            .filter(move |&j| self.spans[j].depth == depth + 1)
    }

    /// Every descendant of span `i`.
    pub fn descendants(&self, i: usize) -> impl Iterator<Item = &HostSpan> + '_ {
        let depth = self.spans[i].depth;
        self.spans[i + 1..]
            .iter()
            .take_while(move |s| s.depth > depth)
    }

    /// Host seconds of span `i` not covered by its children.
    pub fn self_seconds(&self, i: usize) -> f64 {
        let covered: u64 = self.children(i).map(|j| self.spans[j].dur_ns).sum();
        self.spans[i].dur_ns.saturating_sub(covered) as f64 * 1e-9
    }

    /// Self time summed per layer, in first-seen order.
    pub fn self_seconds_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            let s = self.self_seconds(i);
            match out.iter_mut().find(|(layer, _)| *layer == span.layer) {
                Some((_, total)) => *total += s,
                None => out.push((span.layer, s)),
            }
        }
        out
    }

    /// Share of span `i`'s duration its children cover.
    pub fn coverage(&self, i: usize) -> f64 {
        let covered: u64 = self.children(i).map(|j| self.spans[j].dur_ns).sum();
        stats::ratio(covered as f64, self.spans[i].dur_ns as f64)
    }

    /// The spans as a Chrome trace: one thread per trace id (id 0 holds the
    /// workload and pass spans).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut traces: Vec<RequestTrace> = Vec::new();
        for span in &self.spans {
            let at = match traces.iter().position(|t| t.id == span.id) {
                Some(at) => at,
                None => {
                    let name = if span.id == 0 {
                        workload.to_string()
                    } else {
                        span.label.clone()
                    };
                    traces.push(RequestTrace {
                        id: span.id,
                        name,
                        backend: workload.to_string(),
                        spans: Vec::new(),
                    });
                    traces.len() - 1
                }
            };
            traces[at].spans.push(TraceSpan::new(
                format!("{}: {}", span.layer, span.label),
                span.start_ns,
                span.dur_ns,
                span.depth,
            ));
        }
        chrome_trace_json(&traces)
    }

    /// Host seconds of the calls to `layer` under span `i`.
    pub fn layer_seconds(&self, i: usize, layer: &str) -> f64 {
        self.descendants(i)
            .filter(|s| s.layer == layer)
            .map(HostSpan::seconds)
            .sum()
    }

    /// Largest peak resident set of the calls to `layer` under span `i`,
    /// MiB (0 when unavailable).
    pub fn layer_peak_rss_mb(&self, i: usize, layer: &str) -> f64 {
        self.descendants(i)
            .filter(|s| s.layer == layer)
            .filter_map(|s| s.peak_rss_mb)
            .fold(0.0, f64::max)
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ids_follow_ops() {
        let mut t = Tracer::new(true);
        t.open("pass", "pass 0");
        t.open("op", "g @ tok");
        t.call("prepare", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.call("count", || ());
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].id, 0);
        assert_eq!(spans[1].id, spans[2].id);
        assert_eq!(spans[2].id, spans[3].id);
        assert_eq!(t.children(1).collect::<Vec<_>>(), vec![2, 3]);
        assert!(t.self_seconds(1) < spans[1].seconds());
        assert!(t.coverage(0) > 0.0 && t.coverage(0) <= 1.0);
        let json = t.chrome_json("w");
        assert!(json.contains("prepare: prepare"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("pass", "p");
        assert_eq!(t.call("count", || 7), 7);
        t.close();
        assert!(t.spans().is_empty());
    }
}
