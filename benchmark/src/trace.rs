//! In-memory spans and counts for the traced replica run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (the node itself carries no instrumentation yet); they
//! stay in memory during the run and are written as JSON-lines at exit.
//! Everything runs on one thread, so spans nest strictly: a span's parent
//! is whatever span was open when it began.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the same span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Runs `$body` inside a span named `$name` on tracer `$tr`. A macro, not
/// a closure-taking method, so the body can borrow the tracer's owner.
#[macro_export]
macro_rules! span {
    ($tr:expr, $name:expr, $body:expr) => {{
        let id = $tr.enter($name);
        let out = $body;
        $tr.exit(id);
        out
    }};
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Spans begun from now on are tagged with `epoch`.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            epoch: self.epoch,
        });
        self.open.push(id);
        id
    }

    /// # Panics
    /// Panics when `id` is not the innermost open span: spans must nest.
    pub fn exit(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = now;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Raises the count `name` to `n` if it is lower (a high-water mark).
    pub fn count_max(&mut self, name: &'static str, n: u64) {
        let slot = self.counts.entry(name).or_default();
        *slot = (*slot).max(n);
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: every span (`id` is its position, so
    /// `parent` refers to an earlier line), then every count.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as u64));
            let line = Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("parent", parent),
                ("epoch", Json::Int(s.epoch)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        for (name, value) in &self.counts {
            let line = Json::obj([("count", Json::str(*name)), ("value", Json::Int(*value))]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its child spans cover. Children of one parent never overlap (one
/// thread), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    own
}

/// Total self time per span name, in milliseconds — a layer's busy time.
pub fn busy_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_default() += own as f64 / 1e6;
    }
    by_name
}

/// The share of the root span's interval covered by leaf spans (spans
/// with no children): how much of the run the trace can attribute to a
/// call into a layer rather than to the driver's own glue.
///
/// # Panics
/// Panics on an empty trace.
pub fn leaf_coverage(spans: &[Span]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let leaves: u64 = spans
        .iter()
        .zip(&has_child)
        // the root is never a leaf, even in a trace of one span
        .filter(|(s, has_child)| !**has_child && s.parent.is_some())
        .map(|(s, _)| s.duration_ns())
        .sum();
    leaves as f64 / spans[0].duration_ns() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch: 0,
        }
    }

    /// run [0,100] ⊃ epoch [10,90] ⊃ { exec [20,50], sign [50,80] ⊃ hash [60,70] }
    fn tree() -> Vec<Span> {
        vec![
            sp("run", 0, 100, None),
            sp("epoch", 10, 90, Some(0)),
            sp("exec", 20, 50, Some(1)),
            sp("sign", 50, 80, Some(1)),
            sp("hash", 60, 70, Some(3)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run: 100 − 80; epoch: 80 − (30 + 30); sign: 30 − 10
        assert_eq!(self_times_ns(&tree()), vec![20, 20, 30, 20, 10]);
        // self times partition the root interval
        assert_eq!(self_times_ns(&tree()).iter().sum::<u64>(), 100);
    }

    #[test]
    fn busy_time_sums_self_time_over_same_named_spans() {
        let mut spans = tree();
        spans.push(sp("exec", 80, 90, Some(1)));
        let busy = busy_ms_by_name(&spans);
        assert_eq!(busy["exec"], 40.0 / 1e6);
        assert_eq!(busy["epoch"], 10.0 / 1e6);
        assert_eq!(busy["sign"], 20.0 / 1e6);
    }

    #[test]
    fn coverage_counts_leaf_spans_against_the_root() {
        // leaves: exec 30 + hash 10 of a 100 ns root
        assert_eq!(leaf_coverage(&tree()), 0.4);
    }

    #[test]
    fn tracer_nests_spans_and_tags_epochs() {
        let mut tr = Tracer::new();
        let out = span!(tr, "run", {
            tr.set_epoch(3);
            span!(tr, "exec", 41 + 1)
        });
        assert_eq!(out, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].epoch),
            ("run", None, 0)
        );
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].epoch),
            ("exec", Some(0), 3)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_an_outer_span_first_is_refused() {
        let mut tr = Tracer::new();
        let outer = tr.enter("outer");
        let _inner = tr.enter("inner");
        tr.exit(outer);
    }

    #[test]
    fn counts_add_and_track_high_water_marks() {
        let mut tr = Tracer::new();
        tr.count("txs", 3);
        tr.count("txs", 4);
        tr.count_max("bytes_max", 10);
        tr.count_max("bytes_max", 7);
        assert_eq!(tr.get_count("txs"), 7);
        assert_eq!(tr.get_count("bytes_max"), 10);
        assert_eq!(tr.get_count("never"), 0);
    }

    #[test]
    fn json_lines_carry_one_object_per_span_and_count() {
        let mut tr = Tracer::new();
        span!(tr, "run", span!(tr, "exec", ()));
        tr.count("txs", 2);
        let text = tr.to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"id\": 0, \"name\": \"run\", "));
        assert!(lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0"));
        assert_eq!(lines[2], "{\"count\": \"txs\", \"value\": 2}");
    }
}
