//! In-memory span recording for the traced run.
//!
//! Spans are opened around the calls the benchmark makes into each layer
//! (and, through the [`TracingHost`] and [`TracingChatbot`] wrappers, around
//! the calls the program makes back into the web and the chatbot). They are
//! kept in memory and aggregated or written out when the run ends. A span's
//! self time is its duration minus the part of its interval that its direct
//! child spans cover.

use aipan_chatbot::prompt::{TaskKind, TaskPrompt};
use aipan_chatbot::{Chatbot, TokenUsage};
use aipan_net::http::{Request, Response};
use aipan_net::VirtualHost;
use aipan_webgen::LazySite;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `crawler.crawl` or `chatbot.segment_text`.
    pub name: &'static str,
    /// The request (domain) the span belongs to.
    pub request: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u32,
}

/// A span recorder. Thread-safe so the web and chatbot wrappers can share
/// it, though the traced re-drive itself is serial.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        // Spans are only pushed and popped under the lock and no panic can
        // happen while it is held, so a poisoned guard is still consistent.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Nanoseconds since the tracer's origin.
    pub fn clock_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tag the spans opened from now on with `request`.
    pub fn set_request(&self, request: u32) {
        self.state().request = request;
    }

    /// Open a span; it closes when the guard drops, also while unwinding.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.clock_ns();
        let mut state = self.state();
        let parent = state.stack.last().copied();
        let id = state.spans.len();
        let request = state.request;
        state.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        state.stack.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _guard = self.enter(name);
        f()
    }

    fn exit(&self, id: usize) {
        let end_ns = self.clock_ns();
        let mut state = self.state();
        if let Some(span) = state.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
        if let Some(pos) = state.stack.iter().rposition(|&open| open == id) {
            state.stack.truncate(pos);
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.exit(self.id);
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| children.get_mut(p)) {
            parent.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered_ns(kids, span.start_ns, span.end_ns))
        })
        .collect()
}

/// Time within `[lo, hi)` that no top-level span covers.
pub fn unattributed_ns(spans: &[Span], lo: u64, hi: u64) -> u64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    hi.saturating_sub(lo)
        .saturating_sub(covered_ns(&mut roots, lo, hi))
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

impl LayerTotal {
    /// Summed duration in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Summed self time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Aggregate spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Span names of the web layers.
pub const WEBGEN_GENERATE: &str = "webgen.generate";
/// A request served by an already generated site.
pub const NET_SERVE: &str = "net.serve";

/// A [`VirtualHost`] over a lazily generated site that records a
/// [`WEBGEN_GENERATE`] span for a request that finds the site unbuilt (the
/// first `handle` materializes it) and a [`NET_SERVE`] span otherwise.
pub struct TracingHost {
    site: Arc<LazySite>,
    tracer: Arc<Tracer>,
}

impl TracingHost {
    /// Wrap `site`, recording into `tracer`.
    pub fn new(site: Arc<LazySite>, tracer: Arc<Tracer>) -> TracingHost {
        TracingHost { site, tracer }
    }
}

impl VirtualHost for TracingHost {
    fn handle(&self, request: &Request) -> Response {
        let name = if self.site.is_built() {
            NET_SERVE
        } else {
            WEBGEN_GENERATE
        };
        self.tracer.span(name, || self.site.handle(request))
    }
}

/// Span name of one chatbot task.
pub fn task_span(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::LabelHeadings => "chatbot.label_headings",
        TaskKind::SegmentText => "chatbot.segment_text",
        TaskKind::ExtractDataTypes => "chatbot.extract_data_types",
        TaskKind::NormalizeDataTypes => "chatbot.normalize_data_types",
        TaskKind::AnnotatePurposes => "chatbot.annotate_purposes",
        TaskKind::AnnotateHandling => "chatbot.annotate_handling",
        TaskKind::AnnotateRights => "chatbot.annotate_rights",
    }
}

/// A [`Chatbot`] that records one span per completion, named by task, and
/// counts re-prompts (completions with `attempt > 0`).
pub struct TracingChatbot<'a> {
    inner: &'a dyn Chatbot,
    tracer: &'a Tracer,
    reprompts: AtomicU64,
}

impl<'a> TracingChatbot<'a> {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn Chatbot, tracer: &'a Tracer) -> TracingChatbot<'a> {
        TracingChatbot {
            inner,
            tracer,
            reprompts: AtomicU64::new(0),
        }
    }

    /// Completions issued as re-prompts.
    pub fn reprompts(&self) -> u64 {
        self.reprompts.load(Ordering::Relaxed)
    }
}

impl Chatbot for TracingChatbot<'_> {
    fn complete(&self, prompt: &TaskPrompt, input: &str) -> String {
        self.tracer.span(task_span(prompt.kind), || {
            self.inner.complete(prompt, input)
        })
    }

    fn complete_attempt(&self, prompt: &TaskPrompt, input: &str, attempt: u32) -> String {
        if attempt > 0 {
            self.reprompts.fetch_add(1, Ordering::Relaxed);
        }
        self.tracer.span(task_span(prompt.kind), || {
            self.inner.complete_attempt(prompt, input, attempt)
        })
    }

    fn model_id(&self) -> &str {
        self.inner.model_id()
    }

    fn usage(&self) -> TokenUsage {
        self.inner.usage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", None, 0, 100),
            span("child", Some(0), 10, 40),
            span("grandchild", Some(1), 15, 35),
            span("child", Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 20, 50), span("late", Some(0), 40, 90)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn unattributed_is_wall_minus_top_level_cover() {
        let spans = vec![
            span("a", None, 10, 30),
            span("a.kid", Some(0), 12, 20),
            span("b", None, 25, 60),
        ];
        assert_eq!(unattributed_ns(&spans, 0, 100), 50);
    }

    #[test]
    fn totals_sum_durations_and_self_times_by_name() {
        let spans = vec![
            span("root", None, 0, 100),
            span("child", Some(0), 10, 40),
            span("child", Some(0), 50, 70),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["child"],
            LayerTotal {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(t["root"].self_ns, 50);
    }

    #[test]
    fn tracer_nests_spans_and_closes_them_while_unwinding() {
        let tracer = Tracer::new();
        tracer.set_request(3);
        tracer.span("outer", || {
            tracer.span("inner", || ());
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                tracer.span("dies", || panic!("unwinds through the span"))
            }));
            tracer.span("after", || ());
        });
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("dies", Some(0)),
                ("after", Some(0))
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.request == 3 && s.end_ns >= s.start_ns));
    }
}
