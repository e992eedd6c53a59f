//! The span recorder: timed intervals around the benchmark's calls into
//! each crate, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the recorder
//! was created), the span that caused it, and the request it belongs to.
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover, so nested layers add up to the outer span
//! without double counting.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call it times, e.g. `Core::run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (cell or served request) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn start(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking thread");
        spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            request,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes `id` and returns its duration in nanoseconds.
    pub fn end(&self, id: SpanId) -> u64 {
        let end = self.now();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking thread");
        let span = &mut spans[id.0];
        span.end = end;
        span.duration()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking thread")
            .clone()
    }
}

/// Runs `f` inside a span named `name` when `rec` is set, handing `f` the
/// id its own child spans take as parent. Returns `f`'s result and the
/// span's duration in nanoseconds (0 untraced).
pub fn in_span<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, u64) {
    match rec {
        None => (f(None), 0),
        Some(rec) => {
            let id = rec.start(name, parent, request);
            let out = f(Some(id));
            (out, rec.end(id))
        }
    }
}

/// Self time of every span, index for index: its duration minus the
/// union of its children's intervals, each clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(SpanId(p)) = span.parent {
            children[p].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(span.end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Self times grouped by span name (ascending name order).
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(own);
    }
    by_name
}

/// Writes every span as one tab-separated line: id, name, start, end,
/// parent id (`-` for none), request id and self time.
///
/// # Errors
///
/// Propagates the file-system error.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
    for (i, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.0.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            span.name, span.start, span.end, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent: parent.map(SpanId),
            request: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        let spans = [
            span("cell", 0, 100, None),
            span("Core::run", 10, 40, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        // The grandchild is covered by its parent, not by the root.
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_siblings_are_covered_once() {
        let spans = [
            span("request_over", 0, 100, None),
            span("Server::handle", 10, 40, Some(0)),
            span("Server::key_of", 30, 60, Some(0)),
            span("DiskCache::load", 70, 80, Some(0)),
        ];
        // Children cover [10, 60) and [70, 80): 60 of 100.
        assert_eq!(self_times(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [span("parent", 10, 50, None), span("child", 0, 20, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 20]);
        let disjoint = [span("parent", 10, 50, None), span("late", 60, 90, Some(0))];
        assert_eq!(self_times(&disjoint), vec![40, 30]);
    }

    #[test]
    fn recorder_links_parents_across_threads_and_groups_by_name() {
        let rec = Recorder::default();
        let ((), _) = in_span(Some(&rec), "outer", None, 7, |outer| {
            std::thread::scope(|s| {
                s.spawn(|| in_span(Some(&rec), "inner", outer, 7, |_| ()));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(SpanId(0)));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let by_name = self_times_by_name(&spans);
        assert_eq!(
            by_name.keys().copied().collect::<Vec<_>>(),
            vec!["inner", "outer"]
        );
        // Untraced calls record nothing and report no duration.
        assert_eq!(in_span(None, "x", None, 0, |p| p.is_none()), (true, 0));
    }
}
