//! In-memory spans and per-span self time.
//!
//! A [`Recorder`] keeps every span of a traced job in memory: a name, a
//! start and end in nanoseconds since a shared origin, the index of the
//! span that caused it, the request it belongs to and the thread that
//! ran it. Spans are written out once the job is over.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// "No parent" / "no request".
pub const NONE: u32 = u32::MAX;

/// Span names: one per boundary the traced job crosses into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Name {
    CliArgs,
    TraceSynth,
    StackBuild,
    StackReplay,
    DiskRunUntil,
    ProcessRequest,
    WriteClassify,
    WriteSubmit,
    ReadLookup,
    ReadMiss,
    ReadHit,
    AfterRequest,
    StackFinish,
    StackResponses,
    RunnerReport,
    ServeShards,
    ServeShard,
    ServeAggregate,
    CliRender,
}

impl Name {
    /// Module-prefixed name, as written to the spans file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::CliArgs => "cli.args",
            Name::TraceSynth => "trace.synth",
            Name::StackBuild => "stack.build",
            Name::StackReplay => "stack.replay",
            Name::DiskRunUntil => "disk.run_until",
            Name::ProcessRequest => "stack.process_request",
            Name::WriteClassify => "stack.write_classify",
            Name::WriteSubmit => "stack.write_submit",
            Name::ReadLookup => "stack.read_lookup",
            Name::ReadMiss => "stack.read_miss",
            Name::ReadHit => "stack.read_hit",
            Name::AfterRequest => "stack.after_request",
            Name::StackFinish => "stack.finish",
            Name::StackResponses => "stack.responses",
            Name::RunnerReport => "runner.report",
            Name::ServeShards => "serve.shards",
            Name::ServeShard => "serve.shard",
            Name::ServeAggregate => "serve.aggregate",
            Name::CliRender => "cli.render",
        }
    }
}

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same list, or [`NONE`].
    pub parent: u32,
    /// Request id shared by every span of one request, or [`NONE`].
    pub req: u32,
    pub name: Name,
    pub thread: u8,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span list of one thread. Indices returned by [`open`](Self::open)
/// and [`push`](Self::push) are positions in [`spans`](Self::spans).
pub struct Recorder {
    origin: Instant,
    thread: u8,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: u8, capacity: usize) -> Self {
        Self {
            origin,
            thread,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the shared origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: Name, parent: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, NONE, now, now)
    }

    /// End the span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    /// Record a finished span.
    #[inline]
    pub fn push(&mut self, name: Name, parent: u32, req: u32, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            start_ns,
            end_ns,
            parent,
            req,
            name,
            thread: self.thread,
        });
        id
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: Name, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Append `other`'s spans to `into`, re-basing its parent indices. Its
/// root spans (parent [`NONE`]) become children of `root_parent`.
pub fn merge(into: &mut Vec<Span>, other: Vec<Span>, root_parent: u32) {
    let base = u32::try_from(into.len()).expect("fewer than 2^32 spans");
    into.extend(other.into_iter().map(|mut s| {
        s.parent = if s.parent == NONE {
            root_parent
        } else {
            s.parent + base
        };
        s
    }));
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Sorts
/// `intervals` in place.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children (other threads) count
/// once; a child's time outside its parent does not count.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Group children by parent in linear time: `first[p]..first[p + 1]`
    // indexes `kids`, the children of span `p` in recording order.
    let n = spans.len();
    let mut first = vec![0usize; n + 1];
    for s in spans.iter().filter(|s| s.parent != NONE) {
        first[s.parent as usize + 1] += 1;
    }
    for i in 0..n {
        first[i + 1] += first[i];
    }
    let mut next = first.clone();
    let mut kids = vec![0u32; first[n]];
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent != NONE) {
        let slot = &mut next[s.parent as usize];
        kids[*slot] = i as u32;
        *slot += 1;
    }
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    let mut scratch = Vec::new();
    for (p, span) in spans.iter().enumerate() {
        let group = &kids[first[p]..first[p + 1]];
        if group.is_empty() {
            continue;
        }
        scratch.clear();
        scratch.extend(group.iter().map(|&c| {
            let c = &spans[c as usize];
            (c.start_ns, c.end_ns)
        }));
        out[p] -= covered(&mut scratch, span.start_ns, span.end_ns);
    }
    out
}

/// Length of the union of every root span (no parent): the part of the
/// job that some span covers.
pub fn root_coverage(spans: &[Span]) -> u64 {
    let mut roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == NONE)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    covered(&mut roots, 0, u64::MAX)
}

/// Per-name totals: span count, summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<Name, NameTotals> {
    // Indexed by `Name as usize`: one array slot per name, no map lookup
    // per span.
    let mut by_name = [None::<NameTotals>; 256];
    for (s, &own) in spans.iter().zip(selfs) {
        let t = by_name[s.name as usize].get_or_insert_with(NameTotals::default);
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        if let Some(t) = by_name[s.name as usize].take() {
            out.insert(s.name, t);
        }
    }
    out
}

/// Write the spans as tab-separated rows. Spans outside requests are
/// all written; request spans only for requests whose id is a multiple
/// of `sample_every`, to keep the file small. Totals use every span.
pub fn write_tsv(
    out: &mut impl Write,
    spans: &[Span],
    selfs: &[u64],
    sample_every: u32,
) -> io::Result<()> {
    let signed = |v: u32| if v == NONE { -1 } else { i64::from(v) };
    writeln!(
        out,
        "# request spans sampled 1 in {sample_every}; times in ns since process start"
    )?;
    writeln!(
        out,
        "id\tparent\treq\tthread\tname\tstart_ns\tend_ns\tself_ns"
    )?;
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        if s.req != NONE && s.req % sample_every != 0 {
            continue;
        }
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{own}",
            signed(s.parent),
            signed(s.req),
            s.thread,
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            start_ns,
            end_ns,
            parent,
            req: NONE,
            name,
            thread: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span(Name::TraceSynth, NONE, 10, 25)];
        assert_eq!(self_times(&spans), vec![15]);
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60): self = 70.
        let spans = [
            span(Name::StackReplay, NONE, 0, 100),
            span(Name::DiskRunUntil, 0, 10, 30),
            span(Name::ProcessRequest, 0, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(Name::StackReplay, NONE, 0, 100),
            span(Name::ProcessRequest, 0, 0, 40),
            span(Name::WriteClassify, 1, 0, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two shard threads overlap in [20,50): covered = [10,80) = 70.
        let spans = [
            span(Name::ServeShards, NONE, 0, 100),
            span(Name::ServeShard, 0, 10, 50),
            span(Name::ServeShard, 0, 20, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(Name::StackReplay, NONE, 10, 20),
            span(Name::ProcessRequest, 0, 5, 15),
            span(Name::AfterRequest, 0, 18, 40),
        ];
        // Inside the parent the children cover [10,15) and [18,20).
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn children_tiling_the_parent_leave_no_self_time() {
        let spans = [
            span(Name::ProcessRequest, NONE, 0, 30),
            span(Name::WriteClassify, 0, 0, 10),
            span(Name::WriteSubmit, 0, 10, 20),
            span(Name::AfterRequest, 0, 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 10, 10]);
    }

    #[test]
    fn merge_rebases_parents_and_adopts_roots() {
        let mut all = vec![span(Name::ServeShards, NONE, 0, 100)];
        let thread = vec![
            span(Name::ServeShard, NONE, 5, 90),
            span(Name::StackBuild, 0, 5, 10),
        ];
        merge(&mut all, thread, 0);
        assert_eq!(all[1].parent, 0);
        assert_eq!(all[2].parent, 1);
        assert_eq!(self_times(&all), vec![15, 80, 5]);
    }

    #[test]
    fn root_coverage_is_the_union_of_roots() {
        let spans = [
            span(Name::CliArgs, NONE, 0, 10),
            span(Name::TraceSynth, NONE, 10, 40),
            span(Name::StackBuild, 1, 10, 60),
            span(Name::StackReplay, NONE, 50, 70),
        ];
        assert_eq!(root_coverage(&spans), 60);
    }

    #[test]
    fn totals_sum_durations_and_self_time_per_name() {
        let spans = [
            span(Name::ProcessRequest, NONE, 0, 10),
            span(Name::WriteClassify, 0, 0, 4),
            span(Name::ProcessRequest, NONE, 20, 26),
        ];
        let t = totals_by_name(&spans, &self_times(&spans));
        let pr = t[&Name::ProcessRequest];
        assert_eq!((pr.count, pr.total_ns, pr.self_ns), (2, 16, 12));
    }

    #[test]
    fn tsv_samples_request_spans_only() {
        let mut spans = vec![span(Name::StackReplay, NONE, 0, 100)];
        for req in 0..4u32 {
            spans.push(Span {
                req,
                ..span(
                    Name::ProcessRequest,
                    0,
                    u64::from(req) * 10,
                    u64::from(req) * 10 + 5,
                )
            });
        }
        let selfs = self_times(&spans);
        let mut buf = Vec::new();
        write_tsv(&mut buf, &spans, &selfs, 2).expect("write to memory");
        let text = String::from_utf8(buf).expect("utf8");
        let rows: Vec<&str> = text.lines().skip(2).collect();
        assert_eq!(rows.len(), 3, "root + requests 0 and 2: {text}");
        assert!(rows[0].starts_with("0\t-1\t-1\t0\tstack.replay\t0\t100\t80"));
        assert!(rows[2].contains("\t2\t0\tstack.process_request\t20\t25\t5"));
    }
}
