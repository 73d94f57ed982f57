//! Report assembly and rendering for the traced passes.
//!
//! The traced spans pass drives `StorageStack` itself, so it assembles
//! the `ReplayReport` the runner would, and renders the text
//! `pod-cli replay` prints. `cmd_replay::run` renders inline, with no
//! public function to call, so [`render_replay`] mirrors its print
//! block line for line; the benchmark compares the result byte for byte
//! with the untraced job's stdout, so any drift shows as a failed run.

use pod_core::metrics::{Metrics, Timeline};
use pod_core::obs::Layer;
use pod_core::serve::ServeAggregate;
use pod_core::{ReplayReport, StorageStack};
use pod_trace::Trace;
use std::fmt::Write as _;

/// Leading requests excluded from measurement, as the runner counts
/// them.
pub fn warmup_requests(warmup_fraction: f64, n: usize) -> usize {
    ((n as f64) * warmup_fraction) as usize
}

/// The report the runner assembles from a finished stack and its
/// per-request response times.
pub fn build_report(
    stack: &StorageStack,
    scheme: &str,
    trace: &Trace,
    warmup: usize,
    responses: &[Option<u64>],
) -> ReplayReport {
    let n = trace.requests.len();
    let mut overall = Metrics::new();
    let mut reads = Metrics::new();
    let mut writes = Metrics::new();
    let mut timeline_samples: Vec<(u64, u64)> = Vec::with_capacity(n - warmup);
    for (idx, req) in trace.requests.iter().enumerate().skip(warmup) {
        let us = responses[idx].expect("every request resolved after finish()");
        overall.record(us);
        timeline_samples.push((req.arrival.as_micros(), us));
        if req.op.is_write() {
            writes.record(us);
        } else {
            reads.record(us);
        }
    }
    let counters = *stack.observer().counters();
    ReplayReport {
        scheme: scheme.to_string(),
        trace: trace.name.clone(),
        overall,
        reads,
        writes,
        counters: stack.dedup().counters(),
        capacity_used_blocks: stack.dedup().capacity_used_blocks(),
        nvram_peak_bytes: stack.dedup().nvram_peak_bytes(),
        read_cache_hit_rate: counters.read_hit_rate(),
        read_fragmentation: counters.read_fragmentation(),
        disk: stack.disk().stats(),
        icache_epochs: stack.cache().epochs(),
        icache_repartitions: stack.cache().repartitions(),
        final_index_fraction: stack.cache().index_fraction(),
        stack: counters,
        timeline: Timeline::build(&timeline_samples, 60),
        integrity: None,
        profile: None,
    }
}

/// The serve engine's cross-tenant aggregate of policy-free tenant
/// reports: metrics merged, counters, capacity and NVRAM summed.
pub fn aggregate<'a>(reports: impl IntoIterator<Item = &'a ReplayReport>) -> ServeAggregate {
    let mut a = ServeAggregate::default();
    for rep in reports {
        a.overall.merge(&rep.overall);
        a.reads.merge(&rep.reads);
        a.writes.merge(&rep.writes);
        let (s, c) = (&mut a.counters, &rep.counters);
        s.write_requests += c.write_requests;
        s.removed_requests += c.removed_requests;
        s.small_write_requests += c.small_write_requests;
        s.removed_small_requests += c.removed_small_requests;
        s.large_write_requests += c.large_write_requests;
        s.removed_large_requests += c.removed_large_requests;
        s.deduped_blocks += c.deduped_blocks;
        s.written_blocks += c.written_blocks;
        s.disk_index_lookups += c.disk_index_lookups;
        a.stack.absorb(&rep.stack);
        a.capacity_used_blocks += rep.capacity_used_blocks;
        a.nvram_peak_bytes += rep.nvram_peak_bytes;
    }
    a
}

/// What `pod-cli replay` prints for `rep`, minus its `done in` line and
/// the host-time line that only `--prof` adds.
pub fn render_replay(rep: &ReplayReport, requests: usize, trace: &str, scheme: &str) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(
        w,
        "replaying {requests} requests of `{trace}` through {scheme} ..."
    );
    let _ = writeln!(w);
    let _ = writeln!(
        w,
        "response time (ms):    mean      p50      p95      p99      max"
    );
    for (label, m) in [
        ("overall", &rep.overall),
        ("reads", &rep.reads),
        ("writes", &rep.writes),
    ] {
        let _ = writeln!(
            w,
            "  {label:<18} {:>7.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            m.mean_ms(),
            m.percentile_us(50.0) as f64 / 1e3,
            m.percentile_us(95.0) as f64 / 1e3,
            m.percentile_us(99.0) as f64 / 1e3,
            m.max_us() as f64 / 1e3,
        );
    }
    let _ = writeln!(
        w,
        "\nwrites removed {:.1}%   deduped blocks {}   capacity used {:.1} MiB",
        rep.writes_removed_pct(),
        rep.counters.deduped_blocks,
        rep.capacity_used_mib()
    );
    let _ = writeln!(
        w,
        "write classification: {} Cat-1, {} Cat-2, {} Cat-3, {} unique",
        rep.stack.cat1_writes,
        rep.stack.cat2_writes,
        rep.stack.cat3_writes,
        rep.stack.unique_writes
    );
    let _ = writeln!(
        w,
        "read-cache hit rate {:.1}%   read fragmentation {:.2}   NVRAM peak {:.2} KiB",
        rep.read_cache_hit_rate * 100.0,
        rep.read_fragmentation,
        rep.nvram_peak_bytes as f64 / 1024.0
    );
    let _ = writeln!(
        w,
        "layer time shares: cache {:.1}%  dedup {:.1}%  disk {:.1}%",
        rep.stack.layer_share(Layer::Cache) * 100.0,
        rep.stack.layer_share(Layer::Dedup) * 100.0,
        rep.stack.layer_share(Layer::Disk) * 100.0,
    );
    let _ = writeln!(
        w,
        "iCache: {} epochs, {} repartitions, final index share {:.0}%",
        rep.icache_epochs,
        rep.icache_repartitions,
        rep.final_index_fraction * 100.0
    );
    let busy: u64 = rep.disk.iter().map(|d| d.busy_us).sum();
    let ops: u64 = rep.disk.iter().map(|d| d.ops).sum();
    let depth = rep
        .disk
        .iter()
        .map(|d| d.max_queue_depth)
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        w,
        "disks: {ops} ops, {:.1} s busy, max queue depth {depth}",
        busy as f64 / 1e6
    );
    if !rep.timeline.points.is_empty() {
        let _ = writeln!(
            w,
            "\nresponse-time over the day (peak {:.1} ms):\n  {}",
            rep.timeline.peak_us() / 1e3,
            rep.timeline.sparkline()
        );
    }
    let _ = writeln!(
        w,
        "\nlatency histogram (overall):\n{}",
        rep.overall.histogram().render(40)
    );
    out
}
