//! The two traced passes over one workload job.
//!
//! * The **spans** pass does the job `pod-cli` does, but drives the
//!   library's public calls itself and records a span around each:
//!   trace generation, `StorageStack::{with_observer, run_until,
//!   process_request, finish, responses}`, report assembly and the
//!   report renderer. A bench-side observer timestamps the stack's own
//!   events, splitting each request into the steps between them.
//! * The **profile** pass runs the job through `ReplayBuilder::run` or
//!   `ServeBuilder::run` with `.profile(true)` and reads what the
//!   program exposes: the host profile, shard stats, report counters
//!   and the last `StateSnapshot` of each stack.

use crate::report::{aggregate, build_report, render_replay, warmup_requests};
use crate::spans::{Name, Recorder, Span, NONE};
use pod_cli::args::CliArgs;
use pod_cli::cmd_serve::render_report;
use pod_core::obs::LayerHistograms;
use pod_core::serve::{ServeBuilder, ServeReport, ShardRouter, TenantReport};
use pod_core::{
    IntoObserverChain, ProfPhase, ReplayReport, ReplaySizing, StackEvent, StackObserver,
    StateSnapshot, StorageStack, SystemConfig,
};
use pod_trace::{derive_tenants, MergedStream, Trace};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Named numbers a pass reports, in name order.
pub type MetricMap = BTreeMap<&'static str, f64>;

/// The job a pass runs: `pod-cli replay` or `pod-cli serve` with flags.
pub struct Job {
    pub serve: bool,
    pub args: CliArgs,
}

impl Job {
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let (sub, flags) = argv.split_first().ok_or("missing pod-cli subcommand")?;
        let serve = match sub.as_str() {
            "replay" => false,
            "serve" => true,
            other => return Err(format!("unsupported subcommand '{other}' (replay|serve)")),
        };
        let args = CliArgs::parse(flags)?;
        if args.trace_path.is_some() || args.policy.is_some() || args.faults.is_some() {
            return Err("the traced passes take generated, policy- and fault-free jobs".into());
        }
        if args.verify || args.prof || args.trace_out.is_some() {
            return Err("--verify, --prof and --trace-out change the job; leave them off".into());
        }
        Ok(Self { serve, args })
    }

    fn tenants(&self) -> Result<Vec<Trace>, String> {
        let profile = self.args.resolve_profile()?;
        Ok(derive_tenants(
            &profile.scaled(self.args.scale),
            self.args.tenants,
            self.args.seed,
        ))
    }
}

/// What a pass hands back: its metrics, the text it rendered, and for
/// the spans pass every span it recorded.
pub struct PassOutput {
    pub metrics: MetricMap,
    pub rendered: String,
    pub spans: Vec<Span>,
}

/// Bench-side observer: the host time of the last `WriteClassified`,
/// `ReadLookup` and `RequestDone` events, in ns since `origin`.
struct Marks {
    origin: Instant,
    classified: u64,
    lookup: u64,
    hit: bool,
    done: u64,
}

impl Marks {
    fn new(origin: Instant) -> Self {
        Self {
            origin,
            classified: 0,
            lookup: 0,
            hit: false,
            done: 0,
        }
    }
}

impl StackObserver for Marks {
    fn on_event(&mut self, ev: &StackEvent) {
        match ev {
            StackEvent::WriteClassified { .. } => {
                self.classified = self.origin.elapsed().as_nanos() as u64;
            }
            StackEvent::ReadLookup { hit, .. } => {
                self.lookup = self.origin.elapsed().as_nanos() as u64;
                self.hit = *hit;
            }
            StackEvent::RequestDone { .. } => {
                self.done = self.origin.elapsed().as_nanos() as u64;
            }
            _ => {}
        }
    }
}

/// Keeps each stack's latest `StateSnapshot`, keyed by tenant.
type SnapSlot = Arc<Mutex<BTreeMap<u16, StateSnapshot>>>;

struct LastSnapshot {
    tenant: u16,
    slot: SnapSlot,
}

impl StackObserver for LastSnapshot {
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::Snapshot { snap } = ev {
            self.slot
                .lock()
                .expect("no snapshot writer panics while holding the lock")
                .insert(self.tenant, *snap);
        }
    }
}

/// Host nanoseconds per `process_request`, split by operation.
#[derive(Default)]
struct Latencies {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
}

impl Latencies {
    fn absorb(&mut self, other: Latencies) {
        self.write_ns.extend(other.write_ns);
        self.read_ns.extend(other.read_ns);
    }
}

/// Drives stacks request by request, recording for each request a
/// `disk.run_until` span and a `stack.process_request` span whose
/// children end at the stack's own events.
struct RequestLoop<'a> {
    rec: &'a mut Recorder,
    lat: &'a mut Latencies,
    parent: u32,
}

impl RequestLoop<'_> {
    fn step(
        &mut self,
        stack: &mut StorageStack,
        req_id: u32,
        idx: usize,
        req: &pod_types::IoRequest,
        measured: bool,
    ) -> Result<(), String> {
        let a = self.rec.now();
        stack.run_until(req.arrival);
        let s = self.rec.now();
        stack
            .process_request(idx, req, measured)
            .map_err(|e| e.to_string())?;
        let e = self.rec.now();
        let m = stack
            .observer()
            .sink::<Marks>()
            .expect("Marks is attached to every traced stack");
        self.rec.push(Name::DiskRunUntil, self.parent, req_id, a, s);
        let root = self
            .rec
            .push(Name::ProcessRequest, self.parent, req_id, s, e);
        let write = req.op.is_write();
        let (first, second, mark) = if write {
            (Name::WriteClassify, Name::WriteSubmit, m.classified)
        } else {
            let second = if m.hit { Name::ReadHit } else { Name::ReadMiss };
            (Name::ReadLookup, second, m.lookup)
        };
        // Events from this request lie inside [s, e]; a stale mark means
        // the event did not fire, and its interval stays with the root.
        let done = m.done;
        if s <= mark && mark <= done && done <= e {
            self.rec.push(first, root, req_id, s, mark);
            self.rec.push(second, root, req_id, mark, done);
            self.rec.push(Name::AfterRequest, root, req_id, done, e);
        }
        if write {
            self.lat.write_ns.push(e - s);
        } else {
            self.lat.read_ns.push(e - s);
        }
        Ok(())
    }
}

fn chain(origin: Instant) -> (LayerHistograms, Marks) {
    (LayerHistograms::new(), Marks::new(origin))
}

fn config(rec: &mut Recorder, job: &Job) -> Result<SystemConfig, String> {
    rec.time(Name::CliArgs, NONE, || {
        job.args.apply_jobs();
        job.args.system_config()
    })
}

/// The spans pass: the job as `pod-cli` runs it, traced.
pub fn spans_pass(job: &Job, origin: Instant) -> Result<PassOutput, String> {
    if job.serve {
        serve_spans(job, origin)
    } else {
        replay_spans(job, origin)
    }
}

fn replay_spans(job: &Job, origin: Instant) -> Result<PassOutput, String> {
    let mut rec = Recorder::new(origin, 0, 64);
    let cfg = config(&mut rec, job)?;
    let trace = rec.time(Name::TraceSynth, NONE, || job.args.load_trace())?;
    let n = trace.len();
    rec.spans.reserve(n * 5);
    let spec = job.args.scheme.stack_spec();
    let mut stack = rec
        .time(Name::StackBuild, NONE, || {
            StorageStack::with_observer(&spec, &cfg, &trace, chain(origin))
        })
        .map_err(|e| e.to_string())?;

    let warmup = warmup_requests(cfg.warmup_fraction, n);
    let mut lat = Latencies::default();
    let replay = rec.open(Name::StackReplay, NONE);
    let mut lp = RequestLoop {
        rec: &mut rec,
        lat: &mut lat,
        parent: replay,
    };
    for (idx, req) in trace.requests.iter().enumerate() {
        let id = u32::try_from(idx).map_err(|_| "trace longer than 2^32 requests")?;
        lp.step(&mut stack, id, idx, req, idx >= warmup)?;
    }
    rec.close(replay);
    rec.time(Name::StackFinish, NONE, || stack.finish())
        .map_err(|e| e.to_string())?;
    let responses = rec.time(Name::StackResponses, NONE, || stack.responses(n));
    let rep = rec.time(Name::RunnerReport, NONE, || {
        build_report(&stack, spec.name, &trace, warmup, &responses)
    });
    let scheme = job.args.scheme.to_string();
    let rendered = rec.time(Name::CliRender, NONE, || {
        render_replay(&rep, n, &trace.name, &scheme)
    });

    let mut metrics = trace_metrics(std::slice::from_ref(&trace));
    metrics.extend(latency_metrics(lat));
    Ok(PassOutput {
        metrics,
        rendered,
        spans: rec.spans,
    })
}

/// One shard worker of the traced serve: builds its tenants' stacks,
/// replays their merged stream and reports each tenant.
fn serve_shard(
    shard: usize,
    tenants: Vec<(u16, &Trace)>,
    stride: u32,
    scheme: pod_core::Scheme,
    cfg: &SystemConfig,
    origin: Instant,
) -> Result<(Recorder, Latencies, Vec<TenantReport>), String> {
    let total: usize = tenants.iter().map(|(_, t)| t.len()).sum();
    let thread = u8::try_from(shard + 1).map_err(|_| "at most 254 shards are traced")?;
    let mut rec = Recorder::new(origin, thread, total * 5 + 64);
    let root = rec.open(Name::ServeShard, NONE);
    let spec = scheme.stack_spec();
    let mut stacks = Vec::with_capacity(tenants.len());
    for &(tenant, trace) in &tenants {
        let mut stack = rec
            .time(Name::StackBuild, root, || {
                StorageStack::with_observer(&spec, cfg, trace, chain(origin))
            })
            .map_err(|e| e.to_string())?;
        stack.set_tenant(tenant);
        stacks.push(stack);
    }
    let warmups: Vec<usize> = tenants
        .iter()
        .map(|(_, t)| warmup_requests(cfg.warmup_fraction, t.len()))
        .collect();

    let mut lat = Latencies::default();
    let replay = rec.open(Name::StackReplay, root);
    let refs: Vec<&Trace> = tenants.iter().map(|&(_, t)| t).collect();
    let mut lp = RequestLoop {
        rec: &mut rec,
        lat: &mut lat,
        parent: replay,
    };
    for item in MergedStream::from_refs(&refs) {
        let tenant = u32::from(tenants[item.tenant].0);
        let id = u32::try_from(item.index)
            .ok()
            .and_then(|i| tenant.checked_mul(stride)?.checked_add(i))
            .ok_or("request ids overflow u32")?;
        lp.step(
            &mut stacks[item.tenant],
            id,
            item.index,
            item.request,
            item.index >= warmups[item.tenant],
        )?;
    }
    rec.close(replay);

    let mut reports = Vec::with_capacity(stacks.len());
    for (((tenant, trace), mut stack), warmup) in tenants.iter().zip(stacks).zip(warmups) {
        rec.time(Name::StackFinish, root, || stack.finish())
            .map_err(|e| e.to_string())?;
        let responses = rec.time(Name::StackResponses, root, || stack.responses(trace.len()));
        let report = rec.time(Name::RunnerReport, root, || {
            build_report(&stack, spec.name, trace, warmup, &responses)
        });
        reports.push(TenantReport {
            tenant: *tenant,
            shard,
            report,
        });
    }
    rec.close(root);
    Ok((rec, lat, reports))
}

fn serve_spans(job: &Job, origin: Instant) -> Result<PassOutput, String> {
    let mut rec = Recorder::new(origin, 0, 64);
    let cfg = config(&mut rec, job)?;
    let tenants = rec.time(Name::TraceSynth, NONE, || job.tenants())?;
    let router = ShardRouter::new(&tenants, job.args.shards).map_err(|e| e.to_string())?;
    if job.args.jobs.is_some_and(|j| j < router.shards()) {
        return Err("the traced serve runs one thread per shard: use --jobs >= --shards".into());
    }
    let stride = tenants.iter().map(Trace::len).max().unwrap_or(0);
    let stride = u32::try_from(stride).map_err(|_| "tenant trace longer than 2^32")?;

    let shards_span = rec.open(Name::ServeShards, NONE);
    let outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..router.shards())
            .map(|shard| {
                let mine: Vec<(u16, &Trace)> = router
                    .tenants_of_shard(shard)
                    .map(|t| (t, &tenants[t as usize]))
                    .collect();
                let (scheme, cfg) = (job.args.scheme, &cfg);
                scope.spawn(move || serve_shard(shard, mine, stride, scheme, cfg, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced shard worker panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    rec.close(shards_span);

    let mut lat = Latencies::default();
    let mut tenant_reports = Vec::new();
    let mut thread_spans = Vec::new();
    for (r, l, reports) in outputs {
        thread_spans.push(r.spans);
        lat.absorb(l);
        tenant_reports.extend(reports);
    }
    tenant_reports.sort_by_key(|t| t.tenant);
    let agg = rec.time(Name::ServeAggregate, NONE, || {
        aggregate(tenant_reports.iter().map(|t| &t.report))
    });
    let rep = ServeReport {
        scheme: job.args.scheme.stack_spec().name.to_string(),
        shards: router.shards(),
        tenants: tenant_reports,
        aggregate: agg,
        // Wall-clock accounting, which the rendered report leaves out.
        shard_stats: Vec::new(),
    };
    let rendered = rec.time(Name::CliRender, NONE, || render_report(&rep));

    let mut spans = rec.spans;
    for ts in thread_spans {
        crate::spans::merge(&mut spans, ts, shards_span);
    }
    let mut metrics = trace_metrics(&tenants);
    metrics.extend(latency_metrics(lat));
    Ok(PassOutput {
        metrics,
        rendered,
        spans,
    })
}

fn trace_metrics(traces: &[Trace]) -> MetricMap {
    let requests: usize = traces.iter().map(Trace::len).sum();
    let writes: usize = traces
        .iter()
        .map(|t| t.requests.iter().filter(|r| r.op.is_write()).count())
        .sum();
    // Logical address span the replay lays out per trace, in MiB.
    let logical_blocks: u64 = traces
        .iter()
        .map(|t| ReplaySizing::from_trace(t).logical_blocks)
        .sum();
    MetricMap::from([
        ("trace.requests", requests as f64),
        ("trace.write_pct", pct(writes as f64, requests as f64)),
        (
            "trace.logical_mib",
            logical_blocks as f64 * 4096.0 / (1 << 20) as f64,
        ),
    ])
}

/// Nearest-rank percentile of sorted `values` (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // The epsilon keeps float error (99.9 / 100 * 1000 = 999.0000000000001)
    // from moving the rank up by one.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn latency_metrics(mut lat: Latencies) -> MetricMap {
    lat.write_ns.sort_unstable();
    lat.read_ns.sort_unstable();
    MetricMap::from([
        ("stack.write_p50_ns", percentile(&lat.write_ns, 50.0) as f64),
        ("stack.write_p99_ns", percentile(&lat.write_ns, 99.0) as f64),
        (
            "stack.write_p999_ns",
            percentile(&lat.write_ns, 99.9) as f64,
        ),
        ("stack.read_p50_ns", percentile(&lat.read_ns, 50.0) as f64),
        ("stack.read_p99_ns", percentile(&lat.read_ns, 99.0) as f64),
        ("stack.writes", lat.write_ns.len() as f64),
        ("stack.reads", lat.read_ns.len() as f64),
    ])
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part * 100.0 / whole
    }
}

/// The profile pass: the job through the program's own builders with
/// the host profiler on.
pub fn profile_pass(job: &Job, origin: Instant) -> Result<PassOutput, String> {
    let mut rec = Recorder::new(origin, 0, 8);
    let cfg = config(&mut rec, job)?;
    let slot = SnapSlot::default();
    let (reports, profile, rendered, serve) = if job.serve {
        let tenants = rec.time(Name::TraceSynth, NONE, || job.tenants())?;
        let factory_slot = slot.clone();
        let mut builder = ServeBuilder::new(job.args.scheme)
            .config(cfg)
            .tenants(&tenants)
            .shards(job.args.shards)
            .profile(true)
            .observer(move |tenant| {
                LastSnapshot {
                    tenant,
                    slot: factory_slot.clone(),
                }
                .into_chain()
            });
        if let Some(jobs) = job.args.jobs {
            builder = builder.jobs(jobs);
        }
        let started = rec.now();
        let rep = builder.run().map_err(|e| e.to_string())?;
        let run_s = (rec.now() - started) as f64 / 1e9;
        let rendered = render_report(&rep);
        let busy: Vec<f64> = rep
            .shard_stats
            .iter()
            .map(|s| s.busy_us as f64 / 1e6)
            .collect();
        let width = job.args.jobs.unwrap_or(1).min(rep.shard_stats.len()).max(1);
        let serve = MetricMap::from([
            ("serve.run_s", run_s),
            (
                "serve.shard_busy_max_s",
                busy.iter().copied().fold(0.0, f64::max),
            ),
            (
                "serve.shard_busy_min_s",
                busy.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            (
                "serve.parallel_eff",
                busy.iter().sum::<f64>() / (width as f64 * run_s),
            ),
        ]);
        let profile = rep.aggregate.profile.clone();
        let reports: Vec<ReplayReport> = rep.tenants.into_iter().map(|t| t.report).collect();
        (reports, profile, rendered, serve)
    } else {
        let trace = rec.time(Name::TraceSynth, NONE, || job.args.load_trace())?;
        let (rep, _) = job
            .args
            .scheme
            .builder()
            .config(cfg)
            .trace(&trace)
            .profile(true)
            .observer((
                LayerHistograms::new(),
                LastSnapshot {
                    tenant: 0,
                    slot: slot.clone(),
                },
            ))
            .run_observed()
            .map_err(|e| e.to_string())?;
        let scheme = job.args.scheme.to_string();
        let rendered = render_replay(&rep, trace.len(), &trace.name, &scheme);
        let serve = MetricMap::from([
            ("serve.run_s", 0.0),
            ("serve.shard_busy_max_s", 0.0),
            ("serve.shard_busy_min_s", 0.0),
            ("serve.parallel_eff", 0.0),
        ]);
        let profile = rep.profile.clone();
        (vec![rep], profile, rendered, serve)
    };
    let profile = profile.ok_or("profile(true) returned no host profile")?;
    let snaps: Vec<StateSnapshot> = slot
        .lock()
        .expect("no snapshot writer panicked")
        .values()
        .copied()
        .collect();

    let mut m = serve;
    for phase in ProfPhase::ALL {
        let name: &'static str = match phase {
            ProfPhase::CacheLookup => "prof.cache_lookup_s",
            ProfPhase::DedupClassify => "prof.dedup_classify_s",
            ProfPhase::PlanRead => "prof.plan_read_s",
            ProfPhase::DiskSubmit => "prof.disk_submit_s",
            ProfPhase::DiskRun => "prof.disk_run_s",
            ProfPhase::DiskCommit => "prof.disk_commit_s",
            ProfPhase::Background => "prof.background_s",
            ProfPhase::Snapshot => "prof.snapshot_s",
            ProfPhase::Observe => "prof.observe_s",
        };
        m.insert(name, profile.phase(phase).total_ns as f64 / 1e9);
    }
    let agg = aggregate(&reports);
    let (s, c) = (&agg.stack, &agg.counters);
    let sum = |f: fn(&StateSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let fractions: f64 = reports.iter().map(|r| r.final_index_fraction).sum();
    let disks = reports.iter().flat_map(|r| r.disk.iter());
    m.extend([
        ("dedup.cat1", s.cat1_writes as f64),
        ("dedup.cat2", s.cat2_writes as f64),
        ("dedup.cat3", s.cat3_writes as f64),
        ("dedup.unique", s.unique_writes as f64),
        ("dedup.deduped_blocks", c.deduped_blocks as f64),
        ("dedup.written_blocks", c.written_blocks as f64),
        ("dedup.disk_index_lookups", c.disk_index_lookups as f64),
        (
            "icache.read_hit_pct",
            pct(s.read_hits_measured as f64, s.reads_measured as f64),
        ),
        ("icache.repartitions", s.repartitions as f64),
        (
            "icache.final_index_pm",
            fractions * 1000.0 / reports.len().max(1) as f64,
        ),
        ("icache.ghost_read_hits", sum(|x| x.icache.ghost_read.hits)),
        (
            "icache.ghost_index_hits",
            sum(|x| x.icache.ghost_index.hits),
        ),
        ("icache.read_evictions", sum(|x| x.icache.read_evictions)),
        ("icache.index_evictions", sum(|x| x.dedup.index.evictions)),
        ("disk.ops", disks.clone().map(|d| d.ops).sum::<u64>() as f64),
        (
            "disk.max_queue_depth",
            disks.map(|d| d.max_queue_depth).max().unwrap_or(0) as f64,
        ),
    ]);
    Ok(PassOutput {
        metrics: m,
        rendered,
        spans: rec.spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(argv: &str) -> Job {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        Job::parse(&argv).expect("valid job")
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 99.9), 999);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn both_replay_passes_render_the_same_report() {
        let job = job("replay --scheme pod --profile mail --scale 0.005 --seed 3");
        let origin = Instant::now();
        let spans = spans_pass(&job, origin).expect("spans pass");
        let profile = profile_pass(&job, origin).expect("profile pass");
        assert_eq!(spans.rendered, profile.rendered);
        assert!(
            spans.rendered.starts_with("replaying "),
            "{}",
            spans.rendered
        );
        let requests = spans.metrics["trace.requests"] as usize;
        let per_request = |name: Name| spans.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(per_request(Name::ProcessRequest), requests);
        assert_eq!(per_request(Name::DiskRunUntil), requests);
        assert_eq!(
            per_request(Name::WriteClassify) + per_request(Name::ReadLookup),
            requests,
            "every request is split at its stack events"
        );
    }

    #[test]
    fn both_serve_passes_render_the_same_report() {
        let job = job(
            "serve --scheme pod --profile web-vm --tenants 3 --shards 2 --jobs 2 --scale 0.005 --seed 3",
        );
        let origin = Instant::now();
        let spans = spans_pass(&job, origin).expect("spans pass");
        let profile = profile_pass(&job, origin).expect("profile pass");
        assert_eq!(spans.rendered, profile.rendered);
        assert!(spans.rendered.contains("== serve: POD / 3 tenants =="));
        assert!(profile.metrics["serve.run_s"] > 0.0);
        let shards = spans.spans.iter().filter(|s| s.name == Name::ServeShard);
        assert_eq!(shards.count(), 2);
    }

    #[test]
    fn jobs_that_change_the_simulation_are_refused() {
        for argv in [
            "replay --verify",
            "replay --faults crash:10",
            "serve --tenants 2 --policy tier:64",
            "compare",
        ] {
            let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
            assert!(Job::parse(&argv).is_err(), "{argv:?}");
        }
    }
}
