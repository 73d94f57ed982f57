//! `perfbench-trace` — the traced run of one perfbench workload.
//!
//! ```text
//! perfbench-trace spans   <out-dir> replay|serve <pod-cli flags...>
//! perfbench-trace profile <out-dir> replay|serve <pod-cli flags...>
//! ```
//!
//! Runs the same job as `pod-cli <subcommand> <flags>` (see
//! `passes.rs` for what each pass records), writes the text the job
//! renders to `<out-dir>/<pass>.render.txt`, and prints one JSON line of
//! per-layer metrics. The spans pass also writes its spans to
//! `<out-dir>/spans.tsv` and per-name self times to
//! `<out-dir>/selftime.tsv`.

mod passes;
mod report;
mod spans;

use spans::{root_coverage, self_times, totals_by_name, write_tsv, Name};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Request spans written to `spans.tsv`: one request in this many.
const SAMPLE_EVERY: u32 = 64;

fn main() {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv, origin) {
        eprintln!("perfbench-trace: {e}");
        std::process::exit(2);
    }
}

fn run(argv: &[String], origin: Instant) -> Result<(), String> {
    let [pass, out_dir, job_argv @ ..] = argv else {
        return Err(
            "usage: perfbench-trace spans|profile <out-dir> replay|serve <flags...>".into(),
        );
    };
    let job = passes::Job::parse(job_argv)?;
    let out_dir = Path::new(out_dir);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let out = match pass.as_str() {
        "spans" => passes::spans_pass(&job, origin)?,
        "profile" => passes::profile_pass(&job, origin)?,
        other => return Err(format!("unknown pass '{other}' (spans|profile)")),
    };
    let mut metrics = out.metrics;

    // Everything from here on is the benchmark's own bookkeeping; its
    // time is reported as `post_ns` so it is not left unattributed.
    let post_start = origin.elapsed().as_nanos() as u64;
    let render_path = out_dir.join(format!("{pass}.render.txt"));
    std::fs::write(&render_path, &out.rendered)
        .map_err(|e| format!("writing {}: {e}", render_path.display()))?;
    let mut covered_ns = root_coverage(&out.spans);
    if pass == "spans" {
        let selfs = self_times(&out.spans);
        let totals = totals_by_name(&out.spans, &selfs);
        let secs = |name: Name| totals.get(&name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        for (metric, name) in [
            ("trace.synth_s", Name::TraceSynth),
            ("stack.build_s", Name::StackBuild),
            ("stack.busy_s", Name::ProcessRequest),
            ("stack.finish_s", Name::StackFinish),
            ("stack.write_classify_s", Name::WriteClassify),
            ("stack.write_submit_s", Name::WriteSubmit),
            ("stack.read_lookup_s", Name::ReadLookup),
            ("stack.read_miss_s", Name::ReadMiss),
            ("stack.after_request_s", Name::AfterRequest),
            ("disk.run_until_s", Name::DiskRunUntil),
            ("runner.report_s", Name::RunnerReport),
            ("cli.render_s", Name::CliRender),
        ] {
            metrics.insert(metric, secs(name));
        }
        write_file(&out_dir.join("spans.tsv"), |w| {
            write_tsv(w, &out.spans, &selfs, SAMPLE_EVERY)
        })?;
        write_file(&out_dir.join("selftime.tsv"), |w| {
            writeln!(w, "name\tcount\ttotal_ns\tself_ns")?;
            for (name, t) in &totals {
                writeln!(
                    w,
                    "{}\t{}\t{}\t{}",
                    name.as_str(),
                    t.count,
                    t.total_ns,
                    t.self_ns
                )?;
            }
            Ok(())
        })?;
    }
    let post_ns = origin.elapsed().as_nanos() as u64 - post_start;
    covered_ns += post_ns;

    if let Some((k, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {k} is not a finite number: {v}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"pass\": \"{pass}\", \"covered_ns\": {covered_ns}, \"post_ns\": {post_ns}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn write_file(
    path: &Path,
    f: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut w = BufWriter::new(File::create(path).map_err(err)?);
    f(&mut w).map_err(err)?;
    w.flush().map_err(err)
}
