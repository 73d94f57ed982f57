#!/usr/bin/env python3
"""perfbench: whole POD simulator jobs, timed at the process boundary.

    python3 perfbench/run.py --workload mail-pod --seed 42 --seconds 20 --trace 0

Run from the repository root. It builds `pod-cli` and the traced-pass
binary (`perfbench/trace`) with cargo, then:

* ``--trace 0``: one untimed `--verify` integrity-oracle run (replay
  workloads), then the workload's job in a fresh process, again and
  again until ``--seconds`` have passed. Every end-to-end metric named
  in BENCHMARK.json is the median over those jobs.
* ``--trace 1``: the untraced job and the traced spans pass in turn
  until ``--seconds`` have passed, then one profile pass; prints the
  per-layer metrics named in BENCHMARK.json. Spans go to
  ``perfbench/out/<workload>/spans.tsv``.

Every run's output is checked: a job fails on a non-zero exit, on
stdout that differs from the workload's other runs or from the digest
recorded for the seed in workloads.json, or on a failed oracle. Failed
jobs count against the attempted ones and stay out of the medians. The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import selectors
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reports  # noqa: E402
import stats  # noqa: E402

JOB_TIMEOUT_S = 150
MIN_JOBS = 2


class BenchError(Exception):
    """The benchmark cannot run (bad arguments, missing sources, failed build)."""


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"reading {path}: {e}") from e


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Build both binaries with cargo; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "pod-cli"],
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", os.path.join(HERE, "trace", "Cargo.toml"),
        ],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{' '.join(cmd)}: {e}") from e
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "pod-cli"), os.path.join(release, "perfbench-trace")


class Job:
    """One finished process: exit status, timings and output."""

    def __init__(self, argv, marker=None):
        self.argv = argv
        self.marker = marker  # (stream, prefix) whose first line ends set-up
        self.exit_code = None
        self.wall_s = None
        self.setup_s = None
        self.rss_mib = None
        self.stdout = ""
        self.stderr = ""
        self.error = None

    def run(self):
        start = time.monotonic()
        proc = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        bufs = {"stdout": b"", "stderr": b""}
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ, "stdout")
        sel.register(proc.stderr, selectors.EVENT_READ, "stderr")
        want = None if self.marker is None else (self.marker[0], self.marker[1].encode())
        try:
            while sel.get_map():
                left = JOB_TIMEOUT_S - (time.monotonic() - start)
                if left <= 0:
                    os.killpg(proc.pid, signal.SIGKILL)
                    self.error = f"timed out after {JOB_TIMEOUT_S} s"
                    break
                for key, _ in sel.select(timeout=left):
                    chunk = os.read(key.fileobj.fileno(), 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                        continue
                    bufs[key.data] += chunk
                    # Set-up ends when the job announces its replay: the
                    # first complete line with the marker prefix.
                    if self.setup_s is None and want and key.data == want[0]:
                        if any(l.startswith(want[1]) for l in bufs[key.data].split(b"\n")[:-1]):
                            self.setup_s = time.monotonic() - start
        finally:
            sel.close()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.exit_code = proc.returncode
        self.rss_mib = usage.ru_maxrss / 1024.0  # Linux reports KiB
        self.stdout = bufs["stdout"].decode(errors="replace")
        self.stderr = bufs["stderr"].decode(errors="replace")
        if self.error is None and self.exit_code != 0:
            self.error = f"exit code {self.exit_code}: {self.stderr.strip()[-300:]}"
        if self.error is None and self.marker is not None and self.setup_s is None:
            self.error = f"no `{self.marker[1]}` line on {self.marker[0]}"
        return self

    @property
    def ok(self):
        return self.error is None


class Workload:
    def __init__(self, name, spec, pod_cli, seed):
        self.name = name
        self.seed = seed
        self.serve = spec["job"][0] == "serve"
        self.job_argv = spec["job"] + ["--seed", str(seed)]
        self.argv = [pod_cli] + self.job_argv
        self.marker = ("stderr", "serving ") if self.serve else ("stdout", "replaying ")
        self.expected_digest = spec.get("digests", {}).get(str(seed))
        self.reference = None  # canonical output every run must reproduce
        self.attempted = 0
        self.failures = []

    def canonical(self, job):
        return job.stdout if self.serve else reports.canonical_replay(job.stdout)

    def check(self, job, what):
        """Count `job` as attempted; record and return its failure, if any."""
        self.attempted += 1
        if job.ok:
            job.error = self._output_error(job)
        if job.error:
            self.failures.append(f"{what}: {job.error}")
        return job.ok

    def _output_error(self, job):
        text = self.canonical(job)
        if self.expected_digest and reports.digest(text) != self.expected_digest:
            return f"output digest {reports.digest(text)[:16]} != recorded {self.expected_digest[:16]}"
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            return "output differs from this workload's earlier run"
        try:
            self.sim(job)
        except reports.ReportError as e:
            return f"unreadable report: {e}"
        return None

    def verify(self):
        """The untimed integrity-oracle run of a replay workload."""
        job = Job(self.argv + ["--verify"], self.marker).run()
        if job.ok and reports.integrity_verdict(job.stdout) != "PASS":
            job.error = f"integrity oracle: {reports.integrity_verdict(job.stdout)}"
        self.check(job, "verify run")

    def check_pass(self, job, name, out_dir):
        """A traced pass must exit 0 and render exactly what the untraced job
        printed, so the bench-side tracing cannot have changed the simulation."""
        self.attempted += 1
        if job.ok:
            path = os.path.join(out_dir, f"{name}.render.txt")
            try:
                with open(path, encoding="utf-8") as f:
                    rendered = f.read()
            except OSError as e:
                job.error = f"reading {path}: {e}"
            else:
                if self.reference is None:
                    job.error = "no untraced output to compare with"
                elif rendered != self.reference:
                    job.error = "traced pass rendered other simulated results than the untraced job"
        if job.error:
            self.failures.append(f"{name} pass: {job.error}")
        return job.ok

    def sim(self, job):
        """Requests replayed and the simulated results of one job."""
        if self.serve:
            rep = reports.parse_serve(job.stdout, job.stderr)
            row = rep["all"]
            requests = rep["requests"]
        else:
            row = reports.parse_replay(job.stdout)
            requests = row["requests"]
        return requests, {
            "sim_mean_ms": row["mean_ms"],
            "sim_p99_ms": row["p99_ms"],
            "sim_disk_writes_pct": round(100.0 - row["removed_pct"], 1),
            "sim_capacity_mib": row["capacity_mib"],
        }

    def end_to_end(self, job):
        requests, sim = self.sim(job)
        replay_s = job.wall_s - job.setup_s
        return dict(
            wall_s=job.wall_s,
            setup_s=job.setup_s,
            replay_rps=requests / replay_s,
            peak_rss_mib=job.rss_mib,
            **sim,
        )


def timed_runs(wl, seconds):
    """The workload's job, untraced, until `seconds` have passed."""
    if not wl.serve:
        wl.verify()
    samples = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(samples) + len(wl.failures) < MIN_JOBS:
        job = Job(wl.argv, wl.marker).run()
        if wl.check(job, f"job {wl.attempted + 1}"):
            samples.append(wl.end_to_end(job))
    return samples


def traced_runs(wl, trace_bin, seconds, out_dir):
    """Untraced job and traced spans pass in turn, then one profile pass."""
    if not wl.serve:
        wl.verify()
    layer_runs = []
    start = time.monotonic()
    while not layer_runs or time.monotonic() - start < seconds:
        plain = Job(wl.argv, wl.marker).run()
        plain_ok = wl.check(plain, "untraced job")
        spans = Job([trace_bin, "spans", out_dir] + wl.job_argv).run()
        if wl.check_pass(spans, "spans", out_dir) and plain_ok:
            run = json.loads(spans.stdout.strip().splitlines()[-1])
            m = run["metrics"]
            m["trace_overhead_pct"] = (spans.wall_s / plain.wall_s - 1.0) * 100.0
            m["unattributed_pct"] = (1.0 - run["covered_ns"] / 1e9 / spans.wall_s) * 100.0
            layer_runs.append(m)
        elif not layer_runs and wl.failures:
            break
    if not layer_runs:
        return []
    profile = Job([trace_bin, "profile", out_dir] + wl.job_argv).run()
    if not wl.check_pass(profile, "profile", out_dir):
        return []
    prof = json.loads(profile.stdout.strip().splitlines()[-1])["metrics"]
    for m in layer_runs:
        m.update(prof)
    return layer_runs


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(title, names, units, samples):
    print(title)
    print(f"  {'metric':<24} {'unit':<8} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'cv%':>7}  tail")
    for name in names:
        values = [s[name] for s in samples]
        s = stats.summarize(values)
        tail = "none (needs n>=20)" if s["tail"] is None else f"p{s['tail']['p']:g}={fmt(s['tail']['value'])}"
        print(f"  {name:<24} {units[name]:<8} {s['n']:>3} {fmt(s['median']):>12} "
              f"{fmt(s['q1']):>12} {fmt(s['q3']):>12} {s['cv'] * 100:>7.2f}  {tail}")


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")

    pod_cli, trace_bin = build()
    wl = Workload(args.workload, workloads[args.workload], pod_cli, args.seed)
    out_dir = os.path.join(HERE, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[key]]
    units = {m["name"]: m["unit"] for m in bench[key]}

    if args.trace:
        samples = traced_runs(wl, trace_bin, args.seconds, out_dir)
    else:
        samples = timed_runs(wl, args.seconds)

    failed = len(wl.failures)
    print(f"workload {wl.name}  seed {wl.seed}  trace {args.trace}  "
          f"{' '.join(wl.job_argv)}")
    for f in wl.failures:
        print(f"  FAILED {f}")
    print(f"  runs: {wl.attempted} attempted, {failed} failed  "
          f"failed_pct {100.0 * failed / wl.attempted:.1f}")
    metrics = {}
    if samples:
        missing = [n for n in names if n not in samples[0]]
        if missing:
            raise BenchError(f"no value for metric(s) {', '.join(missing)}")
        print_table(f"  {key} metrics over {len(samples)} run(s):", names, units, samples)
        for name in names:
            metrics[name] = {"value": stats.quartiles([s[name] for s in samples])[1],
                             "unit": units[name]}
        with open(os.path.join(out_dir, f"samples-trace{args.trace}.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"seed": wl.seed, "failures": wl.failures, "samples": samples}, f, indent=1)
    result = {
        "correct": failed == 0 and bool(samples),
        "attempted": wl.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if samples else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
