"""Parsers for the text reports `pod-cli replay` and `pod-cli serve` print.

Each job's deterministic output is its stdout, less the `done in` line
that `replay` prints (serve writes all wall-clock lines to stderr). The
benchmark checks that output byte for byte across runs and against a
recorded digest, and reads the simulated metrics from it.
"""

import hashlib
import re

_NUM = r"(-?\d+(?:\.\d+)?)"

_REPLAYING = re.compile(r"^replaying (\d+) requests of `([^`]*)` through (.+) \.\.\.$", re.M)
_OVERALL = re.compile(r"^  overall\s+" + r"\s+".join([_NUM] * 5) + r"\s*$", re.M)
_REMOVED = re.compile(
    r"^writes removed " + _NUM + r"%\s+deduped blocks (\d+)\s+capacity used " + _NUM + r" MiB$",
    re.M,
)
_VERDICT = re.compile(r"^integrity oracle: (PASS|FAIL)$", re.M)

_SERVING = re.compile(r"^serving (\d+) tenants \((\d+) requests\) over (\d+) shards through (.+) \.\.\.$", re.M)
_SERVE_HEADER = re.compile(r"^== serve: (.+) / (\d+) tenants ==$", re.M)
_SERVE_ROW = re.compile(
    r"^\s*(\d+|all)\s+(\S+)\s+(\d+)\s+" + r"\s+".join([_NUM] * 6) + r"\s*$", re.M
)
_SERVE_FIELDS = ("removed_pct", "saved_mib", "mean_ms", "p95_ms", "p99_ms", "capacity_mib")


class ReportError(ValueError):
    """The text is not the report the parser expects."""


def _match(pattern, text, what):
    m = pattern.search(text)
    if m is None:
        raise ReportError(f"no {what} line")
    return m


def canonical_replay(stdout):
    """Replay stdout without its `done in` line or a `--verify` verdict
    block: the part that is a pure function of scheme, config and trace."""
    cut = stdout.find("\nintegrity oracle:")
    if cut >= 0:
        stdout = stdout[:cut]
    return "".join(
        line for line in stdout.splitlines(keepends=True) if not line.startswith("done in ")
    )


def integrity_verdict(stdout):
    """"PASS" or "FAIL" from a `replay --verify` run; None if absent."""
    m = _VERDICT.search(stdout)
    return m.group(1) if m else None


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def parse_replay(stdout):
    """Request count and simulated results of a `pod-cli replay` report."""
    head = _match(_REPLAYING, stdout, "`replaying ...`")
    overall = _match(_OVERALL, stdout, "`overall` response-time")
    removed = _match(_REMOVED, stdout, "`writes removed`")
    mean, p50, p95, p99, mx = (float(v) for v in overall.groups())
    return {
        "requests": int(head.group(1)),
        "trace": head.group(2),
        "scheme": head.group(3),
        "mean_ms": mean,
        "p50_ms": p50,
        "p95_ms": p95,
        "p99_ms": p99,
        "max_ms": mx,
        "removed_pct": float(removed.group(1)),
        "deduped_blocks": int(removed.group(2)),
        "capacity_mib": float(removed.group(3)),
    }


def parse_serve(stdout, stderr=""):
    """Per-tenant rows and the aggregate row of a `pod-cli serve` report.
    `requests` (all requests served, warm-up included) comes from the
    `serving ...` line on stderr when given."""
    header = _match(_SERVE_HEADER, stdout, "`== serve ==` header")
    rows = []
    total = None
    for m in _SERVE_ROW.finditer(stdout):
        row = {"tenant": m.group(1), "trace": m.group(2), "measured": int(m.group(3))}
        row.update(zip(_SERVE_FIELDS, (float(v) for v in m.groups()[3:])))
        if row["tenant"] == "all":
            total = row
        else:
            rows.append(row)
    if total is None:
        raise ReportError("no `all` aggregate row")
    tenants = int(header.group(2))
    if len(rows) != tenants:
        raise ReportError(f"{len(rows)} tenant rows for {tenants} tenants")
    out = {"scheme": header.group(1), "tenants": rows, "all": total}
    if stderr:
        serving = _match(_SERVING, stderr, "`serving ...`")
        out["requests"] = int(serving.group(2))
    return out
