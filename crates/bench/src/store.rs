//! Persistent experiment store: an append-only JSONL history of
//! perfgate runs, plus the trend analysis that rides on it.
//!
//! Every perfgate invocation appends one [`StoreRecord`] per
//! (trace, scheme) entry to `results/history.jsonl`. A record is keyed
//! by `(commit, date, trace, scheme, config_hash)` and carries the
//! per-rep wall-clock samples, so any later analysis can recompute
//! min / median / confidence intervals instead of trusting a single
//! best-of-N number.
//!
//! The format is one JSON object per line, written and parsed with the
//! same hand-rolled [`pod_core::obs::json`] machinery the recorder wire
//! format uses — no external serialization dependency, and the two
//! formats cannot drift apart in escaping rules.
//!
//! The trend gate ([`analyze_trends`]) exists for the failure mode a
//! per-run tolerance cannot see: five consecutive runs each 2-3%
//! slower than the last all pass a 10% gate individually, yet the
//! median has silently drifted 12%. A least-squares fit over the last
//! few runs of a key catches exactly that.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use pod_core::obs::json::{self, Json};

/// One perfgate run of one (trace, scheme) pair, as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Short git commit hash of the tree that produced the run
    /// (`"unknown"` outside a git checkout).
    pub commit: String,
    /// ISO date (`YYYY-MM-DD`) of the run.
    pub date: String,
    /// Trace name (`mail`, `homes`, `web-vm`, ...).
    pub trace: String,
    /// Scheme name (`POD`, `Full-Dedupe`, ...).
    pub scheme: String,
    /// Hash of the benchmark configuration (scale, reps) so runs with
    /// different workloads never land in the same trend series.
    pub config_hash: String,
    /// Requests replayed per rep.
    pub requests: u64,
    /// Per-rep wall-clock seconds, in rep order — the raw samples
    /// every derived statistic comes from.
    pub samples: Vec<f64>,
    /// Requests per second of the best (fastest) rep — the gate metric.
    pub rps: f64,
    /// Host wall-clock layer shares `[cache, dedup, disk, other]` from
    /// the profiler, when the run was profiled.
    pub host_shares: Option<[f64; 4]>,
}

impl StoreRecord {
    /// Fastest rep, seconds.
    pub fn wall_min_s(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Median rep, seconds.
    pub fn wall_median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// 95% confidence half-width of the mean rep time, seconds
    /// (0 for fewer than two samples).
    pub fn wall_ci95_s(&self) -> f64 {
        ci95_half_width(&self.samples)
    }

    /// The trend-series key: runs of the same trace, scheme and bench
    /// configuration form one series over time.
    pub fn series_key(&self) -> (String, String, String) {
        (
            self.trace.clone(),
            self.scheme.clone(),
            self.config_hash.clone(),
        )
    }

    /// Serialize to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"commit\":");
        json::push_str_escaped(&mut out, &self.commit);
        out.push_str(",\"date\":");
        json::push_str_escaped(&mut out, &self.date);
        out.push_str(",\"trace\":");
        json::push_str_escaped(&mut out, &self.trace);
        out.push_str(",\"scheme\":");
        json::push_str_escaped(&mut out, &self.scheme);
        out.push_str(",\"config_hash\":");
        json::push_str_escaped(&mut out, &self.config_hash);
        out.push_str(&format!(",\"requests\":{}", self.requests));
        out.push_str(",\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{s}"));
        }
        out.push(']');
        // Derived statistics ride along for greppability; the parser
        // recomputes them from the samples and ignores these fields.
        out.push_str(&format!(
            ",\"wall_min_s\":{},\"wall_median_s\":{},\"wall_ci95_s\":{}",
            self.wall_min_s(),
            self.wall_median_s(),
            self.wall_ci95_s()
        ));
        out.push_str(&format!(",\"rps\":{}", self.rps));
        if let Some([cache, dedup, disk, other]) = self.host_shares {
            out.push_str(&format!(
                ",\"host_cache_share\":{cache},\"host_dedup_share\":{dedup},\
                 \"host_disk_share\":{disk},\"host_other_share\":{other}"
            ));
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Self, String> {
        Self::from_json_value(&json::parse(line)?)
    }

    /// Build from an already-parsed JSON object.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let s = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("store record: missing string {key:?}"))
        };
        let samples = v
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("store record: missing samples array")?
            .iter()
            .map(|x| x.as_f64().ok_or("store record: non-number sample"))
            .collect::<Result<Vec<f64>, _>>()?;
        if samples.is_empty() {
            return Err("store record: empty samples array".into());
        }
        let host_shares = match (
            v.get("host_cache_share").and_then(Json::as_f64),
            v.get("host_dedup_share").and_then(Json::as_f64),
            v.get("host_disk_share").and_then(Json::as_f64),
            v.get("host_other_share").and_then(Json::as_f64),
        ) {
            (Some(c), Some(d), Some(k), Some(o)) => Some([c, d, k, o]),
            _ => None,
        };
        Ok(Self {
            commit: s("commit")?,
            date: s("date")?,
            trace: s("trace")?,
            scheme: s("scheme")?,
            config_hash: s("config_hash")?,
            requests: v
                .get("requests")
                .and_then(Json::as_u64)
                .ok_or("store record: missing requests")?,
            samples,
            rps: v
                .get("rps")
                .and_then(Json::as_f64)
                .ok_or("store record: missing rps")?,
            host_shares,
        })
    }
}

/// The append-only JSONL store itself: a path and the two operations
/// the gate needs (append a run, load the full history).
#[derive(Debug, Clone)]
pub struct ExperimentStore {
    path: PathBuf,
}

impl ExperimentStore {
    /// A store at `path` (conventionally `results/history.jsonl` under
    /// the perfgate output directory). Nothing is touched until the
    /// first append.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The store's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (creating the file and its parent directory on
    /// first use).
    pub fn append(&self, rec: &StoreRecord) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        writeln!(f, "{}", rec.to_jsonl())
    }

    /// Load every record, in file (= chronological append) order.
    /// A missing file is an empty history, not an error; a malformed
    /// line is an error (the store is machine-written — corruption
    /// should fail loudly, not silently shrink the history).
    pub fn load(&self) -> Result<Vec<StoreRecord>, String> {
        let text = match fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("{}: {e}", self.path.display())),
        };
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .enumerate()
            .map(|(i, line)| {
                StoreRecord::from_jsonl(line)
                    .map_err(|e| format!("{}:{}: {e}", self.path.display(), i + 1))
            })
            .collect()
    }
}

/// FNV-1a hash of the benchmark configuration, hex-encoded. Scale is
/// formatted, not bit-cast, so `0.1` hashes the same on every platform.
pub fn config_hash(scale: f64, reps: usize) -> String {
    let key = format!("scale={scale};reps={reps}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Short commit hash of the current checkout: `git rev-parse --short
/// HEAD`, falling back to the `GITHUB_SHA` environment variable (CI
/// without a full checkout) and then `"unknown"`.
pub fn commit_hash() -> String {
    if let Ok(out) = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !s.is_empty() {
                return s;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if sha.len() >= 7 {
            return sha[..7].to_string();
        }
        if !sha.is_empty() {
            return sha;
        }
    }
    "unknown".into()
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock (civil-date
/// conversion done by hand; no date-time dependency).
pub fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil-from-days algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Median of `xs` (mean of the middle two for even lengths; 0 for
/// empty input).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 95% confidence half-width of the mean of `xs` using Student's t
/// (two-sided, `n - 1` degrees of freedom). 0 for fewer than two
/// samples. The t-table covers the tiny rep counts perfgate uses;
/// beyond it the normal approximation is close enough.
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let t = match n - 1 {
        1 => 12.706,
        2 => 4.303,
        3 => 3.182,
        4 => 2.776,
        5 => 2.571,
        6 => 2.447,
        7 => 2.365,
        8 => 2.306,
        9 => 2.262,
        _ => 1.960,
    };
    t * (var / n as f64).sqrt()
}

/// Fitted relative drift of `values` across its span, in percent:
/// a least-squares line `v = a + b·i` is fit over the points and the
/// drift is `(fit(last) − fit(first)) / fit(first) × 100`. Positive
/// means the metric rose. Returns 0 for fewer than two points or a
/// degenerate (non-positive) starting fit.
pub fn trend_drift_pct(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = values.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &v) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (v - mean_y);
    }
    if sxx == 0.0 {
        return 0.0;
    }
    let b = sxy / sxx;
    let a = mean_y - b * mean_x;
    let first = a;
    let last = a + b * (nf - 1.0);
    if first <= 0.0 {
        return 0.0;
    }
    (last - first) / first * 100.0
}

/// Trend verdict for one (trace, scheme, config) series.
#[derive(Debug, Clone)]
pub struct TrendVerdict {
    /// Trace name.
    pub trace: String,
    /// Scheme name.
    pub scheme: String,
    /// Bench-config hash the series is keyed on.
    pub config_hash: String,
    /// Runs in the analyzed window.
    pub runs: usize,
    /// Fitted drift of the *median wall time* across the window, in
    /// percent (positive = getting slower).
    pub drift_pct: f64,
    /// True when the drift exceeds the tolerance — a sustained
    /// regression even if every adjacent step passed the per-run gate.
    pub regressed: bool,
}

/// Analyze the last `window` runs of every series in `records` (file
/// order = chronological), flagging a series whose median wall time
/// drifted up by more than `tolerance_pct` across the window. Series
/// with fewer than two runs are reported with zero drift so callers
/// can show coverage.
pub fn analyze_trends(
    records: &[StoreRecord],
    window: usize,
    tolerance_pct: f64,
) -> Vec<TrendVerdict> {
    let mut keys: Vec<(String, String, String)> = Vec::new();
    for r in records {
        let k = r.series_key();
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.iter()
        .map(|key| {
            let medians: Vec<f64> = records
                .iter()
                .filter(|r| &r.series_key() == key)
                .map(StoreRecord::wall_median_s)
                .collect();
            let start = medians.len().saturating_sub(window.max(2));
            let tail = &medians[start..];
            let drift = trend_drift_pct(tail);
            TrendVerdict {
                trace: key.0.clone(),
                scheme: key.1.clone(),
                config_hash: key.2.clone(),
                runs: tail.len(),
                drift_pct: drift,
                regressed: tail.len() >= 2 && drift > tolerance_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(date: &str, wall: f64) -> StoreRecord {
        StoreRecord {
            commit: "abc1234".into(),
            date: date.into(),
            trace: "mail".into(),
            scheme: "POD".into(),
            config_hash: config_hash(0.1, 3),
            requests: 10_000,
            samples: vec![wall * 1.02, wall, wall * 1.05],
            rps: 10_000.0 / wall,
            host_shares: None,
        }
    }

    #[test]
    fn jsonl_round_trips_with_and_without_host_shares() {
        let mut rec = record("2026-08-07", 1.25);
        let line = rec.to_jsonl();
        assert_eq!(StoreRecord::from_jsonl(&line).unwrap(), rec);
        rec.host_shares = Some([0.25, 0.5, 0.125, 0.125]);
        let line = rec.to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'), "one line per record");
        assert_eq!(StoreRecord::from_jsonl(&line).unwrap(), rec);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"commit":"a","date":"d","trace":"t","scheme":"s","config_hash":"h","requests":1,"samples":[],"rps":1}"#,
            r#"{"commit":"a","date":"d","trace":"t","scheme":"s","config_hash":"h","samples":[1.0],"rps":1}"#,
        ] {
            assert!(StoreRecord::from_jsonl(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn store_appends_and_loads_in_order() {
        let dir = std::env::temp_dir().join(format!("pod-store-test-{}", std::process::id()));
        let store = ExperimentStore::new(dir.join("results/history.jsonl"));
        let _ = fs::remove_file(store.path());
        assert!(store.load().unwrap().is_empty(), "missing file = empty");
        for (i, wall) in [1.0, 1.1, 0.9].iter().enumerate() {
            store
                .append(&record(&format!("2026-08-0{}", i + 1), *wall))
                .unwrap();
        }
        let loaded = store.load().unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[0].date, "2026-08-01");
        assert_eq!(loaded[2].date, "2026-08-03");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn statistics_are_sane() {
        let r = record("2026-08-07", 1.0);
        assert_eq!(r.wall_min_s(), 1.0);
        assert!((r.wall_median_s() - 1.02).abs() < 1e-12);
        assert!(r.wall_ci95_s() > 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ci95_half_width(&[1.0]), 0.0);
        // Symmetric samples: CI covers the spread.
        let ci = ci95_half_width(&[0.9, 1.0, 1.1]);
        assert!(ci > 0.0 && ci < 1.0, "{ci}");
    }

    #[test]
    fn config_hash_separates_configurations() {
        assert_eq!(config_hash(0.1, 3), config_hash(0.1, 3));
        assert_ne!(config_hash(0.1, 3), config_hash(0.1, 5));
        assert_ne!(config_hash(0.1, 3), config_hash(0.2, 3));
    }

    #[test]
    fn sustained_slowdown_is_flagged_even_when_each_step_passes() {
        // Five runs, each ~2.9% slower than the last: every adjacent
        // step is far inside a 10% per-run tolerance, but the series
        // ends 12% above where it started.
        let walls = [1.00, 1.029, 1.058, 1.089, 1.12];
        let records: Vec<StoreRecord> = walls
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let mut r = record(&format!("2026-08-0{}", i + 1), w);
                r.samples = vec![w, w, w]; // median = w exactly
                r
            })
            .collect();
        for pair in walls.windows(2) {
            assert!(
                (pair[1] - pair[0]) / pair[0] < 0.10,
                "adjacent step under per-run tolerance"
            );
        }
        let verdicts = analyze_trends(&records, 5, 10.0);
        assert_eq!(verdicts.len(), 1);
        let v = &verdicts[0];
        assert_eq!(v.runs, 5);
        assert!(v.drift_pct > 10.0, "fitted drift {:.1}% > 10%", v.drift_pct);
        assert!(v.regressed);
    }

    #[test]
    fn flat_and_improving_series_pass_the_trend_gate() {
        let flat: Vec<StoreRecord> = (0..5).map(|i| record(&format!("d{i}"), 1.0)).collect();
        assert!(!analyze_trends(&flat, 5, 10.0)[0].regressed);
        let faster: Vec<StoreRecord> = (0..5)
            .map(|i| record(&format!("d{i}"), 1.0 - 0.05 * i as f64))
            .collect();
        let v = &analyze_trends(&faster, 5, 10.0)[0];
        assert!(v.drift_pct < 0.0, "speedups drift negative");
        assert!(!v.regressed);
    }

    #[test]
    fn trend_window_only_sees_the_tail() {
        // Old slow history followed by five flat fast runs: the
        // window must ignore the ancient runs.
        let mut records: Vec<StoreRecord> =
            (0..5).map(|i| record(&format!("old{i}"), 5.0)).collect();
        records.extend((0..5).map(|i| record(&format!("new{i}"), 1.0)));
        let v = &analyze_trends(&records, 5, 10.0)[0];
        assert_eq!(v.runs, 5);
        assert!(!v.regressed, "drift {:.1}%", v.drift_pct);
    }

    #[test]
    fn trend_math_is_exact_on_a_line() {
        // A perfect line fits itself: drift = (last-first)/first.
        let drift = trend_drift_pct(&[1.0, 1.1, 1.2, 1.3, 1.4]);
        assert!((drift - 40.0).abs() < 1e-9, "{drift}");
        assert_eq!(trend_drift_pct(&[1.0]), 0.0);
        assert_eq!(trend_drift_pct(&[1.0, 1.0]), 0.0);
    }

    #[test]
    fn commit_and_date_helpers_never_panic() {
        let c = commit_hash();
        assert!(!c.is_empty());
        let d = today();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
        assert!(d.starts_with("20"), "{d}");
    }
}
