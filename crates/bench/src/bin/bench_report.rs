//! Measurement-mode benchmark driver: runs the criterion suites with a
//! bounded time budget, collects their machine-readable results, and
//! maintains the `BENCH_<suite>.json` perf-trajectory files at the repo
//! root.
//!
//! ```text
//! cargo run --release -p paradrive-bench --bin bench_report            # refresh baselines
//! cargo run --release -p paradrive-bench --bin bench_report -- --check # regression gate
//! cargo run --release -p paradrive-bench --bin bench_report -- kernels # one suite
//! ```
//!
//! Each tracked suite is run via `cargo bench -p paradrive-bench --bench
//! <suite>` with the vendored criterion shim's `CRITERION_*` environment
//! bounds, so a full sweep stays CI-sized (the shim's env overrides win
//! over any per-suite builder configuration). Results are normalized by a
//! fixed in-process calibration workload (`host_calib_ns`), making the
//! committed numbers comparable across hosts of different speeds:
//! `--check` compares *calibration-relative* minima (see [`compare`] for
//! why minima, not medians) and fails loudly when any benchmark regresses
//! by more than [`TOLERANCE`].
//!
//! The JSON files are line-oriented on purpose — one entry per line — so
//! diffs stay reviewable; they are read back (like the shim's JSONL
//! results) with the workspace's own `paradrive_obs::json` parser.
//!
//! Alongside the timing entries, each refreshed file carries a
//! `"counters"` block: a workload-characterization snapshot (cache hit
//! rate, kernel-dispatch mix, seed attempts) taken from one in-process
//! smoke batch run with the observability layer enabled. Counter lines
//! use distinct field names, so older readers of the entry lines skip
//! them untouched.

use paradrive_obs::json::{self, escape, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The tracked suites, in run order.
const SUITES: [&str; 7] = [
    "kernels",
    "engine",
    "verify",
    "mps",
    "topologies",
    "sweep",
    "fleet",
];

/// Allowed relative regression of a calibration-normalized minimum before
/// `--check` fails (0.2 = 20%; see [`compare`] for why minima).
const TOLERANCE: f64 = 0.2;

/// Default `CRITERION_*` bounds applied when the caller has not set their
/// own: enough samples for a stable median, small enough that the whole
/// sweep finishes in CI minutes.
const DEFAULT_BOUNDS: [(&str, &str); 3] = [
    ("CRITERION_SAMPLE_SIZE", "12"),
    ("CRITERION_MEASUREMENT_MS", "1500"),
    ("CRITERION_WARMUP_MS", "100"),
];

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    id: String,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
}

struct Report {
    suite: String,
    host_calib_ns: f64,
    entries: Vec<Entry>,
}

fn main() -> ExitCode {
    let mut check = false;
    let mut suites: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!("usage: bench_report [--check] [suite ...]");
                eprintln!("suites: {}", SUITES.join(", "));
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => suites.push(other.to_string()),
            other => {
                eprintln!("bench_report: unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if suites.is_empty() {
        suites = SUITES.iter().map(|s| s.to_string()).collect();
    }
    for s in &suites {
        if !SUITES.contains(&s.as_str()) {
            eprintln!(
                "bench_report: unknown suite `{s}` (tracked: {})",
                SUITES.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }

    let root = repo_root();
    println!("bench_report: calibrating host...");
    let calib = host_calib_ns();
    println!("bench_report: host_calib_ns = {calib:.0}");
    // Refresh mode rewrites the files, so characterize the workload once
    // up front; --check never writes and skips the probe.
    let counters = if check {
        Vec::new()
    } else {
        println!("bench_report: collecting counter snapshot...");
        counter_snapshot()
    };

    let mut failures: Vec<String> = Vec::new();
    for suite in &suites {
        let report = match run_suite(&root, suite, calib) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_report: suite `{suite}` failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_speedups(&report);
        let path = root.join(format!("BENCH_{suite}.json"));
        if check {
            match load_report(&path) {
                Ok(baseline) => {
                    let mut fails = compare(&baseline, &report);
                    if !fails.is_empty() {
                        // One re-measurement before declaring failure: a
                        // regression caused by transient host contention
                        // will not reproduce, a real one will. The
                        // comparison then uses the better of both runs.
                        println!(
                            "bench_report: {suite}: {} candidate regression(s) — re-measuring once to rule out host noise",
                            fails.len()
                        );
                        match run_suite(&root, suite, calib) {
                            Ok(retry) => {
                                fails = compare(&baseline, &merge_min(&report, &retry));
                            }
                            Err(e) => {
                                eprintln!("bench_report: re-measurement of `{suite}` failed: {e}");
                            }
                        }
                    }
                    failures.extend(fails);
                }
                Err(e) => failures.push(format!(
                    "{suite}: no usable baseline at {} ({e}) — run bench_report without --check and commit the result",
                    path.display()
                )),
            }
        } else {
            if let Err(e) = std::fs::write(&path, render(&report, &counters)) {
                eprintln!("bench_report: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("bench_report: wrote {}", path.display());
        }
    }

    if failures.is_empty() {
        if check {
            println!(
                "bench_report: all suites within {:.0}% of baseline",
                TOLERANCE * 100.0
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!();
        eprintln!("bench_report: PERFORMANCE REGRESSION DETECTED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root, resolved from this crate's manifest directory so
/// the binary works from any working directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

/// A fixed floating-point workload timed on this host: the unit that
/// makes committed timings comparable across machines. Minimum of five
/// runs, so transient noise pushes the number up, never down.
fn host_calib_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = 0.5f64;
        for i in 0..4_000_000u64 {
            x = x * 1.000_000_119 + (i & 7) as f64 * 1e-9;
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs one suite under the bounded measurement environment and parses
/// the shim's JSONL output.
fn run_suite(root: &Path, suite: &str, calib: f64) -> Result<Report, String> {
    let jsonl = root.join("target").join(format!("criterion-{suite}.jsonl"));
    let _ = std::fs::remove_file(&jsonl);
    std::fs::create_dir_all(jsonl.parent().unwrap()).map_err(|e| e.to_string())?;

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args(["bench", "-p", "paradrive-bench", "--bench", suite])
        .env("CRITERION_JSON", &jsonl);
    for (key, value) in DEFAULT_BOUNDS {
        if std::env::var_os(key).is_none() {
            cmd.env(key, value);
        }
    }
    println!("bench_report: running suite `{suite}`...");
    let status = cmd
        .status()
        .map_err(|e| format!("cannot spawn cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench exited with {status}"));
    }

    let raw = std::fs::read_to_string(&jsonl)
        .map_err(|e| format!("no results at {} ({e})", jsonl.display()))?;
    let mut entries: Vec<Entry> = raw
        .lines()
        .filter_map(|line| entry(&json::parse(line).ok()?))
        .collect();
    if entries.is_empty() {
        return Err("suite produced no benchmark entries".to_string());
    }
    entries.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(Report {
        suite: suite.to_string(),
        host_calib_ns: calib,
        entries,
    })
}

/// Prints the lanes-vs-scalar speedup for any id pair that differs only
/// in a `/scalar` / `/lanes` suffix — the tentpole's headline number.
fn print_speedups(report: &Report) {
    for e in &report.entries {
        if let Some(base) = e.id.strip_suffix("/scalar") {
            let lanes_id = format!("{base}/lanes");
            if let Some(l) = report.entries.iter().find(|x| x.id == lanes_id) {
                println!(
                    "bench_report: {base}: lanes speedup {:.2}x (scalar {:.1} ms, lanes {:.1} ms)",
                    e.median_ns / l.median_ns,
                    e.median_ns / 1e6,
                    l.median_ns / 1e6,
                );
            }
        }
    }
}

/// Compares a fresh report against the committed baseline on
/// calibration-normalized *minima*.
///
/// Minima, not medians: wall-clock noise on shared hosts is one-sided
/// (contention only ever adds time), so the per-benchmark minimum is the
/// stable location statistic while medians can swing 30%+ between
/// identical runs. The report files keep median and mean for human
/// reading; the gate reads `min_ns`.
fn compare(baseline: &Report, fresh: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.entries {
        let Some(new) = fresh.entries.iter().find(|e| e.id == old.id) else {
            failures.push(format!(
                "{}: benchmark `{}` present in baseline but missing from this run",
                fresh.suite, old.id
            ));
            continue;
        };
        let old_norm = old.min_ns / baseline.host_calib_ns;
        let new_norm = new.min_ns / fresh.host_calib_ns;
        let ratio = new_norm / old_norm;
        if ratio > 1.0 + TOLERANCE {
            failures.push(format!(
                "{}: `{}` regressed {:.0}% (normalized min {:.4} → {:.4})",
                fresh.suite,
                old.id,
                (ratio - 1.0) * 100.0,
                old_norm,
                new_norm,
            ));
        }
    }
    failures
}

/// Merges two runs of the same suite, keeping each benchmark's best
/// (minimum) statistics — the noise-robust view the gate compares.
fn merge_min(a: &Report, b: &Report) -> Report {
    let entries = a
        .entries
        .iter()
        .map(|ea| match b.entries.iter().find(|eb| eb.id == ea.id) {
            Some(eb) => Entry {
                id: ea.id.clone(),
                min_ns: ea.min_ns.min(eb.min_ns),
                median_ns: ea.median_ns.min(eb.median_ns),
                mean_ns: ea.mean_ns.min(eb.mean_ns),
                samples: ea.samples + eb.samples,
            },
            None => ea.clone(),
        })
        .collect();
    Report {
        suite: a.suite.clone(),
        host_calib_ns: a.host_calib_ns,
        entries,
    }
}

/// One in-process smoke batch (sampled verification on, the process-wide
/// recorder enabled) distilled into the counters worth tracking next to
/// the timings: cache hit rate, the kernel-dispatch mix the verification
/// oracles exercised, and routing/verification volumes. The workload is
/// fixed, so these numbers move only when the *code* changes how much
/// work the same input costs.
fn counter_snapshot() -> Vec<(String, f64)> {
    use paradrive_circuit::benchmarks;
    use paradrive_engine::{run_batch, Batch, EngineConfig, VerifyLevel};
    use paradrive_transpiler::topology::CouplingMap;

    paradrive_obs::global().set_enabled(true);
    let mut batch = Batch::new(CouplingMap::grid(3, 3));
    batch.push("GHZ", benchmarks::ghz(6));
    batch.push("QFT", benchmarks::qft(5));
    let config = EngineConfig::default()
        .threads(2)
        .routing_seeds(3)
        .verify(VerifyLevel::Sampled)
        .verify_samples(2);
    let report = run_batch(&batch, &config).expect("counter-snapshot probe batch");
    paradrive_obs::global().set_enabled(false);
    let mut trace = report.trace.clone();
    trace.merge(paradrive_obs::global().take());

    let mut out = Vec::new();
    if let Some(stats) = report.cache_stats() {
        let total = (stats.hits + stats.misses).max(1);
        out.push((
            "cache.hit_rate_pct".to_string(),
            100.0 * stats.hits as f64 / total as f64,
        ));
    }
    for name in [
        "sim.kernel.1q.scalar",
        "sim.kernel.1q.lanes",
        "sim.kernel.2q.scalar",
        "sim.kernel.2q.lanes",
        "route.seed_attempts",
        "verify.samples",
    ] {
        out.push((name.to_string(), trace.counter(name).unwrap_or(0) as f64));
    }
    out
}

/// Renders a report in the line-oriented JSON format. Counters live in
/// their own `"counters"` array, which [`load_report`] does not read.
fn render(report: &Report, counters: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": {},\n", escape(&report.suite)));
    out.push_str(&format!(
        "  \"host_calib_ns\": {:.1},\n",
        report.host_calib_ns
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in report.entries.iter().enumerate() {
        let comma = if i + 1 < report.entries.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"id\":{},\"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1},\"samples\":{}}}{comma}\n",
            escape(&e.id), e.min_ns, e.median_ns, e.mean_ns, e.samples
        ));
    }
    if counters.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": [\n");
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"counter\":{},\"value\":{value:.1}}}{comma}\n",
            escape(name)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Loads a committed `BENCH_<suite>.json` (the format [`render`] writes).
fn load_report(path: &Path) -> Result<Report, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&raw).map_err(|e| e.to_string())?;
    let malformed = || "malformed report file".to_string();
    let entries: Vec<Entry> = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(malformed)?
        .iter()
        .map(|e| entry(e).ok_or_else(malformed))
        .collect::<Result<_, _>>()?;
    if entries.is_empty() {
        return Err(malformed());
    }
    Ok(Report {
        suite: doc
            .get("suite")
            .and_then(Value::as_str)
            .ok_or_else(malformed)?
            .to_string(),
        host_calib_ns: doc
            .get("host_calib_ns")
            .and_then(Value::as_f64)
            .ok_or_else(malformed)?,
        entries,
    })
}

/// Reads one `{"id":…,"min_ns":…,…}` object; `None` for anything else.
fn entry(v: &Value) -> Option<Entry> {
    let num = |key| v.get(key).and_then(Value::as_f64);
    Some(Entry {
        id: v.get("id")?.as_str()?.to_string(),
        min_ns: num("min_ns")?,
        median_ns: num("median_ns")?,
        mean_ns: num("mean_ns")?,
        samples: num("samples")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_reports_load_back_and_committed_baselines_load() {
        let report = Report {
            suite: "kernels".to_string(),
            host_calib_ns: 8_041_143.0,
            entries: vec![Entry {
                id: "odd/\"quoted\"\\path\nline\u{1}".to_string(),
                min_ns: 1.5,
                median_ns: 2.0,
                mean_ns: 2.5,
                samples: 12,
            }],
        };
        let dir = std::env::temp_dir().join(format!("bench_report_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernels.json");
        let counters = [("cache.hit_rate_pct".to_string(), 65.2)];
        std::fs::write(&path, render(&report, &counters)).unwrap();
        let back = load_report(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.suite, report.suite);
        assert_eq!(back.host_calib_ns, report.host_calib_ns);
        assert_eq!(back.entries, report.entries);

        // Every committed baseline loads, and what loads re-renders to
        // the file byte for byte — the reader drops nothing it wrote.
        let root = repo_root();
        let mut seen = 0;
        for file in std::fs::read_dir(&root).unwrap() {
            let path = file.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let raw = std::fs::read_to_string(&path).unwrap();
            let report = load_report(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            let doc = json::parse(&raw).unwrap();
            let counters: Vec<(String, f64)> = doc
                .get("counters")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|c| {
                    let counter = c.get("counter").and_then(Value::as_str).unwrap();
                    (
                        counter.to_string(),
                        c.get("value").and_then(Value::as_f64).unwrap(),
                    )
                })
                .collect();
            assert_eq!(render(&report, &counters), raw, "{name}");
            seen += 1;
        }
        assert_eq!(seen, SUITES.len());
    }
}
