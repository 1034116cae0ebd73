//! End-to-end transpile benchmark.
//!
//! ```text
//! e2ebench --workload <synth-tail|verify-fleet> --seed N --seconds S --trace 0|1
//! ```
//!
//! Set-up builds the coverage stacks the workload's first general-class
//! cost call builds, and generates the inputs from `--seed`. The stacks
//! are built once per process, so when set-up is short it is repeated in
//! child processes (`--setup-only`) and the median is reported. The
//! workload then runs through its entry point (`run_batch` or
//! `run_sweep_shard`) again and again within `--seconds`, with two worker
//! threads, and the median run is reported. After the timed runs the
//! outputs are checked: every job succeeds, every verdict passes, every
//! run of the workload renders the same deterministic report, and each
//! kept route passes an equivalence oracle once more.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` gives the
//! untraced runs half of `--seconds`, then times the same number of
//! traced runs (process-global kernel counters on, benchmark-side spans
//! around the sweep rollup, render and journal read) and prints the
//! per-layer metrics, the tracing overhead and the span coverage. The
//! last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod stats;
mod workloads;

use paradrive_core::rules::{BaselineSqrtIswap, ParallelDriveRules};
use paradrive_obs::Recorder;
use paradrive_sim::KernelPath;
use paradrive_transpiler::CostModel;
use paradrive_weyl::WeylPoint;
use stats::{cpu_seconds, median, peak_rss_mib, quantile};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Prepared, RunOut, Summary};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, print the set-up time and exit: how the benchmark repeats
    /// its set-up in child processes.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        setup_only,
    })
}

/// A general (non-family) Weyl point: the first cost query on one builds
/// the model's lazily initialized coverage stacks.
const GENERAL_POINT: WeylPoint = WeylPoint::new(0.9, 0.4, 0.1);

/// Set-up is repeated in child processes while the repeats together take
/// at most this long, and at most [`SETUP_REPEATS`] times. A set-up that
/// takes longer than this runs once.
const SETUP_REPEAT_BUDGET_S: f64 = 5.0;
const SETUP_REPEATS: usize = 4;

/// What set-up leaves behind, and how long its parts took.
struct SetUp {
    prepared: Prepared,
    setup_s: f64,
    coverage_baseline_s: f64,
    coverage_pd_s: f64,
}

/// Builds the coverage stacks the workload's cost models read (a
/// process-wide, once-only cost) and generates the inputs.
fn set_up(kind: Kind, seed: u64) -> Result<SetUp, String> {
    let setup_started = Instant::now();
    let t = Instant::now();
    std::hint::black_box(BaselineSqrtIswap::new(0.25).cost(GENERAL_POINT));
    let coverage_baseline_s = t.elapsed().as_secs_f64();
    let coverage_pd_s = if kind.uses_pd_stacks() {
        let t = Instant::now();
        std::hint::black_box(ParallelDriveRules::new(0.25).cost(GENERAL_POINT));
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let work_dir = std::path::PathBuf::from(
        std::env::var("E2EBENCH_WORK_DIR").unwrap_or_else(|_| ".bench_build/e2ebench".into()),
    );
    let prepared = workloads::prepare(kind, seed, &work_dir)?;
    Ok(SetUp {
        prepared,
        setup_s: setup_started.elapsed().as_secs_f64(),
        coverage_baseline_s,
        coverage_pd_s,
    })
}

/// Set-up times of fresh child processes, run one after another within
/// [`SETUP_REPEAT_BUDGET_S`]. Each child is waited for.
fn repeat_set_up(args: &Args, first_s: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < SETUP_REPEATS && spent + first_s <= SETUP_REPEAT_BUDGET_S {
        let t = Instant::now();
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.kind.name(), "--setup-only"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a set-up repeat: {e}"))?;
        spent += t.elapsed().as_secs_f64();
        let text = String::from_utf8_lossy(&out.stdout);
        let value = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => times.push(v),
            _ => return Err(format!("set-up repeat failed ({})", out.status)),
        }
    }
    Ok(times)
}

/// Timed runs: wall and CPU seconds of each, plus its output.
struct Timed {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    outs: Vec<RunOut>,
    errors: Vec<String>,
}

/// Runs the workload again and again within `seconds`: a run starts only
/// if one more of the last run's length still ends inside the window, so
/// the process's length stays predictable. Runs at least once; stops at
/// the first failed run.
fn timed_runs(p: &Prepared, rec: &Recorder, seconds: f64) -> Timed {
    let mut t = Timed {
        wall: Vec::new(),
        cpu: Vec::new(),
        outs: Vec::new(),
        errors: Vec::new(),
    };
    let started = Instant::now();
    loop {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = workloads::run(p, rec);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu0;
        match out {
            Ok(out) => {
                t.wall.push(wall);
                t.cpu.push(cpu);
                t.outs.push(out);
            }
            Err(e) => {
                t.errors.push(e);
                break;
            }
        }
        if started.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    t
}

/// JSON number: every digit as measured; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    better: String,
}

/// Reads the `end_to_end` and `per_layer` metric declarations from
/// `BENCHMARK.json` in the working directory, the one place units and
/// directions are written down.
fn declared_metrics() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = paradrive_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let field = |m: &paradrive_obs::json::Value, f: &str| {
            m.get(f)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{f}`"))
        };
        doc.get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Progress on stderr, stamped with seconds since start.
fn progress(started: Instant, what: &str) {
    eprintln!("[{:8.2}s] {what}", started.elapsed().as_secs_f64());
}

/// Runs the benchmark; `Ok(false)` when the output check failed.
fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    if args.setup_only {
        println!("setup_s {}", set_up(kind, args.seed)?.setup_s);
        return Ok(true);
    }
    let started = Instant::now();
    let (end_to_end, per_layer) = declared_metrics()?;

    // ---- set-up: coverage stacks + input generation -------------------
    let SetUp {
        prepared,
        setup_s: first_setup_s,
        coverage_baseline_s,
        coverage_pd_s,
    } = set_up(kind, args.seed)?;
    let mut setups = vec![first_setup_s];
    setups.extend(repeat_set_up(args, first_setup_s)?);
    let setup_s = median(&setups);
    progress(
        started,
        &format!("set-up done ({setup_s:.2} s, median of {})", setups.len()),
    );

    // ---- timed runs -----------------------------------------------------
    let rec = Recorder::disabled();
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = timed_runs(&prepared, &rec, window);
    let traced = args.trace.then(|| {
        paradrive_obs::global().take();
        paradrive_obs::global().set_enabled(true);
        rec.set_enabled(true);
        let mut traced = Timed {
            wall: Vec::new(),
            cpu: Vec::new(),
            outs: Vec::new(),
            errors: Vec::new(),
        };
        let mut kernels = Vec::new();
        for _ in 0..plain.wall.len().max(1) {
            let one = timed_runs(&prepared, &rec, 0.0);
            kernels.push(paradrive_obs::global().take());
            traced.wall.extend(one.wall);
            traced.cpu.extend(one.cpu);
            traced.outs.extend(one.outs);
            traced.errors.extend(one.errors);
        }
        paradrive_obs::global().set_enabled(false);
        rec.set_enabled(false);
        (traced, kernels)
    });

    progress(
        started,
        &format!("{} timed runs done; checking outputs", plain.wall.len()),
    );
    // ---- output check (untimed) ----------------------------------------
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut problems: Vec<String> = Vec::new();
    let mut summaries: Vec<Summary> = Vec::new();
    let all_runs = plain
        .outs
        .iter()
        .chain(traced.iter().flat_map(|(t, _)| t.outs.iter()));
    for out in all_runs {
        summaries.push(workloads::summarize(out));
    }
    for e in plain
        .errors
        .iter()
        .chain(traced.iter().flat_map(|(t, _)| t.errors.iter()))
    {
        attempted += 1;
        failed += 1;
        problems.push(format!("run failed: {e}"));
    }
    for s in &summaries {
        attempted += s.attempted;
        failed += s.failed;
    }
    if failed > 0 {
        problems.push(format!("{failed} job, cell or verdict failures"));
    }
    // Every run renders the same deterministic report.
    if let Some(first) = summaries.first() {
        for (i, s) in summaries.iter().enumerate().skip(1) {
            attempted += 1;
            if s.digest != first.digest {
                failed += 1;
                problems.push(format!("run {i} report digest differs from run 0"));
            }
        }
    }
    let last = plain.outs.last();
    let routes = last.map(|l| check::recheck_routes(&prepared, l, args.trace));
    if let Some(r) = &routes {
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.problems.iter().cloned());
    }
    progress(started, "route re-verification done");
    let synth_ms = match (&traced, kind) {
        (Some((t, _)), Kind::SynthTail) => t
            .outs
            .last()
            .map(|l| check::replay_synthesis(&prepared, l))
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    progress(started, "output check done");
    let correct = failed == 0 && attempted > 0;
    let attempted = attempted.max(1);

    // ---- metrics ---------------------------------------------------------
    let first = summaries.first();
    let det = |f: fn(&Summary) -> f64| first.map_or(f64::NAN, f);
    let mut values: Vec<(&str, f64)> = vec![
        ("setup_s", setup_s),
        ("run_s", median(&plain.wall)),
        ("cpu_s", median(&plain.cpu)),
        ("peak_rss_mb", peak_rss_mib()),
        (
            "passed_pct",
            100.0 * (attempted - failed) as f64 / attempted as f64,
        ),
        ("duration_reduction_pct", det(|s| s.reduction_pct)),
        ("ft_improvement_pct", det(|s| s.ft_pct)),
        ("delivered_ft", det(|s| s.delivered_ft)),
        ("retranspile_pct", det(|s| s.retranspile_pct)),
        ("coverage.baseline_s", coverage_baseline_s),
        ("coverage.pd_s", coverage_pd_s),
    ];
    if let Some((t, kernels)) = &traced {
        let layer_runs: Vec<workloads::Layers> = t.outs.iter().map(workloads::layers).collect();
        let median_of = |f: &dyn Fn(&workloads::Layers) -> f64| {
            median(&layer_runs.iter().map(f).collect::<Vec<_>>())
        };
        if let Some(l) = layer_runs.first() {
            for &(name, _) in &l.values {
                values.push((
                    name,
                    median_of(&|l| {
                        l.values
                            .iter()
                            .find(|(n, _)| *n == name)
                            .map_or(0.0, |v| v.1)
                    }),
                ));
            }
        }
        let q = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { quantile(v, p) };
        values.push(("synth.classes", synth_ms.len() as f64));
        values.push(("synth.ms_total", synth_ms.iter().fold(0.0, |a, b| a + b)));
        values.push(("synth.ms.p50", q(&synth_ms, 0.5)));
        values.push(("synth.ms.p90", q(&synth_ms, 0.9)));
        // Kernel dispatches per traced run (median), and the bytes they
        // touch, computed as calls × (read + write of 16 B amplitudes) ×
        // 2^width at the mean support width of the Monte-Carlo verdicts.
        let mut calls = 0.0;
        for name in [
            "sim.kernel.1q.lanes",
            "sim.kernel.1q.scalar",
            "sim.kernel.2q.lanes",
            "sim.kernel.2q.scalar",
        ] {
            let v = median(
                &kernels
                    .iter()
                    .map(|k| k.counter(name).unwrap_or(0) as f64)
                    .collect::<Vec<_>>(),
            );
            calls += v;
            values.push((name, v));
        }
        let width = median_of(&|l| l.sampled_width);
        values.push((
            "sim.bytes_computed",
            if width > 0.0 {
                calls * 32.0 * width.exp2()
            } else {
                0.0
            },
        ));
        values.push(("trace.overhead_s", median(&t.wall) - median(&plain.wall)));
        let spanned: Vec<f64> = layer_runs
            .iter()
            .zip(&t.cpu)
            .map(|(l, cpu)| {
                if *cpu > 0.0 {
                    100.0 * l.spanned_s / cpu
                } else {
                    0.0
                }
            })
            .collect();
        values.push(("span.coverage_pct", median(&spanned)));
    }
    let value_of = |m: &Declared| {
        values
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|v| v.1)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json declares `{}`, which is not measured",
                    m.name
                )
            })
    };

    // ---- report ----------------------------------------------------------
    let kernel_path = KernelPath::detected().label();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"spec_digest\": \"{:016x}\", \"nproc\": {}, \"threads\": {}, \"sim_kernel\": {}, \"profile\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
        json_str(kind.name()),
        args.seed,
        prepared.spec_digest,
        nproc,
        workloads::THREADS,
        json_str(kernel_path),
        json_str(profile),
        json_str(&std::env::var("E2EBENCH_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("E2EBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into())),
    );
    println!(
        "runs: {} timed (wall p50 {:.4} s, p90 {:.4} s, min {:.4} s, max {:.4} s)",
        plain.wall.len(),
        median(&plain.wall),
        quantile(&plain.wall, 0.9),
        quantile(&plain.wall, 0.0),
        quantile(&plain.wall, 1.0),
    );
    if let Some((t, _)) = &traced {
        println!(
            "traced runs: {} (wall p50 {:.4} s)",
            t.wall.len(),
            median(&t.wall)
        );
    }
    if let Some(r) = &routes {
        println!(
            "route re-verification: {} checks ({} sampled, {} mps, {} unverified), {} failed",
            r.attempted, r.sampled, r.mps, r.unverified, r.failed
        );
    }
    for p in problems.iter().take(20) {
        println!("CHECK FAILED: {p}");
    }
    let sections = [
        ("end-to-end", &end_to_end),
        ("per-layer (traced)", &per_layer),
    ];
    for (title, declared) in sections.iter().take(if args.trace { 2 } else { 1 }) {
        println!("{title}:");
        for m in declared.iter() {
            println!(
                "  {:<24} {:>20.6} {:<5} ({} is better)",
                m.name,
                value_of(m)?,
                m.unit,
                m.better
            );
        }
    }
    if let Some(path) = &prepared.journal {
        let _ = std::fs::remove_file(path);
    }

    let shown = if args.trace { &per_layer } else { &end_to_end };
    let metrics = shown
        .iter()
        .map(|m| {
            Ok(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                num(value_of(m)?),
                json_str(&m.unit)
            ))
        })
        .collect::<Result<Vec<String>, String>>()?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}
