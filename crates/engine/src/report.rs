//! Aggregated batch results: [`CircuitReport`] and [`EngineReport`].

use crate::cache::CacheStats;
use paradrive_circuit::Circuit;
use paradrive_core::flow::BenchmarkResult;
use paradrive_obs::{StageStats, Trace};
use paradrive_verify::Verification;
use std::fmt;
use std::time::Duration;

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct CircuitReport {
    /// Scheduling/fidelity numbers, identical in layout to the sequential
    /// flow's per-benchmark result.
    pub result: BenchmarkResult,
    /// Label of the coupling topology the job was routed on.
    pub topology: String,
    /// Label of the device calibration the job was scored under
    /// (`"uniform"` for jobs without one — they run the homogeneous
    /// model).
    pub calibration: String,
    /// Depth of the best routed physical circuit, recorded whether or not
    /// the circuit itself is kept.
    pub depth: usize,
    /// The best routed physical circuit (only when
    /// [`crate::EngineConfig::keep_routed`] is set).
    pub routed: Option<Circuit>,
    /// The semantic-equivalence verdict for this job (`None` with
    /// [`crate::EngineConfig::verify`] off). A pure function of the job
    /// and config — identical at any thread count.
    pub verification: Option<Verification>,
    /// Wall time spent routing this circuit, summed over its seeds
    /// (seeds may have run on different workers concurrently).
    pub route_time: Duration,
    /// Wall time spent consolidating, scheduling and scoring.
    pub pipeline_time: Duration,
}

/// The outcome of a whole batch.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-circuit outcomes, in submission order.
    pub circuits: Vec<CircuitReport>,
    /// Worker threads the batch actually ran with.
    pub threads: usize,
    /// End-to-end batch wall clock.
    pub wall_clock: Duration,
    /// Baseline-model cache counters (`None` with the cache disabled).
    pub baseline_cache: Option<CacheStats>,
    /// Optimized-model cache counters (`None` with the cache disabled).
    pub optimized_cache: Option<CacheStats>,
    /// The batch's execution trace: per-stage spans and counters,
    /// including each model's cache hits, misses and wait time.
    /// Wall-clock-bearing and thread-schedule-dependent — export it with
    /// [`Trace::write_chrome`] / [`Trace::write_jsonl`] or roll it up
    /// with [`EngineReport::metrics_summary`], but never render it into
    /// the deterministic report (the `Display` impl ignores it).
    pub trace: Trace,
}

impl EngineReport {
    /// Combined counters over both per-model caches.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match (self.baseline_cache, self.optimized_cache) {
            (Some(b), Some(o)) => Some(b.merged(o)),
            (one, other) => one.or(other),
        }
    }

    /// Combined cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache_stats().and_then(|s| s.hit_rate())
    }

    /// Mean duration reduction over the batch, percent.
    pub fn average_reduction_pct(&self) -> f64 {
        if self.circuits.is_empty() {
            return f64::NAN;
        }
        self.circuits
            .iter()
            .map(|c| c.result.duration_reduction_pct)
            .sum::<f64>()
            / self.circuits.len() as f64
    }

    /// Total CPU time attributed to jobs (routing + pipeline); with N
    /// workers this can exceed [`EngineReport::wall_clock`] by up to N×.
    pub fn busy_time(&self) -> Duration {
        self.circuits
            .iter()
            .map(|c| c.route_time + c.pipeline_time)
            .sum()
    }

    /// Rolls the trace up into stage-time statistics (p50/p95 per stage)
    /// and a thread-utilization fraction. Wall-clock data: render it only
    /// under `--timings`-style diagnostic flags, never in the
    /// deterministic report.
    pub fn metrics_summary(&self) -> MetricsSummary {
        let busy: u64 = self.trace.spans.iter().map(|s| s.dur_ns).sum();
        let capacity = self.wall_clock.as_nanos() as u64 * self.threads as u64;
        MetricsSummary {
            stages: self.trace.stage_summary(),
            threads: self.threads,
            wall_clock: self.wall_clock,
            utilization: if capacity > 0 {
                (busy as f64 / capacity as f64).min(1.0)
            } else {
                0.0
            },
        }
    }

    /// Batch-wide verification rollup, or `None` when no job carried a
    /// verdict (verification off).
    pub fn verification_summary(&self) -> Option<VerificationSummary> {
        let mut summary = VerificationSummary::new();
        for v in self.circuits.iter().filter_map(|c| c.verification.as_ref()) {
            summary.add(v);
        }
        (!summary.is_empty()).then_some(summary)
    }
}

/// Verification counters over a set of verdicts — a commutative monoid:
/// [`VerificationSummary::add`] folds one verdict in,
/// [`VerificationSummary::merge`] combines two partial summaries, and
/// [`VerificationSummary::new`] is the identity. Both the engine's
/// [`EngineReport::verification_summary`] and the sweep's per-run rollup
/// fold through it.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationSummary {
    /// Jobs verified by the exact unitary oracle.
    pub exact: usize,
    /// Jobs verified by the matrix-product-state overlap oracle.
    pub mps: usize,
    /// Jobs verified by the Monte-Carlo oracle.
    pub sampled: usize,
    /// Jobs whose verification was skipped (too wide to simulate) — a
    /// policy outcome, not a failure.
    pub skipped: usize,
    /// Jobs whose oracle could not run at all (malformed inputs — a
    /// broken caller invariant). Always counted in `failed` too.
    pub errors: usize,
    /// Jobs whose oracle rejected the equivalence or errored out.
    pub failed: usize,
    /// Worst fidelity any oracle measured (`NaN` when no verdict carried
    /// one, e.g. every job skipped).
    pub min_fidelity: f64,
}

impl Default for VerificationSummary {
    fn default() -> Self {
        VerificationSummary {
            exact: 0,
            mps: 0,
            sampled: 0,
            skipped: 0,
            errors: 0,
            failed: 0,
            min_fidelity: f64::NAN,
        }
    }
}

impl VerificationSummary {
    /// The empty summary (the monoid identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one verdict in.
    pub fn add(&mut self, v: &Verification) {
        match v {
            Verification::Exact { .. } => self.exact += 1,
            Verification::Mps { .. } => self.mps += 1,
            Verification::Sampled { .. } => self.sampled += 1,
            Verification::Skipped { .. } => self.skipped += 1,
            Verification::Error { .. } => self.errors += 1,
        }
        if v.failed() {
            self.failed += 1;
        }
        if let Some(f) = v.fidelity() {
            // `f64::min` ignores a NaN operand, so the empty summary's NaN
            // is the identity.
            self.min_fidelity = self.min_fidelity.min(f);
        }
    }

    /// Folds another partial summary in. Commutes with [`Self::add`].
    pub fn merge(&mut self, other: &VerificationSummary) {
        self.exact += other.exact;
        self.mps += other.mps;
        self.sampled += other.sampled;
        self.skipped += other.skipped;
        self.errors += other.errors;
        self.failed += other.failed;
        self.min_fidelity = self.min_fidelity.min(other.min_fidelity);
    }

    /// True when no verdict has been folded in.
    pub fn is_empty(&self) -> bool {
        self.exact + self.mps + self.sampled + self.skipped + self.errors == 0
    }

    /// True when every verified job passed its oracle.
    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

impl fmt::Display for VerificationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify: {} exact, ", self.exact)?;
        // The MPS count renders only when present, keeping the summary
        // line byte-stable for the (common) batches that never escalate.
        if self.mps > 0 {
            write!(f, "{} mps, ", self.mps)?;
        }
        write!(
            f,
            "{} sampled, {} skipped, {} failed",
            self.sampled, self.skipped, self.failed
        )?;
        if self.errors > 0 {
            write!(f, " ({} oracle errors)", self.errors)?;
        }
        if !self.min_fidelity.is_nan() {
            write!(f, ", min F {:.9}", self.min_fidelity)?;
        }
        Ok(())
    }
}

/// Wall-clock rollup of a batch trace (see
/// [`EngineReport::metrics_summary`]): per-stage duration statistics and
/// how much of the worker pool's capacity the spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Per-stage statistics, in first-span order.
    pub stages: Vec<StageStats>,
    /// Worker threads the batch ran with.
    pub threads: usize,
    /// End-to-end batch wall clock.
    pub wall_clock: Duration,
    /// Fraction of `threads × wall_clock` covered by recorded spans, in
    /// `[0, 1]` — low values mean workers idled (e.g. one late job
    /// serialized the tail).
    pub utilization: f64,
}

impl fmt::Display for MetricsSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "stage", "spans", "total", "p50", "p95", "max"
        )?;
        let ms = |ns: u64| format!("{:.3}ms", ns as f64 / 1e6);
        for s in &self.stages {
            writeln!(
                f,
                "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
                s.name,
                s.count,
                ms(s.total_ns),
                ms(s.p50_ns),
                ms(s.p95_ns),
                ms(s.max_ns),
            )?;
        }
        write!(
            f,
            "threads {}, wall {:.1} ms, utilization {:.0}%",
            self.threads,
            self.wall_clock.as_secs_f64() * 1e3,
            self.utilization * 100.0,
        )
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<16} {:<12} {:>6} {:>7} {:>10} {:>10} {:>7} {:>9} {:>9}",
            "circuit",
            "topology",
            "calib",
            "swaps",
            "blocks",
            "D[base]",
            "D[opt]",
            "Δ%",
            "F[T]opt",
            "time"
        )?;
        for c in &self.circuits {
            let r = &c.result;
            write!(
                f,
                "{:<12} {:<16} {:<12} {:>6} {:>7} {:>10.2} {:>10.2} {:>7.1} {:>9.4} {:>8.1}ms",
                r.name,
                c.topology,
                c.calibration,
                r.swaps,
                r.blocks,
                r.baseline_duration,
                r.optimized_duration,
                r.duration_reduction_pct,
                r.optimized_total_fidelity,
                (c.route_time + c.pipeline_time).as_secs_f64() * 1e3,
            )?;
            match &c.verification {
                Some(v) => writeln!(f, "  {v}")?,
                None => writeln!(f)?,
            }
        }
        writeln!(
            f,
            "batch: {} circuits on {} threads in {:.1} ms (busy {:.1} ms), mean reduction {:.1}%",
            self.circuits.len(),
            self.threads,
            self.wall_clock.as_secs_f64() * 1e3,
            self.busy_time().as_secs_f64() * 1e3,
            self.average_reduction_pct(),
        )?;
        match self.cache_stats() {
            Some(s) => writeln!(
                f,
                "cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
                s.hits,
                s.misses,
                s.hit_rate().unwrap_or(0.0) * 100.0,
                s.entries,
            )?,
            None => writeln!(f, "cache: disabled")?,
        }
        if let Some(v) = self.verification_summary() {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, reduction: f64) -> BenchmarkResult {
        BenchmarkResult {
            name: name.to_string(),
            swaps: 2,
            blocks: 5,
            baseline_duration: 10.0,
            optimized_duration: 10.0 * (1.0 - reduction / 100.0),
            duration_reduction_pct: reduction,
            fq_improvement_pct: 0.1,
            ft_improvement_pct: 1.0,
            baseline_total_fidelity: 0.8,
            optimized_total_fidelity: 0.9,
        }
    }

    fn report() -> EngineReport {
        EngineReport {
            circuits: vec![
                CircuitReport {
                    result: result("a", 10.0),
                    topology: "grid4x4".to_string(),
                    calibration: "uniform".to_string(),
                    depth: 0,
                    routed: None,
                    verification: None,
                    route_time: Duration::from_millis(2),
                    pipeline_time: Duration::from_millis(3),
                },
                CircuitReport {
                    result: result("b", 20.0),
                    topology: "ring16".to_string(),
                    calibration: "hotspot2".to_string(),
                    depth: 0,
                    routed: None,
                    verification: None,
                    route_time: Duration::from_millis(1),
                    pipeline_time: Duration::from_millis(4),
                },
            ],
            threads: 2,
            wall_clock: Duration::from_millis(6),
            baseline_cache: Some(CacheStats {
                hits: 30,
                misses: 10,
                entries: 10,
            }),
            optimized_cache: Some(CacheStats {
                hits: 20,
                misses: 20,
                entries: 20,
            }),
            trace: Trace::default(),
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert!((r.average_reduction_pct() - 15.0).abs() < 1e-12);
        assert_eq!(r.busy_time(), Duration::from_millis(10));
        let s = r.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses, s.entries), (50, 30, 30));
        assert!((r.cache_hit_rate().unwrap() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_cache_and_rows() {
        let text = report().to_string();
        assert!(text.contains("cache: 50 hits / 30 misses"));
        assert!(text.contains("mean reduction 15.0%"));
        assert!(text.contains("ring16"));
        let mut disabled = report();
        disabled.baseline_cache = None;
        disabled.optimized_cache = None;
        assert!(disabled.to_string().contains("cache: disabled"));
    }

    #[test]
    fn verification_summary_rolls_up_and_renders() {
        let mut r = report();
        assert!(r.verification_summary().is_none());
        r.circuits[0].verification = Some(Verification::Exact {
            fidelity: 1.0,
            columns: 16,
            width: 4,
            passed: true,
        });
        r.circuits[1].verification = Some(Verification::Sampled {
            min_fidelity: 0.5,
            samples: 8,
            width: 16,
            passed: false,
        });
        let s = r.verification_summary().unwrap();
        assert_eq!((s.exact, s.sampled, s.skipped, s.failed), (1, 1, 0, 1));
        assert!(!s.all_passed());
        assert!((s.min_fidelity - 0.5).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("verify: 1 exact, 1 sampled, 0 skipped, 1 failed"));
        assert!(text.contains("sampled FAIL"));

        // All-skipped batches report NaN fidelity but still roll up.
        r.circuits[0].verification = Some(Verification::Skipped {
            reason: "off".to_string(),
        });
        r.circuits[1].verification = Some(Verification::Skipped {
            reason: "off".to_string(),
        });
        let s = r.verification_summary().unwrap();
        assert_eq!(s.skipped, 2);
        assert!(s.min_fidelity.is_nan());
        assert!(s.all_passed());

        // An oracle error is a failure — a batch that asked for
        // verification and didn't get it must not report success.
        r.circuits[0].verification = Some(Verification::Error {
            reason: "layout is not a permutation".to_string(),
        });
        let s = r.verification_summary().unwrap();
        assert_eq!((s.errors, s.failed, s.skipped), (1, 1, 1));
        assert!(!s.all_passed());
        assert!(r.to_string().contains("(1 oracle errors)"));
        assert!(r
            .to_string()
            .contains("ERROR (layout is not a permutation)"));
    }

    #[test]
    fn empty_report_mean_is_nan() {
        let r = EngineReport {
            circuits: vec![],
            threads: 1,
            wall_clock: Duration::ZERO,
            baseline_cache: None,
            optimized_cache: None,
            trace: Trace::default(),
        };
        assert!(r.average_reduction_pct().is_nan());
        assert!(r.cache_hit_rate().is_none());
        let m = r.metrics_summary();
        assert!(m.stages.is_empty());
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn metrics_summary_rolls_up_stage_times_and_utilization() {
        use paradrive_obs::SpanEvent;
        let mut r = report();
        r.wall_clock = Duration::from_nanos(1000);
        r.threads = 2;
        // 1500 ns of spans over a 2 × 1000 ns budget: 75% utilization.
        for (name, tid, start_ns, dur_ns) in [
            ("route", 0, 0, 600),
            ("route", 1, 0, 400),
            ("schedule", 0, 600, 500),
        ] {
            r.trace.spans.push(SpanEvent {
                name,
                label: String::new(),
                key: 0,
                tid,
                start_ns,
                dur_ns,
            });
        }
        let m = r.metrics_summary();
        assert_eq!(m.stages.len(), 2);
        assert_eq!(m.stages[0].name, "route");
        assert_eq!(m.stages[0].count, 2);
        assert_eq!(m.stages[0].total_ns, 1000);
        assert!((m.utilization - 0.75).abs() < 1e-12);
        let text = m.to_string();
        assert!(text.contains("utilization 75%"), "{text}");
        assert!(text.contains("schedule"), "{text}");
        // The deterministic report ignores the trace entirely.
        let mut quiet = report();
        quiet.wall_clock = r.wall_clock;
        quiet.threads = r.threads;
        assert_eq!(quiet.to_string(), r.to_string());
    }
}
