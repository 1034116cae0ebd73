//! The fleet re-transpilation policy layer: replaying a drifting
//! calibration timeline as a sequence of epochs.
//!
//! A routing that was optimal at calibration time silently decays as the
//! device drifts — edge error rates creep, couplers die — but
//! re-transpiling every circuit at every epoch is wasted work when the
//! drift is mild. [`run_fleet`] replays a
//! [`CalibrationTimeline`] epoch by epoch over a set of [`FleetJob`]s and
//! lets a [`RetranspilePolicy`] make the stale-vs-keep call per job:
//!
//! - at **epoch 0** every job transpiles fresh through the engine
//!   ([`EpochDecision::Fresh`]);
//! - at each later epoch the policy sees the *predicted fidelity loss* of
//!   the cached routing — how much of the route's gate-error survival
//!   product ([`Calibration::routed_survival`]) the new calibration has
//!   eaten relative to its adoption epoch — and either **keeps** the
//!   route (re-scored under the new calibration, no routing work) or
//!   **re-transpiles** it through the full engine pipeline;
//! - re-transpiles run through the same engine back half as
//!   [`run_batch_streaming`], which hands back each job's consolidated
//!   items with its report, so an adopted route is never consolidated
//!   twice; kept routes are re-scored by the back half's own scoring code;
//! - one [`DecompositionCache`] pair is shared across every epoch, so
//!   re-transpiles revisit warm Weyl classes instead of rebuilding cold
//!   caches per epoch.
//!
//! The outcome is a [`FleetReport`]: per-epoch, per-job reports with
//! their decisions. Fleet rollups (mean delivered fidelity over time,
//! re-transpile rate, route-reuse rate per epoch) are computed by the
//! sweep's `RunRollup`, the one aggregator. Everything deterministic is a
//! pure function of `(jobs, config, policy)` — bit-identical at any
//! thread count; wall clock and cache counters stay quarantined in the
//! trace.
//!
//! [`CalibrationTimeline`]: paradrive_transpiler::calibration::drift::CalibrationTimeline
//! [`Calibration::routed_survival`]: paradrive_transpiler::calibration::Calibration::routed_survival
//! [`run_batch_streaming`]: crate::run_batch_streaming
//! [`DecompositionCache`]: crate::DecompositionCache

use crate::batch::{Batch, EngineConfig};
use crate::engine::{fresh_caches, run_core, Scorer};
use crate::report::CircuitReport;
use crate::EngineError;
use paradrive_circuit::Circuit;
use paradrive_obs::Trace;
use paradrive_transpiler::calibration::drift::CalibrationTimeline;
use paradrive_transpiler::consolidate::Item;
use paradrive_transpiler::topology::CouplingMap;
use paradrive_verify::Verification;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// When does a fleet job re-transpile against the current epoch's
/// calibration?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetranspilePolicy {
    /// Keep the epoch-0 routing forever (the do-nothing fleet).
    Never,
    /// Re-transpile every job at every epoch (the paranoid fleet).
    Always,
    /// Re-transpile a job only when its cached route's predicted fidelity
    /// loss exceeds the threshold: `1 − survival_now / survival_adopted`,
    /// both measured by [`routed_survival`] on the same routed circuit.
    ///
    /// [`routed_survival`]: paradrive_transpiler::calibration::Calibration::routed_survival
    Adaptive {
        /// Maximum tolerated predicted fidelity loss in `[0, 1]` before a
        /// re-transpile is ordered.
        max_fidelity_loss: f64,
    },
}

impl RetranspilePolicy {
    /// The canonical grammar label: `never`, `always`, or
    /// `adaptive<LOSS>` (e.g. `adaptive0.05`) — `{}` on the threshold
    /// prints the shortest string that parses back to the same value, so
    /// labels round-trip through [`FromStr`].
    pub fn label(&self) -> String {
        match self {
            RetranspilePolicy::Never => "never".to_string(),
            RetranspilePolicy::Always => "always".to_string(),
            RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                format!("adaptive{max_fidelity_loss}")
            }
        }
    }
}

impl std::fmt::Display for RetranspilePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A [`RetranspilePolicy`] label that failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyParseError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown re-transpile policy `{}` (expected never, always, or adaptive<LOSS> \
             with LOSS in [0, 1], e.g. adaptive0.05)",
            self.input
        )
    }
}

impl std::error::Error for PolicyParseError {}

impl FromStr for RetranspilePolicy {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let reject = || PolicyParseError {
            input: s.to_string(),
        };
        match s {
            "never" => Ok(RetranspilePolicy::Never),
            "always" => Ok(RetranspilePolicy::Always),
            _ => {
                let loss = s.strip_prefix("adaptive").ok_or_else(reject)?;
                let max_fidelity_loss: f64 = loss.parse().map_err(|_| reject())?;
                if !(0.0..=1.0).contains(&max_fidelity_loss) {
                    return Err(reject());
                }
                Ok(RetranspilePolicy::Adaptive { max_fidelity_loss })
            }
        }
    }
}

/// What happened to one job at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochDecision {
    /// First transpile (epoch 0) — nothing cached to keep.
    Fresh,
    /// The cached routing was kept and re-scored under the new
    /// calibration.
    Kept,
    /// The cached routing was declared stale and the job re-transpiled.
    Retranspiled,
}

impl EpochDecision {
    /// Short stable label for renders and journals.
    pub fn label(&self) -> &'static str {
        match self {
            EpochDecision::Fresh => "fresh",
            EpochDecision::Kept => "kept",
            EpochDecision::Retranspiled => "retrans",
        }
    }
}

/// One circuit riding a calibration timeline through a fleet run.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Job name, carried into every epoch's report.
    pub name: String,
    /// The logical circuit.
    pub circuit: Circuit,
    /// The device it routes on.
    pub map: Arc<CouplingMap>,
    /// The drifting calibration it is scored under, epoch by epoch. All
    /// jobs in one fleet must agree on the epoch count.
    pub timeline: Arc<CalibrationTimeline>,
}

/// One job's outcome at one epoch.
#[derive(Debug, Clone)]
pub struct FleetJobReport {
    /// The policy's call for this job at this epoch.
    pub decision: EpochDecision,
    /// The predicted fidelity loss the policy saw (`0.0` at epoch 0).
    pub predicted_loss: f64,
    /// The full per-circuit report under this epoch's calibration.
    pub report: CircuitReport,
}

/// Every job's outcome at one epoch.
#[derive(Debug, Clone)]
pub struct FleetEpochReport {
    /// The epoch index (0 is the initial calibration).
    pub epoch: usize,
    /// Per-job outcomes, in fleet submission order.
    pub jobs: Vec<FleetJobReport>,
}

/// The outcome of one [`run_fleet`] replay.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-epoch outcomes, in epoch order.
    pub epochs: Vec<FleetEpochReport>,
    /// Worker threads the fleet's engine batches ran with.
    pub threads: usize,
    /// End-to-end fleet wall clock.
    pub wall_clock: Duration,
    /// The merged trace across every epoch's engine run: spans shifted
    /// onto one timeline, counters prefixed `epochN.`, plus per-epoch
    /// `fleet.epochN.{fresh,kept,retranspiled}` decision counters.
    /// Wall-clock-bearing — never render it into the deterministic
    /// report.
    pub trace: Trace,
}

/// A job's cached transpilation, adopted at its last fresh/re-transpile
/// epoch.
struct Adopted {
    routed: Circuit,
    depth: usize,
    items: Vec<Item>,
    swaps: usize,
    /// The route's gate-error survival product under the calibration it
    /// was adopted at — the denominator of the predicted-loss estimate.
    survival: f64,
    verification: Option<Verification>,
}

/// Replays every job's calibration timeline epoch by epoch under one
/// re-transpilation `policy`.
///
/// Epoch 0 transpiles every job fresh; later epochs consult the policy
/// per job (see [`RetranspilePolicy`]). Kept jobs are re-scored under the
/// new calibration without routing; re-transpiled jobs go through the
/// full engine pipeline as one sub-batch per epoch, sharing a single warm
/// [`DecompositionCache`](crate::DecompositionCache) pair across all
/// epochs and adopting the engine's consolidated items as-is. Kept jobs
/// carry their adoption verification verdict forward — the routed
/// circuit is unchanged, so the verdict is too.
///
/// Deterministic outputs are pure functions of `(jobs, config, policy)`:
/// bit-identical at any thread count.
///
/// # Errors
///
/// [`EngineError::Fleet`] when the jobs disagree on epoch count, and any
/// [`EngineError::Job`] a sub-batch reports (invalid calibration,
/// unroutable circuit, …).
pub fn run_fleet(
    jobs: &[FleetJob],
    config: &EngineConfig,
    policy: &RetranspilePolicy,
) -> Result<FleetReport, EngineError> {
    let started = Instant::now();
    let mut trace = Trace::default();
    if jobs.is_empty() {
        return Ok(FleetReport {
            epochs: Vec::new(),
            threads: config.effective_threads(),
            wall_clock: started.elapsed(),
            trace,
        });
    }
    let n_epochs = jobs[0].timeline.epochs();
    if let Some(odd) = jobs.iter().find(|j| j.timeline.epochs() != n_epochs) {
        return Err(EngineError::Fleet {
            reason: format!(
                "job `{}` rides a {}-epoch timeline but the fleet runs {} epochs",
                odd.name,
                odd.timeline.epochs(),
                n_epochs
            ),
        });
    }

    // One warm cache pair for the whole fleet: re-transpiles at late
    // epochs revisit the Weyl classes epoch 0 already decomposed.
    let caches = fresh_caches(config);
    // Sub-batches must keep routed circuits — the cached route *is* the
    // fleet's working state; the caller's `keep_routed` governs only
    // whether the emitted reports carry a copy.
    let inner = config.keep_routed(true);
    let scorer = Scorer::new(config, caches.as_ref());

    let mut adopted: Vec<Option<Adopted>> = (0..jobs.len()).map(|_| None).collect();
    let mut epochs = Vec::with_capacity(n_epochs);
    let mut threads = config.effective_threads();

    for epoch in 0..n_epochs {
        // Decide per job. Epoch 0 is always fresh; later epochs compare
        // the cached route's survival under the new calibration with its
        // survival at adoption.
        let decisions: Vec<(EpochDecision, f64)> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                if epoch == 0 {
                    return (EpochDecision::Fresh, 0.0);
                }
                let cached = adopted[j].as_ref().expect("adopted at epoch 0");
                let now = job.timeline.snapshot(epoch).routed_survival(&cached.routed);
                let loss = (1.0 - now / cached.survival).max(0.0);
                let decision = match policy {
                    RetranspilePolicy::Never => EpochDecision::Kept,
                    RetranspilePolicy::Always => EpochDecision::Retranspiled,
                    RetranspilePolicy::Adaptive { max_fidelity_loss } => {
                        if loss > *max_fidelity_loss {
                            EpochDecision::Retranspiled
                        } else {
                            EpochDecision::Kept
                        }
                    }
                };
                (decision, loss)
            })
            .collect();

        // Re-transpile the stale jobs as one engine sub-batch; the engine
        // hands back each job's consolidated items with its report.
        let stale: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, (d, _))| *d != EpochDecision::Kept)
            .map(|(j, _)| j)
            .collect();
        let fresh: Vec<Mutex<Option<_>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        if !stale.is_empty() {
            let mut batch = Batch::with_shared(Arc::clone(&jobs[stale[0]].map));
            for &j in &stale {
                let job = &jobs[j];
                batch.push_calibrated(
                    job.name.clone(),
                    job.circuit.clone(),
                    Arc::clone(&job.map),
                    job.timeline.snapshot_shared(epoch),
                );
            }
            let sub = run_core(&batch, &inner, caches.as_ref(), &|i, report, items| {
                *fresh[stale[i]].lock().expect("report slot poisoned") = Some((report, items));
            })?;
            threads = sub.threads.max(threads);
            let mut sub = sub.trace;
            sub.shift(trace.end_ns());
            sub.prefix_counters(&format!("epoch{epoch}."));
            trace.merge(sub);
        }

        // Assemble the epoch: re-transpiled jobs adopt their fresh route
        // and report; kept jobs re-score their cached items under the new
        // calibration with the engine back half's own scorer (shared
        // caches included), carrying their adoption verdict forward.
        let mut epoch_jobs = Vec::with_capacity(jobs.len());
        for ((j, job), slot) in jobs.iter().enumerate().zip(fresh) {
            let (decision, predicted_loss) = decisions[j];
            let cal = job.timeline.snapshot(epoch);
            let report = match slot.into_inner().expect("report slot poisoned") {
                Some((mut report, items)) => {
                    let routed = report
                        .routed
                        .take()
                        .expect("fleet sub-batches keep routed circuits");
                    report.routed = config.keep_routed.then(|| routed.clone());
                    adopted[j] = Some(Adopted {
                        survival: cal.routed_survival(&routed),
                        routed,
                        depth: report.depth,
                        items,
                        swaps: report.result.swaps,
                        verification: report.verification.clone(),
                    });
                    report
                }
                None => {
                    let cached = adopted[j].as_ref().expect("adopted at epoch 0");
                    CircuitReport {
                        depth: cached.depth,
                        routed: config.keep_routed.then(|| cached.routed.clone()),
                        verification: cached.verification.clone(),
                        ..scorer.score(
                            &job.name,
                            &cached.items,
                            cached.swaps,
                            &job.map,
                            job.circuit.n_qubits(),
                            Some(cal),
                        )
                    }
                }
            };
            epoch_jobs.push(FleetJobReport {
                decision,
                predicted_loss,
                report,
            });
        }
        for (decision, counter) in [
            (EpochDecision::Fresh, "fresh"),
            (EpochDecision::Kept, "kept"),
            (EpochDecision::Retranspiled, "retranspiled"),
        ] {
            let n = decisions.iter().filter(|(d, _)| *d == decision).count();
            trace.set_counter(format!("fleet.epoch{epoch}.{counter}"), n as u64);
        }
        epochs.push(FleetEpochReport {
            epoch,
            jobs: epoch_jobs,
        });
    }

    if let Some((bcache, ocache)) = &caches {
        let b = bcache.stats();
        let o = ocache.stats();
        trace.set_counter("fleet.cache.hits", b.hits + o.hits);
        trace.set_counter("fleet.cache.misses", b.misses + o.misses);
    }

    Ok(FleetReport {
        epochs,
        threads,
        wall_clock: started.elapsed(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_batch;
    use paradrive_circuit::benchmarks;
    use paradrive_transpiler::calibration::drift::DriftSpec;
    use paradrive_transpiler::calibration::Calibration;
    use paradrive_transpiler::fidelity::FidelityModel;

    fn fleet_on(
        map: &Arc<CouplingMap>,
        timeline: &Arc<CalibrationTimeline>,
        circuits: Vec<(&str, Circuit)>,
    ) -> Vec<FleetJob> {
        circuits
            .into_iter()
            .map(|(name, circuit)| FleetJob {
                name: name.to_string(),
                circuit,
                map: Arc::clone(map),
                timeline: Arc::clone(timeline),
            })
            .collect()
    }

    fn reports_identical(a: &FleetReport, b: &FleetReport) {
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.jobs.len(), y.jobs.len());
            for (p, q) in x.jobs.iter().zip(&y.jobs) {
                assert_eq!(p.decision, q.decision);
                assert_eq!(p.predicted_loss.to_bits(), q.predicted_loss.to_bits());
                let (r, s) = (&p.report.result, &q.report.result);
                assert_eq!(r.name, s.name);
                assert_eq!(r.swaps, s.swaps);
                assert_eq!(
                    r.optimized_total_fidelity.to_bits(),
                    s.optimized_total_fidelity.to_bits()
                );
                assert_eq!(
                    r.optimized_duration.to_bits(),
                    s.optimized_duration.to_bits()
                );
                assert_eq!(p.report.depth, q.report.depth);
                assert_eq!(p.report.routed, q.report.routed);
                assert_eq!(p.report.verification, q.report.verification);
            }
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for policy in [
            RetranspilePolicy::Never,
            RetranspilePolicy::Always,
            RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.05,
            },
        ] {
            let parsed: RetranspilePolicy = policy.label().parse().unwrap();
            assert_eq!(parsed, policy);
        }
        for bad in ["", "sometimes", "adaptive", "adaptive-0.1", "adaptive1.5"] {
            assert!(bad.parse::<RetranspilePolicy>().is_err(), "{bad}");
        }
    }

    #[test]
    fn calm_fleet_keeps_everything_and_matches_the_static_batch_bitwise() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::uniform(&map, FidelityModel::paper());
        let timeline =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(3, 7)).unwrap());
        let jobs = fleet_on(
            &map,
            &timeline,
            vec![("ghz8", benchmarks::ghz(8)), ("ghz9", benchmarks::ghz(9))],
        );
        let config = EngineConfig::default()
            .routing_seeds(3)
            .threads(2)
            .keep_routed(true)
            .noise_aware(true);
        let fleet = run_fleet(
            &jobs,
            &config,
            &RetranspilePolicy::Adaptive {
                max_fidelity_loss: 0.01,
            },
        )
        .unwrap();
        assert_eq!(fleet.epochs.len(), 3);
        // Nothing drifts, so nothing re-transpiles: every route is reused.
        for epoch in &fleet.epochs[1..] {
            assert!(epoch.jobs.iter().all(|j| j.decision == EpochDecision::Kept));
        }
        assert!(fleet.epochs[0]
            .jobs
            .iter()
            .all(|j| j.decision == EpochDecision::Fresh));

        // The static reference: the same jobs through the plain engine.
        let mut batch = Batch::with_shared(Arc::clone(&map));
        for job in &jobs {
            batch.push_calibrated(
                job.name.clone(),
                job.circuit.clone(),
                Arc::clone(&map),
                timeline.snapshot_shared(0),
            );
        }
        let static_report = run_batch(&batch, &config).unwrap();
        for epoch in &fleet.epochs {
            for (fleet_job, static_job) in epoch.jobs.iter().zip(&static_report.circuits) {
                let (r, s) = (&fleet_job.report.result, &static_job.result);
                assert_eq!(r.swaps, s.swaps);
                assert_eq!(
                    r.optimized_total_fidelity.to_bits(),
                    s.optimized_total_fidelity.to_bits()
                );
                assert_eq!(r.baseline_duration.to_bits(), s.baseline_duration.to_bits());
                assert_eq!(fleet_job.report.routed, static_job.routed);
            }
        }
    }

    #[test]
    fn fleet_reports_are_thread_deterministic() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::spread(&map, FidelityModel::paper(), 0.2, 5).unwrap();
        let spec = DriftSpec::walk(3, 0.2, 1, 13);
        let timeline = Arc::new(CalibrationTimeline::generate(&cal, &map, &spec).unwrap());
        let jobs = fleet_on(
            &map,
            &timeline,
            vec![
                ("ghz8", benchmarks::ghz(8)),
                ("ghz9", benchmarks::ghz(9)),
                ("vqe8", benchmarks::vqe_linear(8, 2, 5)),
            ],
        );
        let base = EngineConfig::default()
            .routing_seeds(3)
            .keep_routed(true)
            .noise_aware(true);
        let policy = RetranspilePolicy::Adaptive {
            max_fidelity_loss: 0.02,
        };
        let one = run_fleet(&jobs, &base.threads(1), &policy).unwrap();
        let four = run_fleet(&jobs, &base.threads(4), &policy).unwrap();
        reports_identical(&one, &four);
        // Cache off agrees too: the cache only changes wall clock.
        let raw = run_fleet(&jobs, &base.threads(2).cache(false), &policy).unwrap();
        reports_identical(&one, &raw);
    }

    #[test]
    fn dropped_routes_keep_their_depth_at_every_epoch() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::spread(&map, FidelityModel::paper(), 0.2, 5).unwrap();
        let spec = DriftSpec::walk(3, 0.2, 1, 13);
        let timeline = Arc::new(CalibrationTimeline::generate(&cal, &map, &spec).unwrap());
        let jobs = fleet_on(
            &map,
            &timeline,
            vec![("ghz8", benchmarks::ghz(8)), ("qft5", benchmarks::qft(5))],
        );
        let base = EngineConfig::default().routing_seeds(2).threads(2);
        // `Never` re-scores kept routes; `Always` adopts fresh ones.
        for policy in [RetranspilePolicy::Never, RetranspilePolicy::Always] {
            let kept = run_fleet(&jobs, &base.keep_routed(true), &policy).unwrap();
            let dropped = run_fleet(&jobs, &base.keep_routed(false), &policy).unwrap();
            for (k, d) in kept.epochs.iter().zip(&dropped.epochs) {
                for (k, d) in k.jobs.iter().zip(&d.jobs) {
                    let routed = k.report.routed.as_ref().expect("keep_routed(true)");
                    assert_eq!(d.report.routed, None, "{}", policy.label());
                    assert_eq!(d.report.depth, routed.depth(), "{}", policy.label());
                    assert_eq!(k.report.depth, routed.depth(), "{}", policy.label());
                }
            }
        }
    }

    #[test]
    fn mismatched_timelines_are_a_fleet_error() {
        let map = Arc::new(CouplingMap::grid(3, 3));
        let cal = Calibration::uniform(&map, FidelityModel::paper());
        let three =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(3, 1)).unwrap());
        let two =
            Arc::new(CalibrationTimeline::generate(&cal, &map, &DriftSpec::calm(2, 1)).unwrap());
        let mut jobs = fleet_on(&map, &three, vec![("a", benchmarks::ghz(8))]);
        jobs.extend(fleet_on(&map, &two, vec![("b", benchmarks::ghz(9))]));
        let err =
            run_fleet(&jobs, &EngineConfig::default(), &RetranspilePolicy::Never).unwrap_err();
        assert!(matches!(err, EngineError::Fleet { .. }), "{err}");
    }

    #[test]
    fn empty_fleet_is_fine() {
        let fleet = run_fleet(&[], &EngineConfig::default(), &RetranspilePolicy::Never).unwrap();
        assert!(fleet.epochs.is_empty());
        assert!(fleet.trace.counters.is_empty());
    }
}
