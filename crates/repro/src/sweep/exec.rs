//! Shard execution: drives the planned grid through the streaming engine,
//! folding each cell into the mergeable rollups as it lands.
//!
//! This is the layer that makes the sweep's memory footprint
//! O(in-flight) instead of O(grid): [`run_sweep_shard`] hands the engine
//! a [`paradrive_engine::JobSink`] that converts every
//! [`paradrive_engine::CircuitReport`] into a compact [`SweepCell`]
//! (dropping the routed circuit after reading its depth), absorbs it
//! into the run's [`RunRollup`], and optionally journals it — the full
//! report is never retained.
//!
//! Sharding rides on the deterministic cell identity from
//! [`super::cell`]: `--shards N --shard i` selects the cells whose
//! ordinal ≡ i (mod N), and [`merge_reports`] recombines any complete
//! set of shard reports into a [`SweepOutcome`] whose rendered report is
//! byte-identical to a single-process run — the rollups are exact
//! monoids, and the cell rows sort back into canonical ordinal order.

use super::cell::{costing_label, PlannedCell, SweepCell, SweepPlan};
use super::checkpoint::{Journal, JournalContents, Meta};
use super::rollup::{RunRollup, SweepRun};
use super::spec::{SweepError, SweepSpec};
use paradrive_engine::{
    run_batch_streaming, run_fleet, Batch, CircuitReport, Costing, EngineConfig, FleetJob,
    VerifyLevel,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How to slice and persist a sweep run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardOptions<'a> {
    /// Total shard count (`0`/`1` both mean unsharded).
    pub shards: usize,
    /// This process's shard index in `0..shards`.
    pub shard: usize,
    /// Append each completed cell to this journal file.
    pub journal: Option<&'a Path>,
    /// Restore completed cells from an existing journal at `journal`
    /// instead of truncating it, and skip re-running them.
    pub resume: bool,
}

/// Everything a sweep produced: per-cell rows plus per-run aggregates.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The spec fingerprint the cells belong to (see
    /// [`SweepPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Total shard count this outcome was produced under (1 for an
    /// unsharded or merged outcome).
    pub shards: usize,
    /// Which shard this outcome covers (0 for unsharded or merged).
    pub shard: usize,
    /// All cells in canonical ordinal order — for an unsharded run this
    /// is costing → verification → topology → calibration → seed →
    /// benchmark, exactly the legacy submission order.
    pub cells: Vec<SweepCell>,
    /// One entry per (costing, verification) engine run.
    pub runs: Vec<SweepRun>,
}

/// Runs the full cross-product described by `spec` — one streaming
/// engine batch per (costing, verification) pair.
///
/// # Errors
///
/// Returns [`SweepError`] for unknown axis values and propagates engine
/// failures (e.g. a benchmark wider than a topology).
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepOutcome, SweepError> {
    run_sweep_shard(spec, &ShardOptions::default())
}

/// Mutable state shared with the engine's worker threads through the
/// job sink: completed cells, the streaming rollup, and the journal.
/// The sink cannot return errors, so journal failures park here and
/// surface once the batch drains.
struct SinkState<'a> {
    /// Completed cells with their job index, in completion order.
    cells: Vec<(usize, SweepCell)>,
    rollup: RunRollup,
    journal: Option<&'a mut Journal>,
    journal_err: Option<SweepError>,
}

/// Runs one shard of the cross-product (see [`ShardOptions`]); with the
/// default options this is the whole grid.
///
/// # Errors
///
/// Everything [`run_sweep`] returns, plus shard/journal problems:
/// [`SweepError::ShardOutOfRange`], journal I/O errors, and
/// [`SweepError::SpecMismatch`] when `--resume` finds a journal written
/// by a different spec or shard.
pub fn run_sweep_shard(
    spec: &SweepSpec,
    opts: &ShardOptions<'_>,
) -> Result<SweepOutcome, SweepError> {
    let plan = SweepPlan::new(spec)?;
    let shards = opts.shards.max(1);
    if opts.shard >= shards {
        return Err(SweepError::ShardOutOfRange {
            shard: opts.shard,
            shards,
        });
    }
    let meta = Meta {
        fingerprint: plan.fingerprint(),
        shards,
        shard: opts.shard,
    };

    // Open the journal (restoring prior completions under --resume) and
    // validate every restored cell against the plan: the fingerprint
    // already matched, so a bad ordinal or digest means the file was
    // edited or the planner changed underneath it.
    let (mut journal, restored) = match opts.journal {
        Some(path) if opts.resume => {
            let (journal, cells) = Journal::resume(path, meta)?;
            (Some(journal), cells)
        }
        Some(path) => (Some(Journal::create(path, meta)?), Vec::new()),
        None => (None, Vec::new()),
    };
    let by_ordinal: HashMap<u64, &PlannedCell> =
        plan.cells().iter().map(|c| (c.id.ordinal, c)).collect();
    let mut restored_by_ordinal: HashMap<u64, SweepCell> = HashMap::new();
    for cell in restored {
        let journal_path = || {
            opts.journal
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        };
        let planned = by_ordinal
            .get(&cell.ordinal)
            .ok_or_else(|| SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell ordinal {} is outside the planned grid",
                    cell.ordinal
                ),
            })?;
        if planned.id.digest != cell.digest {
            return Err(SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell {} has digest {:016x}, plan expects {:016x}",
                    cell.ordinal, cell.digest, planned.id.digest
                ),
            });
        }
        if planned.id.shard(shards) != opts.shard {
            return Err(SweepError::SpecMismatch {
                path: journal_path(),
                reason: format!(
                    "journal cell {} belongs to shard {}, this run is shard {}",
                    cell.ordinal,
                    planned.id.shard(shards),
                    opts.shard
                ),
            });
        }
        restored_by_ordinal.insert(cell.ordinal, cell);
    }

    let shard_cells = plan.shard_cells(shards, opts.shard);
    let mut runs = Vec::with_capacity(plan.runs().len());
    let mut all_cells: Vec<SweepCell> = Vec::with_capacity(shard_cells.len());

    for (run_idx, &(costing, verify)) in plan.runs().iter().enumerate() {
        let mut rollup = RunRollup::new();
        // Restored cells fold in first; they are grid cells like any
        // other, just with no wall time and no fresh engine work.
        let mut pending: Vec<&PlannedCell> = Vec::new();
        for cell in shard_cells.iter().filter(|c| c.run == run_idx) {
            match restored_by_ordinal.remove(&cell.id.ordinal) {
                Some(done) => {
                    rollup.absorb(&done);
                    all_cells.push(done);
                }
                None => pending.push(cell),
            }
        }

        if pending.is_empty() {
            // Fully restored (or an empty shard slice): no engine run.
            runs.push(SweepRun::new(costing, verify, &rollup));
            continue;
        }

        let config = EngineConfig::default()
            .threads(spec.threads)
            .routing_seeds(spec.routing_seeds)
            .cache(spec.cache)
            .costing(costing)
            .noise_aware(spec.noise_aware)
            .verify(verify);

        if plan.drift().is_some() {
            // Drift path: one fleet replay per run. Each distinct
            // (topology, calibration, seed, benchmark) tuple with at
            // least one pending cell becomes a fleet job; the whole
            // timeline re-runs — a fleet replay is a pure function of
            // the spec — and only owned, non-restored cells are
            // emitted, so shard/merge/resume stay byte-identical to an
            // unsharded run.
            let key_of = |c: &PlannedCell| (c.topology, c.calibration, c.suite_seed, c.benchmark);
            let mut reps: Vec<&PlannedCell> = Vec::new();
            for cell in &pending {
                if !reps.iter().any(|r| key_of(r) == key_of(cell)) {
                    reps.push(cell);
                }
            }
            let jobs: Vec<FleetJob> = reps
                .iter()
                .map(|cell| {
                    let (name, circuit) = plan.benchmark(cell);
                    FleetJob {
                        name: format!("{}@{}", name, plan.suite_seed(cell)),
                        circuit: circuit.clone(),
                        map: Arc::clone(plan.map(cell)),
                        timeline: Arc::clone(
                            plan.timeline(cell).expect("drift sweeps plan timelines"),
                        ),
                    }
                })
                .collect();
            let fleet = run_fleet(&jobs, &config, &plan.spec().policy)?;
            for planned in &pending {
                let job = reps
                    .iter()
                    .position(|r| key_of(r) == key_of(planned))
                    .expect("every pending cell keys a fleet job");
                let outcome = &fleet.epochs[planned.epoch].jobs[job];
                let cell = sweep_cell(
                    &plan,
                    planned,
                    (costing, verify),
                    &outcome.report,
                    outcome.decision.label(),
                );
                rollup.absorb(&cell);
                if let Some(journal) = journal.as_mut() {
                    journal.append(&cell)?;
                }
                all_cells.push(cell);
            }
            runs.push(SweepRun {
                threads: fleet.threads,
                wall_clock: fleet.wall_clock,
                trace: fleet.trace,
                ..SweepRun::new(costing, verify, &rollup)
            });
            continue;
        }

        // One heterogeneous batch per run, in ordinal order, sharing each
        // topology's distance matrix and calibration table across cells.
        let mut batch = Batch::with_shared(Arc::clone(plan.map(pending[0])));
        for cell in &pending {
            let (name, circuit) = plan.benchmark(cell);
            batch.push_calibrated(
                name.clone(),
                circuit.clone(),
                Arc::clone(plan.map(cell)),
                Arc::clone(plan.calibration(cell)),
            );
        }

        let state = Mutex::new(SinkState {
            cells: Vec::with_capacity(pending.len()),
            rollup,
            journal: journal.as_mut(),
            journal_err: None,
        });
        let sink = |job: usize, report: CircuitReport| {
            let cell = sweep_cell(&plan, pending[job], (costing, verify), &report, "-");
            let mut state = state.lock().unwrap();
            state.rollup.absorb(&cell);
            if state.journal_err.is_none() {
                if let Some(journal) = state.journal.as_mut() {
                    if let Err(e) = journal.append(&cell) {
                        state.journal_err = Some(e);
                    }
                }
            }
            state.cells.push((job, cell));
        };
        let report = run_batch_streaming(&batch, &config, &sink)?;
        let SinkState {
            mut cells,
            rollup,
            journal_err,
            ..
        } = state.into_inner().unwrap();
        if let Some(e) = journal_err {
            return Err(e);
        }

        // Rebuild per-cell wall time (route + pipeline) from the trace,
        // which keys every span by job index.
        let mut wall_ns = vec![0u64; pending.len()];
        for s in &report.trace.spans {
            if let Some(ns) = wall_ns.get_mut(s.key as usize) {
                *ns += s.dur_ns;
            }
        }
        for (job, cell) in &mut cells {
            cell.wall = Duration::from_nanos(wall_ns[*job]);
        }

        // Relabel engine spans (keyed by job index) with the cell's
        // deterministic label, so a trace opened in Perfetto names cells
        // the same way the timing report does. Route spans keep their
        // per-seed `#N` suffix.
        let cache = report.cache_stats();
        let mut trace = report.trace;
        for s in &mut trace.spans {
            if let Some(planned) = pending.get(s.key as usize) {
                let (name, _) = plan.benchmark(planned);
                let cell = format!(
                    "{}/{}/{}@{}",
                    plan.map(planned).label(),
                    plan.calibration(planned).label(),
                    name,
                    plan.suite_seed(planned)
                );
                s.label = match s.label.rsplit_once('#') {
                    Some((_, seed)) if s.name == "route" => format!("{cell}#{seed}"),
                    _ => cell,
                };
            }
        }

        all_cells.extend(cells.into_iter().map(|(_, cell)| cell));
        runs.push(SweepRun {
            threads: report.threads,
            wall_clock: report.wall_clock,
            cache,
            trace,
            ..SweepRun::new(costing, verify, &rollup)
        });
    }

    if let Some(journal) = journal.as_mut() {
        journal.finish(shard_cells.len())?;
    }
    all_cells.sort_by_key(|c| c.ordinal);
    Ok(SweepOutcome {
        fingerprint: plan.fingerprint(),
        shards,
        shard: opts.shard,
        cells: all_cells,
        runs,
    })
}

/// One grid cell's row from the engine report that produced it. Static
/// cells carry decision `"-"`; fleet cells carry their epoch decision.
fn sweep_cell(
    plan: &SweepPlan,
    planned: &PlannedCell,
    (costing, verify): (Costing, VerifyLevel),
    report: &CircuitReport,
    decision: &'static str,
) -> SweepCell {
    let r = &report.result;
    SweepCell {
        ordinal: planned.id.ordinal,
        digest: planned.id.digest,
        topology: report.topology.clone(),
        calibration: report.calibration.clone(),
        // Fleet job names carry an `@seed` suffix for trace readability;
        // the cell keeps the bare benchmark name so rows match the static
        // sweep.
        benchmark: plan.benchmark(planned).0.clone(),
        costing: costing_label(costing),
        verify: verify.label(),
        verification: report.verification.clone(),
        suite_seed: plan.suite_seed(planned),
        epoch: planned.epoch,
        decision,
        swaps: r.swaps,
        depth: report.depth,
        blocks: r.blocks,
        baseline_duration: r.baseline_duration,
        optimized_duration: r.optimized_duration,
        reduction_pct: r.duration_reduction_pct,
        ft_improvement_pct: r.ft_improvement_pct,
        optimized_ft: r.optimized_total_fidelity,
        // Static cells patch this from the trace after the batch drains
        // (the streaming engine does not time jobs inline); fleet spans
        // are keyed per epoch sub-batch, not per grid cell, so fleet cells
        // keep zero and the deterministic report stays replay-stable.
        wall: Duration::ZERO,
    }
}

/// Recombines shard reports (or completed journals) into the outcome a
/// single-process run of `spec` would have produced: validates that
/// every input carries the spec's fingerprint and a consistent shard
/// count, that the union of cells covers the planned grid exactly once
/// with matching digests, then refolds the rollups through the same
/// exact monoids the live runs used — so [`SweepOutcome::render`] is
/// byte-identical to the unsharded run.
///
/// The merged outcome carries no wall-clock state (threads 0, empty
/// traces): timings are per-process diagnostics, and the shard traces
/// are spliced separately via [`super::splice_shard_traces`].
///
/// # Errors
///
/// [`SweepError::SpecMismatch`] for foreign fingerprints, inconsistent
/// shard counts or digest conflicts; [`SweepError::Coverage`] when cells
/// are missing (an incomplete journal) or duplicated.
pub fn merge_reports(
    spec: &SweepSpec,
    reports: Vec<(String, JournalContents)>,
) -> Result<SweepOutcome, SweepError> {
    let plan = SweepPlan::new(spec)?;
    let mut shards: Option<usize> = None;
    let mut by_ordinal: HashMap<u64, SweepCell> = HashMap::new();
    for (path, contents) in reports {
        if contents.meta.fingerprint != plan.fingerprint() {
            return Err(SweepError::SpecMismatch {
                path,
                reason: format!(
                    "report fingerprint {:016x} does not match this spec ({:016x})",
                    contents.meta.fingerprint,
                    plan.fingerprint()
                ),
            });
        }
        match shards {
            None => shards = Some(contents.meta.shards),
            Some(n) if n != contents.meta.shards => {
                return Err(SweepError::SpecMismatch {
                    path,
                    reason: format!(
                        "report was produced with --shards {}, earlier inputs used --shards {n}",
                        contents.meta.shards
                    ),
                });
            }
            Some(_) => {}
        }
        for cell in contents.cells {
            if let Some(prior) = by_ordinal.get(&cell.ordinal) {
                if prior.digest != cell.digest {
                    return Err(SweepError::SpecMismatch {
                        path,
                        reason: format!(
                            "cell {} appears with conflicting digests {:016x} and {:016x}",
                            cell.ordinal, prior.digest, cell.digest
                        ),
                    });
                }
                return Err(SweepError::Coverage(format!(
                    "cell {} (digest {:016x}) appears in more than one report; \
                     each grid cell must be covered exactly once",
                    cell.ordinal, cell.digest
                )));
            }
            by_ordinal.insert(cell.ordinal, cell);
        }
    }

    // Coverage: the union must be exactly the planned grid.
    let mut missing: Vec<u64> = Vec::new();
    for planned in plan.cells() {
        match by_ordinal.get(&planned.id.ordinal) {
            None => missing.push(planned.id.ordinal),
            Some(cell) if cell.digest != planned.id.digest => {
                return Err(SweepError::SpecMismatch {
                    path: "merged inputs".to_string(),
                    reason: format!(
                        "cell {} has digest {:016x}, plan expects {:016x}",
                        cell.ordinal, cell.digest, planned.id.digest
                    ),
                });
            }
            Some(_) => {}
        }
    }
    if !missing.is_empty() {
        let shown: Vec<String> = missing.iter().take(8).map(|o| o.to_string()).collect();
        let suffix = if missing.len() > 8 { ", …" } else { "" };
        return Err(SweepError::Coverage(format!(
            "{} of {} planned cells missing from the merged reports \
             (ordinals {}{suffix}); run the missing shards or finish the interrupted one",
            missing.len(),
            plan.cells().len(),
            shown.join(", ")
        )));
    }
    if by_ordinal.len() > plan.cells().len() {
        let planned: std::collections::HashSet<u64> =
            plan.cells().iter().map(|c| c.id.ordinal).collect();
        let extra: Vec<String> = by_ordinal
            .keys()
            .filter(|o| !planned.contains(o))
            .take(8)
            .map(|o| o.to_string())
            .collect();
        return Err(SweepError::Coverage(format!(
            "reports contain cells outside the planned grid (ordinals {})",
            extra.join(", ")
        )));
    }

    // Refold through the same monoids the live runs used.
    let ordinal_to_run: HashMap<u64, usize> =
        plan.cells().iter().map(|c| (c.id.ordinal, c.run)).collect();
    let mut rollups: Vec<RunRollup> = vec![RunRollup::new(); plan.runs().len()];
    let mut cells: Vec<SweepCell> = by_ordinal.into_values().collect();
    cells.sort_by_key(|c| c.ordinal);
    for cell in &cells {
        rollups[ordinal_to_run[&cell.ordinal]].absorb(cell);
    }
    let runs = plan
        .runs()
        .iter()
        .zip(rollups)
        .map(|(&(costing, verify), rollup)| SweepRun::new(costing, verify, &rollup))
        .collect();
    Ok(SweepOutcome {
        fingerprint: plan.fingerprint(),
        shards: 1,
        shard: 0,
        cells,
        runs,
    })
}
