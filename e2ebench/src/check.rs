//! Work done once, after the timed runs: re-verifying every kept route
//! with an equivalence oracle, and (traced runs) replaying `synth-tail`'s
//! block synthesis class by class.

use crate::workloads::{synth_tail_map, Kind, Output, Prepared, RunOut};
use paradrive_circuit::Circuit;
use paradrive_core::rules::{
    is_cnot_family, is_identity, is_iswap_family, is_swap, SynthesizedParallelDrive,
};
use paradrive_engine::{run_fleet, EngineConfig, EpochDecision, FleetJob, VerifyLevel};
use paradrive_repro::sweep::{SweepPlan, SweepSpec};
use paradrive_transpiler::calibration::Calibration;
use paradrive_transpiler::consolidate::{consolidate, Item};
use paradrive_transpiler::routing::{route_with_oracle, NoiseOracle, RouterOptions};
use paradrive_transpiler::topology::CouplingMap;
use paradrive_transpiler::CostModel;
use paradrive_verify::{verify, Physical, Verification, VerifyConfig};
use paradrive_weyl::WeylKey;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Largest qubit support re-verified with the Monte-Carlo oracle; wider
/// routes (16-qubit circuits spread over a heavy-hex device, and the
/// 64-qubit circuits) use the MPS oracle, since a statevector of their
/// support would not fit in memory.
const MAX_SAMPLED_SUPPORT: usize = 20;
/// Random product inputs per Monte-Carlo re-check: a wrong route or a
/// wrong output permutation fails on any input, so two suffice.
const RECHECK_SAMPLES: u32 = 2;
/// Bond cap of the MPS re-check. Routes too entangled for it escalate
/// along the library's ladder, and are reported unverified when their
/// support is also beyond the statevector limit.
const RECHECK_MAX_BOND: usize = 8;

/// Outcome of the route re-verification.
#[derive(Default)]
pub struct RouteCheck {
    pub attempted: usize,
    pub failed: usize,
    pub sampled: usize,
    pub mps: usize,
    /// Routes whose layout was re-derived but that no oracle could check
    /// within the caps (`Verification::Skipped`).
    pub unverified: usize,
    pub problems: Vec<String>,
}

impl RouteCheck {
    fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Finds the routing seed that reproduces `routed` (reports keep the
    /// circuit, not its layout) and checks the route against the logical
    /// circuit under that seed's output permutation.
    fn check(
        &mut self,
        name: &str,
        logical: &Circuit,
        routed: &Circuit,
        map: &CouplingMap,
        calibration: Option<&Calibration>,
        seeds: u64,
    ) {
        let oracle = calibration.map(|c| NoiseOracle::new(map, c, RouterOptions::default()));
        let layout = (0..seeds).find_map(|seed| {
            route_with_oracle(
                logical,
                map,
                oracle.as_ref(),
                seed,
                RouterOptions::default(),
            )
            .ok()
            .filter(|r| r.circuit == *routed)
            .map(|r| r.layout)
        });
        let Some(layout) = layout else {
            return self.fail(format!("{name}: no routing seed reproduces the kept route"));
        };
        let mut touched = vec![false; routed.n_qubits()];
        for op in routed.ops() {
            for q in op.qubits() {
                touched[q] = true;
            }
        }
        let support = touched.iter().filter(|t| **t).count();
        let level = if support <= MAX_SAMPLED_SUPPORT {
            VerifyLevel::Sampled
        } else {
            VerifyLevel::Mps
        };
        let config = VerifyConfig::default()
            .level(level)
            .samples(RECHECK_SAMPLES)
            .max_bond(RECHECK_MAX_BOND);
        match verify(logical, &Physical::Circuit(routed), &layout, &config) {
            Ok(Verification::Skipped { .. }) => {
                self.attempted += 1;
                self.unverified += 1;
            }
            Ok(v) if !v.failed() => {
                self.attempted += 1;
                match v.method() {
                    "mps" => self.mps += 1,
                    _ => self.sampled += 1,
                }
            }
            Ok(v) => self.fail(format!("{name}: {v}")),
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }
}

/// The fleet jobs a drifted sweep runs, built as the sweep builds them
/// (one per distinct topology × calibration × suite seed × benchmark, in
/// plan order), and the job index of every planned cell.
fn fleet_jobs(plan: &SweepPlan) -> (Vec<FleetJob>, Vec<usize>) {
    let mut index = HashMap::new();
    let mut jobs = Vec::new();
    let cell_jobs = plan
        .cells()
        .iter()
        .map(|cell| {
            let key = (
                cell.topology,
                cell.calibration,
                cell.suite_seed,
                cell.benchmark,
            );
            *index.entry(key).or_insert_with(|| {
                let (name, circuit) = plan.benchmark(cell);
                jobs.push(FleetJob {
                    name: format!("{}@{}", name, plan.suite_seed(cell)),
                    circuit: circuit.clone(),
                    map: Arc::clone(plan.map(cell)),
                    timeline: Arc::clone(
                        plan.timeline(cell).expect("drifted plans have timelines"),
                    ),
                });
                jobs.len() - 1
            })
        })
        .collect();
    (jobs, cell_jobs)
}

fn fleet_config(spec: &SweepSpec) -> EngineConfig {
    EngineConfig::default()
        .threads(spec.threads)
        .routing_seeds(spec.routing_seeds)
        .noise_aware(spec.noise_aware)
        .keep_routed(true)
}

/// Re-verifies each kept route of the last run once.
///
/// `synth-tail`'s nine routes are cheap to check and are checked on every
/// invocation. `verify-fleet`'s verified sweeps check their own routes
/// (every verdict must pass); its drifted sweep drops routed circuits, so
/// the fleet is replayed directly through `run_fleet`: the replay's
/// per-cell results must match the sweep's bit for bit, every adopted
/// route must be reproduced by one of its routing seeds, and each is
/// checked by an oracle. That costs about a minute, so it runs only when
/// `full` (the traced invocation).
pub fn recheck_routes(p: &Prepared, last: &RunOut, full: bool) -> RouteCheck {
    let mut check = RouteCheck::default();
    match (p.kind, &last.output) {
        (Kind::SynthTail, Output::Engine(report)) => {
            let batch = p.batch.as_ref().expect("synth-tail batch");
            for (job, c) in report.circuits.iter().enumerate() {
                let logical = &batch.jobs()[job].circuit;
                match &c.routed {
                    Some(routed) => check.check(
                        &c.result.name,
                        logical,
                        routed,
                        synth_tail_map(p, job),
                        None,
                        p.config.routing_seeds,
                    ),
                    None => check.fail(format!("{}: route not kept", c.result.name)),
                }
            }
        }
        (Kind::VerifyFleet, Output::Sweeps { outcomes, .. }) if full => {
            let Some(i) = p.fleet_sweep() else {
                return check;
            };
            let spec = &p.sweeps[i];
            let plan = match SweepPlan::new(spec) {
                Ok(plan) => plan,
                Err(e) => {
                    check.fail(e.to_string());
                    return check;
                }
            };
            let (jobs, cell_jobs) = fleet_jobs(&plan);
            let fleet = match run_fleet(&jobs, &fleet_config(spec), &spec.policy) {
                Ok(f) => f,
                Err(e) => {
                    check.fail(e.to_string());
                    return check;
                }
            };
            // The replay must agree with the sweep's cells.
            let cells = plan.cells().iter().zip(&outcomes[i].cells).zip(cell_jobs);
            for ((planned, cell), job) in cells {
                let r = &fleet.epochs[planned.epoch].jobs[job];
                let x = &r.report.result;
                if cell.ordinal != planned.id.ordinal
                    || cell.decision != r.decision.label()
                    || cell.reduction_pct.to_bits() != x.duration_reduction_pct.to_bits()
                    || cell.optimized_ft.to_bits() != x.optimized_total_fidelity.to_bits()
                {
                    check.fail(format!(
                        "cell {} differs from its fleet replay",
                        cell.ordinal
                    ));
                } else {
                    check.attempted += 1;
                }
            }
            for epoch in &fleet.epochs {
                for (j, r) in epoch.jobs.iter().enumerate() {
                    if r.decision == EpochDecision::Kept {
                        continue;
                    }
                    let job = &jobs[j];
                    let Some(routed) = &r.report.routed else {
                        check.fail(format!("{}: route not kept", job.name));
                        continue;
                    };
                    check.check(
                        &format!("{}/epoch{}", job.name, epoch.epoch),
                        &job.circuit,
                        routed,
                        &job.map,
                        Some(job.timeline.snapshot(epoch.epoch)),
                        spec.routing_seeds,
                    );
                }
            }
        }
        _ => {}
    }
    check
}

/// Times `SynthesizedParallelDrive::cost` once per distinct general Weyl
/// class among the blocks of `synth-tail`'s kept routes — the synthesis
/// the engine runs inside its `schedule` span. Returns milliseconds per
/// class.
pub fn replay_synthesis(p: &Prepared, last: &RunOut) -> Vec<f64> {
    let Output::Engine(report) = &last.output else {
        return Vec::new();
    };
    let model = SynthesizedParallelDrive::new(p.config.d_1q);
    let mut seen = HashSet::new();
    let mut times = Vec::new();
    for c in &report.circuits {
        let Some(items) = c.routed.as_ref().and_then(|r| consolidate(r).ok()) else {
            continue;
        };
        for item in items {
            if let Item::Block { point, .. } = item {
                let general = !(is_identity(point)
                    || is_cnot_family(point)
                    || is_iswap_family(point)
                    || is_swap(point));
                if general && seen.insert(WeylKey::new(point)) {
                    let t = Instant::now();
                    std::hint::black_box(model.cost(point));
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
    }
    times
}
