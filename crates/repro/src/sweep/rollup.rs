//! Mergeable monoid summaries: streaming per-run rollups that are exact
//! and order-independent, so a sharded sweep merged from partial reports
//! renders byte-identically to a single-process run.
//!
//! The obstacle is floating-point addition: it is not associative, so a
//! mean accumulated in completion order (thread-dependent) or merged from
//! per-shard partial sums (shard-dependent) would wobble in the last
//! bits. [`ExactSum`] removes the problem at the root — it accumulates
//! `f64`s into a 2176-bit two's-complement fixed-point register wide
//! enough to hold any finite double exactly (2098 bits of value range
//! plus 78 bits of carry headroom), so addition *is* associative and
//! commutative, and the final [`ExactSum::to_f64`] performs the one and
//! only rounding (round-half-even, like IEEE itself).

use super::cell::{costing_label, SweepCell};
use paradrive_engine::{CacheStats, Costing, Trace, VerificationSummary, VerifyLevel};
use std::time::Duration;

/// Limb count: 2176 bits covers bit −1074 (the smallest subnormal) up to
/// bit 1023 (the largest finite double) with 78 bits of headroom, so at
/// least 2^77 additions cannot overflow into the sign bit.
const LIMBS: usize = 34;

/// An exact, order-independent `f64` accumulator.
///
/// `add` decomposes each finite double into an integer multiple of
/// 2^−1074 and adds it into a wide two's-complement register; `merge`
/// adds two registers limb-wise. Both are exact, so any association or
/// permutation of the same multiset of inputs produces bit-identical
/// state — the property the sharded sweep's mergeable rollups need.
/// Non-finite inputs are tallied separately and dominate the result the
/// same way a left-to-right IEEE sum would settle (any NaN, or both
/// infinities, is NaN; otherwise the surviving infinity wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [u64; LIMBS],
    nan: u64,
    pos_inf: u64,
    neg_inf: u64,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum {
            limbs: [0; LIMBS],
            nan: 0,
            pos_inf: 0,
            neg_inf: 0,
        }
    }
}

/// `dst += src` over the full register, with carry propagation.
fn add_limbs(dst: &mut [u64; LIMBS], src: &[u64; LIMBS]) {
    let mut carry = 0u64;
    for (d, s) in dst.iter_mut().zip(src) {
        let (sum, c1) = d.overflowing_add(*s);
        let (sum, c2) = sum.overflowing_add(carry);
        *d = sum;
        carry = (c1 as u64) + (c2 as u64);
    }
}

/// Two's-complement negation of the full register.
fn negate(limbs: &mut [u64; LIMBS]) {
    let mut carry = 1u64;
    for l in limbs.iter_mut() {
        let (v, c) = (!*l).overflowing_add(carry);
        *l = v;
        carry = c as u64;
    }
}

impl ExactSum {
    /// A zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value, exactly.
    pub fn add(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        if x.is_infinite() {
            if x > 0.0 {
                self.pos_inf += 1;
            } else {
                self.neg_inf += 1;
            }
            return;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1u64 << 52) - 1);
        // value = mag × 2^(shift − 1074): subnormals sit at shift 0, and a
        // normal with exponent field e has shift e − 1.
        let (mag, shift) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | (1u64 << 52), exp - 1)
        };
        if mag == 0 {
            return; // ±0.0 adds nothing (matching IEEE sum-from-zero).
        }
        let mut delta = [0u64; LIMBS];
        let idx = (shift / 64) as usize;
        let off = shift % 64;
        let wide = (mag as u128) << off;
        delta[idx] = wide as u64;
        if off > 0 {
            delta[idx + 1] = (wide >> 64) as u64;
        }
        if bits >> 63 == 1 {
            negate(&mut delta);
        }
        add_limbs(&mut self.limbs, &delta);
    }

    /// Folds another accumulator in — the monoid operation. Exact, so
    /// associative and commutative.
    pub fn merge(&mut self, other: &ExactSum) {
        add_limbs(&mut self.limbs, &other.limbs);
        self.nan += other.nan;
        self.pos_inf += other.pos_inf;
        self.neg_inf += other.neg_inf;
    }

    /// The sum, rounded once to the nearest double (ties to even) — the
    /// only rounding in the whole accumulation.
    pub fn to_f64(&self) -> f64 {
        if self.nan > 0 || (self.pos_inf > 0 && self.neg_inf > 0) {
            return f64::NAN;
        }
        if self.pos_inf > 0 {
            return f64::INFINITY;
        }
        if self.neg_inf > 0 {
            return f64::NEG_INFINITY;
        }
        let negative = self.limbs[LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            negate(&mut mag);
        }
        let sign = if negative { 1u64 << 63 } else { 0 };
        // Highest set bit, as a 2^(h − 1074) weight.
        let h = match mag.iter().rposition(|&l| l != 0) {
            None => return 0.0,
            Some(i) => i * 64 + 63 - mag[i].leading_zeros() as usize,
        };
        if h <= 52 {
            // mag < 2^53 in units of 2^−1074 — exactly the subnormal (or
            // smallest-normal) bit layout, so the bits *are* the value.
            return f64::from_bits(sign | mag[0]);
        }
        // Take the top 53 bits and round half-even on what falls off.
        let k = h - 52;
        let idx = k / 64;
        let off = k % 64;
        let lo = mag[idx] as u128;
        let hi = if idx + 1 < LIMBS {
            mag[idx + 1] as u128
        } else {
            0
        };
        let mut m53 = (((hi << 64) | lo) >> off) as u64 & ((1u64 << 53) - 1);
        let round = mag[(k - 1) / 64] >> ((k - 1) % 64) & 1 == 1;
        let sticky = {
            let below = k - 1; // bits strictly below the round bit
            mag[..below / 64].iter().any(|&l| l != 0)
                || (below % 64 > 0 && mag[below / 64] & ((1u64 << (below % 64)) - 1) != 0)
        };
        let mut k = k as u64;
        if round && (sticky || m53 & 1 == 1) {
            m53 += 1;
            if m53 == 1u64 << 53 {
                m53 >>= 1;
                k += 1;
            }
        }
        // value = m53 × 2^(k − 1074) with m53 ∈ [2^52, 2^53): a normal
        // double with biased exponent k + 1. Assemble the bits directly —
        // no float arithmetic, no double rounding.
        let biased = k + 1;
        if biased >= 2047 {
            return f64::from_bits(sign | (0x7ff << 52)); // overflow → ±∞
        }
        f64::from_bits(sign | (biased << 52) | (m53 & ((1u64 << 52) - 1)))
    }
}

/// One rollup group keyed by an axis label — count, SWAP total and exact
/// mean accumulators, plus the smallest member ordinal so merged groups
/// reproduce the full grid's first-seen order.
#[derive(Debug, Clone)]
struct GroupAcc {
    key: String,
    first_ordinal: u64,
    circuits: usize,
    total_swaps: usize,
    reduction: ExactSum,
    optimized_ft: ExactSum,
}

impl GroupAcc {
    fn absorb(&mut self, cell: &SweepCell) {
        self.first_ordinal = self.first_ordinal.min(cell.ordinal);
        self.circuits += 1;
        self.total_swaps += cell.swaps;
        self.reduction.add(cell.reduction_pct);
        self.optimized_ft.add(cell.optimized_ft);
    }

    fn merge(&mut self, other: &GroupAcc) {
        self.first_ordinal = self.first_ordinal.min(other.first_ordinal);
        self.circuits += other.circuits;
        self.total_swaps += other.total_swaps;
        self.reduction.merge(&other.reduction);
        self.optimized_ft.merge(&other.optimized_ft);
    }
}

fn absorb_into(groups: &mut Vec<GroupAcc>, key: &str, cell: &SweepCell) {
    match groups.iter_mut().find(|g| g.key == key) {
        Some(g) => g.absorb(cell),
        None => {
            let mut g = GroupAcc {
                key: key.to_string(),
                first_ordinal: u64::MAX,
                circuits: 0,
                total_swaps: 0,
                reduction: ExactSum::new(),
                optimized_ft: ExactSum::new(),
            };
            g.absorb(cell);
            groups.push(g);
        }
    }
}

fn merge_groups(into: &mut Vec<GroupAcc>, from: &[GroupAcc]) {
    for g in from {
        match into.iter_mut().find(|h| h.key == g.key) {
            Some(h) => h.merge(g),
            None => into.push(g.clone()),
        }
    }
}

/// Fleet rollup monoid for one epoch: decision counts plus the exact
/// delivered-fidelity sum (all order-independent).
#[derive(Debug, Clone)]
struct EpochAcc {
    epoch: usize,
    cells: usize,
    fresh: usize,
    kept: usize,
    retrans: usize,
    delivered_ft: ExactSum,
}

impl EpochAcc {
    fn new(epoch: usize) -> Self {
        EpochAcc {
            epoch,
            cells: 0,
            fresh: 0,
            kept: 0,
            retrans: 0,
            delivered_ft: ExactSum::new(),
        }
    }
}

/// One epoch's row of a [`FleetSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEpochSummary {
    /// The epoch index (0 is the initial calibration).
    pub epoch: usize,
    /// Fleet cells at this epoch.
    pub cells: usize,
    /// Cells transpiled fresh (epoch 0).
    pub fresh: usize,
    /// Cells that kept their cached route.
    pub kept: usize,
    /// Cells the policy re-transpiled.
    pub retranspiled: usize,
    /// Mean delivered (optimized total) fidelity at this epoch.
    pub mean_delivered_ft: f64,
    /// Fraction of this epoch's cells that reused their cached route —
    /// the deterministic cache-hit-decay signal (0 at epoch 0).
    pub route_reuse_rate: f64,
}

/// The fleet rollup of one engine run: per-epoch decision mix and
/// delivered fidelity, plus the run-wide policy metrics. `None` on
/// static (driftless) runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Per-epoch rows in epoch order.
    pub epochs: Vec<FleetEpochSummary>,
    /// Mean delivered fidelity over every (cell, epoch) — the fleet's
    /// quality metric.
    pub mean_delivered_ft: f64,
    /// Total re-transpiles ordered after epoch 0 — the policy's cost.
    pub total_retranspiles: usize,
    /// Fraction of post-epoch-0 decisions that re-transpiled (`NaN` with
    /// fewer than two epochs).
    pub retranspile_rate: f64,
}

/// Aggregate outcome for every cell sharing one coupling topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySummary {
    /// Topology label (see `CouplingMap::label`).
    pub topology: String,
    /// Number of cells routed on this topology.
    pub circuits: usize,
    /// Total SWAPs inserted across those cells.
    pub total_swaps: usize,
    /// Mean duration reduction over those cells, percent.
    pub mean_reduction_pct: f64,
}

/// Aggregate outcome for every cell sharing one device calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSummary {
    /// Calibration label (see `Calibration::label`).
    pub calibration: String,
    /// Number of cells scored under this calibration.
    pub circuits: usize,
    /// Total SWAPs inserted across those cells.
    pub total_swaps: usize,
    /// Mean duration reduction over those cells, percent.
    pub mean_reduction_pct: f64,
    /// Mean optimized total fidelity `F_T` over those cells — the
    /// headline number noise-aware routing is judged on. The per-wire
    /// decay term uses the circuit's initial-layout wires (Eq. 11's
    /// convention, kept for bit-compatibility with the homogeneous
    /// model); routing quality enters through the duration and the
    /// per-edge gate-error survival product.
    pub mean_optimized_ft: f64,
}

/// The streaming rollup state for one (costing, verification) engine run
/// — a commutative monoid over [`SweepCell`]s: [`RunRollup::absorb`]
/// folds one cell in as it lands (any completion order), and
/// [`RunRollup::merge`] combines the partial rollups of different shards.
/// Both commute with each other, so every partition of the grid
/// finalizes to identical summaries.
#[derive(Debug, Clone, Default)]
pub struct RunRollup {
    by_topology: Vec<GroupAcc>,
    by_calibration: Vec<GroupAcc>,
    verification: VerificationSummary,
    fleet: Vec<EpochAcc>,
}

impl RunRollup {
    /// An empty rollup (the monoid identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed cell into the rollup.
    pub fn absorb(&mut self, cell: &SweepCell) {
        absorb_into(&mut self.by_topology, &cell.topology, cell);
        absorb_into(&mut self.by_calibration, &cell.calibration, cell);
        if let Some(v) = &cell.verification {
            self.verification.add(v);
        }
        if cell.decision != "-" {
            let acc = match self.fleet.iter_mut().find(|e| e.epoch == cell.epoch) {
                Some(acc) => acc,
                None => {
                    self.fleet.push(EpochAcc::new(cell.epoch));
                    self.fleet.last_mut().unwrap()
                }
            };
            acc.cells += 1;
            match cell.decision {
                "fresh" => acc.fresh += 1,
                "kept" => acc.kept += 1,
                "retrans" => acc.retrans += 1,
                _ => {}
            }
            acc.delivered_ft.add(cell.optimized_ft);
        }
    }

    /// Folds another shard's partial rollup in.
    pub fn merge(&mut self, other: &RunRollup) {
        merge_groups(&mut self.by_topology, &other.by_topology);
        merge_groups(&mut self.by_calibration, &other.by_calibration);
        self.verification.merge(&other.verification);
        for e in &other.fleet {
            match self.fleet.iter_mut().find(|m| m.epoch == e.epoch) {
                Some(m) => {
                    m.cells += e.cells;
                    m.fresh += e.fresh;
                    m.kept += e.kept;
                    m.retrans += e.retrans;
                    m.delivered_ft.merge(&e.delivered_ft);
                }
                None => self.fleet.push(e.clone()),
            }
        }
    }

    /// Per-topology summaries, ordered by each group's smallest cell
    /// ordinal — the full grid's first-seen submission order, however
    /// the cells were partitioned.
    pub fn by_topology(&self) -> Vec<TopologySummary> {
        let mut groups = self.by_topology.clone();
        groups.sort_by_key(|g| g.first_ordinal);
        groups
            .into_iter()
            .map(|g| TopologySummary {
                topology: g.key,
                circuits: g.circuits,
                total_swaps: g.total_swaps,
                mean_reduction_pct: g.reduction.to_f64() / g.circuits as f64,
            })
            .collect()
    }

    /// Per-calibration summaries, ordered like [`RunRollup::by_topology`].
    pub fn by_calibration(&self) -> Vec<CalibrationSummary> {
        let mut groups = self.by_calibration.clone();
        groups.sort_by_key(|g| g.first_ordinal);
        groups
            .into_iter()
            .map(|g| CalibrationSummary {
                calibration: g.key,
                circuits: g.circuits,
                total_swaps: g.total_swaps,
                mean_reduction_pct: g.reduction.to_f64() / g.circuits as f64,
                mean_optimized_ft: g.optimized_ft.to_f64() / g.circuits as f64,
            })
            .collect()
    }

    /// The run's fleet rollup, or `None` when no absorbed cell carried a
    /// fleet decision (a static, driftless run).
    pub fn fleet(&self) -> Option<FleetSummary> {
        if self.fleet.is_empty() {
            return None;
        }
        let mut accs = self.fleet.clone();
        accs.sort_by_key(|e| e.epoch);
        let mut total = ExactSum::new();
        let mut total_cells = 0usize;
        let mut total_retranspiles = 0usize;
        let mut late_decisions = 0usize;
        let epochs = accs
            .iter()
            .map(|e| {
                total.merge(&e.delivered_ft);
                total_cells += e.cells;
                if e.epoch > 0 {
                    total_retranspiles += e.retrans;
                    late_decisions += e.cells;
                }
                FleetEpochSummary {
                    epoch: e.epoch,
                    cells: e.cells,
                    fresh: e.fresh,
                    kept: e.kept,
                    retranspiled: e.retrans,
                    mean_delivered_ft: e.delivered_ft.to_f64() / e.cells as f64,
                    route_reuse_rate: e.kept as f64 / e.cells as f64,
                }
            })
            .collect();
        Some(FleetSummary {
            epochs,
            mean_delivered_ft: total.to_f64() / total_cells as f64,
            total_retranspiles,
            retranspile_rate: total_retranspiles as f64 / late_decisions as f64,
        })
    }

    /// The run-wide verification rollup, or `None` when no absorbed cell
    /// carried a verdict (verification off).
    pub fn verification(&self) -> Option<VerificationSummary> {
        (!self.verification.is_empty()).then(|| self.verification.clone())
    }
}

/// The aggregate outcome of one engine run (one costing discipline at one
/// verification level).
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Costing discipline label.
    pub costing: &'static str,
    /// Verification level label.
    pub verify: &'static str,
    /// Worker threads the run used (timing-only; zero when every cell of
    /// the run was restored from a journal and no engine run happened).
    pub threads: usize,
    /// Batch wall clock (timing-only).
    pub wall_clock: Duration,
    /// Combined decomposition-cache counters, if caching was on.
    /// Diagnostics-only: per-shard caches see different lookup subsets,
    /// so these counters are *not* shard-invariant and stay out of the
    /// deterministic render.
    pub cache: Option<CacheStats>,
    /// Per-topology rollups in grid order.
    pub by_topology: Vec<TopologySummary>,
    /// Per-calibration rollups in grid order.
    pub by_calibration: Vec<CalibrationSummary>,
    /// Batch-wide verification rollup (`None` with verification off).
    pub verification: Option<VerificationSummary>,
    /// Fleet rollup: per-epoch decision mix, delivered fidelity, and the
    /// policy's re-transpile cost (`None` on static runs).
    pub fleet: Option<FleetSummary>,
    /// The run's execution trace, with every span relabeled to its
    /// deterministic cell label (timing-only — see
    /// [`super::SweepOutcome::merged_trace`] for the whole-sweep export).
    pub trace: Trace,
}

impl SweepRun {
    /// A run's deterministic summaries, finalized from its rollup, with
    /// no timing state: zero threads and wall clock, no cache counters,
    /// an empty trace. Runs that did engine work fill those in.
    pub fn new(costing: Costing, verify: VerifyLevel, rollup: &RunRollup) -> Self {
        SweepRun {
            costing: costing_label(costing),
            verify: verify.label(),
            threads: 0,
            wall_clock: Duration::ZERO,
            cache: None,
            by_topology: rollup.by_topology(),
            by_calibration: rollup.by_calibration(),
            verification: rollup.verification(),
            fleet: rollup.fleet(),
            trace: Trace::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradrive_engine::Verification;

    fn sum_of(values: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// A tiny deterministic xorshift generator for test inputs — no RNG
    /// dependency, fully reproducible.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        /// A finite double with sign, wide exponent spread and full
        /// mantissa entropy — including subnormals.
        fn finite(&mut self) -> f64 {
            loop {
                let sign = self.next() & (1 << 63);
                let exp = self.next() % 700 + 700; // biased 700..1399
                let frac = self.next() & ((1 << 52) - 1);
                let x = f64::from_bits(sign | (exp << 52) | frac);
                if x.is_finite() {
                    return x;
                }
            }
        }
    }

    #[test]
    fn single_values_round_trip_bitwise() {
        let cases = [
            0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            std::f64::consts::PI,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,       // smallest normal
            f64::from_bits(1),       // smallest subnormal
            f64::from_bits(0xfffff), // a wider subnormal
            1e308,
            -1e-308,
            123_456_789.123_456_79,
        ];
        for x in cases {
            assert_eq!(
                sum_of(&[x]).to_f64().to_bits(),
                x.to_bits(),
                "{x:e} did not round-trip"
            );
        }
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive f64 summation loses the 1.0 entirely (1e16 + 1 == 1e16).
        assert_eq!(sum_of(&[1e16, 1.0, -1e16]).to_f64(), 1.0);
        assert_eq!(sum_of(&[1e308, 1e-308, -1e308]).to_f64(), 1e-308);
        // Exact integer arithmetic survives any magnitude mix.
        let mut s = ExactSum::new();
        for i in 1..=1000 {
            s.add(i as f64);
        }
        assert_eq!(s.to_f64(), 500_500.0);
    }

    #[test]
    fn final_rounding_is_half_even() {
        let big = 2f64.powi(53);
        // 2^53 + 1 is an exact tie between 2^53 and 2^53 + 2: even wins.
        assert_eq!(sum_of(&[big, 1.0]).to_f64(), big);
        // 2^53 + 3 ties between 2^53 + 2 (odd mantissa) and 2^53 + 4
        // (even mantissa): even wins again.
        assert_eq!(sum_of(&[big, 3.0]).to_f64(), big + 4.0);
        // Above the tie, round up; below it, round down.
        assert_eq!(sum_of(&[big, 1.5]).to_f64(), big + 2.0);
        assert_eq!(sum_of(&[big, 0.75]).to_f64(), big);
        // Rounding can carry into the next binade.
        let top = f64::from_bits((0x7fe << 52) | ((1 << 52) - 1)); // f64::MAX
        assert_eq!(sum_of(&[top, top]).to_f64(), f64::INFINITY);
    }

    #[test]
    fn permutation_and_partition_invariance() {
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        let mut values: Vec<f64> = (0..200).map(|_| rng.finite()).collect();
        // Force heavy cancellation into the mix.
        for i in 0..50 {
            let v = values[i];
            values.push(-v * 0.5);
        }
        let reference = sum_of(&values);
        let expected = reference.to_f64().to_bits();

        // Any permutation: reverse, and a deterministic shuffle.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(sum_of(&reversed), reference);
        let mut shuffled = values.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        assert_eq!(sum_of(&shuffled), reference);

        // Any partition + merge tree: split round-robin into k shards,
        // sum each, merge — bit-identical for every k (the sharded-sweep
        // property).
        for k in 1..=5 {
            let mut shards = vec![ExactSum::new(); k];
            for (i, &v) in values.iter().enumerate() {
                shards[i % k].add(v);
            }
            let mut merged = ExactSum::new();
            for s in &shards {
                merged.merge(s);
            }
            assert_eq!(merged, reference, "{k}-way partition diverged");
            assert_eq!(merged.to_f64().to_bits(), expected);
        }
    }

    #[test]
    fn non_finite_inputs_dominate_like_ieee() {
        assert!(sum_of(&[1.0, f64::NAN]).to_f64().is_nan());
        assert_eq!(sum_of(&[f64::INFINITY, 1.0]).to_f64(), f64::INFINITY);
        assert_eq!(
            sum_of(&[f64::NEG_INFINITY, 1e300]).to_f64(),
            f64::NEG_INFINITY
        );
        // Opposite infinities have no meaningful sum.
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY])
            .to_f64()
            .is_nan());
        // Specials survive merging too.
        let mut a = sum_of(&[1.0]);
        a.merge(&sum_of(&[f64::INFINITY]));
        assert_eq!(a.to_f64(), f64::INFINITY);
    }

    #[test]
    fn zero_and_negative_sums() {
        assert_eq!(sum_of(&[]).to_f64().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[5.0, -5.0]).to_f64().to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[-2.5, 1.0]).to_f64(), -1.5);
        assert_eq!(sum_of(&[-1e-320, -1e-320]).to_f64(), -2e-320);
    }

    fn cell(ordinal: u64, topology: &str, calibration: &str, reduction: f64) -> SweepCell {
        SweepCell {
            ordinal,
            digest: ordinal ^ 0xabcd,
            topology: topology.to_string(),
            calibration: calibration.to_string(),
            benchmark: "GHZ".to_string(),
            costing: "hull",
            verify: "off",
            verification: None,
            suite_seed: 7,
            epoch: 0,
            decision: "-",
            swaps: 2,
            depth: 10,
            blocks: 12,
            baseline_duration: 10.0,
            optimized_duration: 10.0 * (1.0 - reduction / 100.0),
            reduction_pct: reduction,
            ft_improvement_pct: 1.0,
            optimized_ft: 0.9,
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn rollup_groups_order_by_min_ordinal_and_merge_commutes() {
        let cells = [
            cell(0, "grid4x4", "uniform", 10.0),
            cell(1, "grid4x4", "hotspot2", 30.0),
            cell(2, "ring16", "uniform", 20.0),
            cell(3, "ring16", "hotspot2", 40.0),
        ];
        // Absorb everything in completion (not grid) order.
        let mut whole = RunRollup::new();
        for c in [&cells[3], &cells[0], &cells[2], &cells[1]] {
            whole.absorb(c);
        }
        let topo = whole.by_topology();
        assert_eq!(topo.len(), 2);
        assert_eq!(topo[0].topology, "grid4x4"); // min ordinal 0
        assert_eq!(topo[1].topology, "ring16");
        assert_eq!(topo[0].circuits, 2);
        assert_eq!(topo[0].total_swaps, 4);
        assert!((topo[0].mean_reduction_pct - 20.0).abs() < 1e-12);
        let cal = whole.by_calibration();
        assert_eq!(cal[0].calibration, "uniform");
        assert!((cal[1].mean_reduction_pct - 35.0).abs() < 1e-12);
        assert!((cal[0].mean_optimized_ft - 0.9).abs() < 1e-12);
        assert!(whole.verification().is_none());

        // A 2-way shard split (even/odd ordinals) merges to the same
        // summaries, whichever way the merge associates.
        let mut even = RunRollup::new();
        let mut odd = RunRollup::new();
        for c in &cells {
            if c.ordinal % 2 == 0 {
                even.absorb(c);
            } else {
                odd.absorb(c);
            }
        }
        for (a, b) in [(&even, &odd), (&odd, &even)] {
            let mut merged = a.clone();
            merged.merge(b);
            assert_eq!(merged.by_topology(), whole.by_topology());
            assert_eq!(merged.by_calibration(), whole.by_calibration());
        }
    }

    #[test]
    fn fleet_rollup_counts_decisions_and_merge_commutes() {
        // Static cells never create a fleet rollup.
        let mut plain = RunRollup::new();
        plain.absorb(&cell(0, "grid4x4", "uniform", 10.0));
        assert!(plain.fleet().is_none());

        // Two jobs × three epochs: fresh/fresh, kept/retrans, kept/kept.
        let mk = |ordinal: u64, epoch: usize, decision: &'static str, ft: f64| {
            let mut c = cell(ordinal, "grid4x4", "uniform", 10.0);
            c.epoch = epoch;
            c.decision = decision;
            c.optimized_ft = ft;
            c
        };
        let cells = [
            mk(0, 0, "fresh", 0.9),
            mk(1, 1, "kept", 0.8),
            mk(2, 2, "kept", 0.7),
            mk(3, 0, "fresh", 0.9),
            mk(4, 1, "retrans", 0.88),
            mk(5, 2, "kept", 0.86),
        ];
        let mut whole = RunRollup::new();
        for c in &cells {
            whole.absorb(c);
        }
        let fleet = whole.fleet().unwrap();
        assert_eq!(fleet.epochs.len(), 3);
        let e0 = &fleet.epochs[0];
        assert_eq!((e0.cells, e0.fresh, e0.kept, e0.retranspiled), (2, 2, 0, 0));
        assert_eq!(e0.route_reuse_rate, 0.0);
        let e1 = &fleet.epochs[1];
        assert_eq!((e1.kept, e1.retranspiled), (1, 1));
        assert!((e1.route_reuse_rate - 0.5).abs() < 1e-12);
        assert!((e1.mean_delivered_ft - 0.84).abs() < 1e-12);
        assert_eq!(fleet.epochs[2].route_reuse_rate, 1.0);
        assert_eq!(fleet.total_retranspiles, 1);
        assert!((fleet.retranspile_rate - 0.25).abs() < 1e-12);
        let grand_mean = (0.9 + 0.8 + 0.7 + 0.9 + 0.88 + 0.86) / 6.0;
        assert!((fleet.mean_delivered_ft - grand_mean).abs() < 1e-12);

        // Shard-split rollups merge to the identical summary, either way
        // the merge associates (epochs absorbed out of order on purpose).
        let mut even = RunRollup::new();
        let mut odd = RunRollup::new();
        for c in cells.iter().rev() {
            if c.ordinal % 2 == 0 {
                even.absorb(c);
            } else {
                odd.absorb(c);
            }
        }
        for (a, b) in [(&even, &odd), (&odd, &even)] {
            let mut merged = a.clone();
            merged.merge(b);
            assert_eq!(merged.fleet().unwrap(), fleet);
        }
    }

    #[test]
    fn rollup_verification_counts_and_min_fidelity() {
        let mut a = cell(0, "grid4x4", "uniform", 10.0);
        a.verification = Some(Verification::Exact {
            fidelity: 1.0,
            columns: 16,
            width: 4,
            passed: true,
        });
        let mut b = cell(1, "grid4x4", "uniform", 10.0);
        b.verification = Some(Verification::Sampled {
            min_fidelity: 0.5,
            samples: 4,
            width: 16,
            passed: false,
        });
        let mut left = RunRollup::new();
        left.absorb(&a);
        let mut right = RunRollup::new();
        right.absorb(&b);
        left.merge(&right);
        let v = left.verification().unwrap();
        assert_eq!((v.exact, v.sampled, v.failed), (1, 1, 1));
        assert!((v.min_fidelity - 0.5).abs() < 1e-12);
        assert!(!v.all_passed());
        // All-skipped rolls up with NaN fidelity.
        let mut c = cell(2, "ring16", "uniform", 5.0);
        c.verification = Some(Verification::Skipped {
            reason: "off".to_string(),
        });
        let mut only_skip = RunRollup::new();
        only_skip.absorb(&c);
        let v = only_skip.verification().unwrap();
        assert_eq!(v.skipped, 1);
        assert!(v.min_fidelity.is_nan());

        // All-skipped merged with verified, in both orders: the NaN of the
        // skipped side never wins the minimum.
        let mut verified = RunRollup::new();
        verified.absorb(&b);
        for (x, y) in [(&only_skip, &verified), (&verified, &only_skip)] {
            let mut merged = x.clone();
            merged.merge(y);
            let v = merged.verification().unwrap();
            assert_eq!((v.sampled, v.skipped, v.failed), (1, 1, 1));
            assert_eq!(v.min_fidelity, 0.5);
        }

        // The empty summary is the identity, on either side of a merge.
        let empty = VerificationSummary::new();
        assert!(empty.is_empty() && empty.min_fidelity.is_nan());
        let full = left.verification().unwrap();
        for (x, y) in [(&empty, &full), (&full, &empty)] {
            let mut merged = x.clone();
            merged.merge(y);
            assert_eq!(merged, full);
        }
        let mut skip_only = VerificationSummary::new();
        skip_only.merge(&only_skip.verification().unwrap());
        assert_eq!(skip_only.skipped, 1);
        assert!(skip_only.min_fidelity.is_nan());
        let mut none = RunRollup::new();
        none.merge(&RunRollup::new());
        assert!(none.verification().is_none());
    }
}
