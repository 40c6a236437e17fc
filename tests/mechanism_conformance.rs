//! The unified-API conformance suite (the contract in `ldp-core`'s crate
//! docs), run against every mechanism family:
//!
//! (a) estimates obtained through streaming `Aggregator::push` equal the
//!     one-shot `Mechanism::aggregate` bit for bit;
//! (b) merging shard aggregators equals aggregating the concatenated
//!     report stream, bit for bit, at every split point tried;
//! (c) client randomization is deterministic under a fixed `SplitMix64`
//!     seed;
//! (d) the pool-sharded `Aggregator::push_slice_sharded` fan-out equals
//!     serial absorption — same raw state, same count, same estimate —
//!     for shard counts {1, 2, 7} (the CI matrix additionally varies the
//!     global pool size via `LDP_POOL_THREADS`).
//!
//! The grouped-absorb legs at the end pin the bulk `absorb_slice` of HH,
//! the adaptive GRR/OLH oracle and CFO binning to their per-report
//! `absorb` loops, on valid and on malformed report streams.

use std::fmt::Debug;
use std::mem::discriminant;
use sw_ldp::cfo::olh::OlhReport;
use sw_ldp::cfo::select::AdaptiveReport;
use sw_ldp::cfo::{AdaptiveOracle, BinningEstimator, Grr, Hrr, Olh, OracleKind, Oue};
use sw_ldp::core_api::{Aggregator, Client, Mechanism};
use sw_ldp::hierarchy::{HhReport, HierarchicalHistogram};
use sw_ldp::mean::{Hybrid, Pm, Sr};
use sw_ldp::numeric::SplitMix64;
use sw_ldp::sw::SwMechanism;

/// Bitwise comparison that treats equal-bit NaNs as equal (no mechanism
/// emits NaN, so any NaN mismatch is a real failure).
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: entry {i} differs ({x} vs {y})"
        );
    }
}

/// Runs the full (a)/(b)/(c) contract for one mechanism configuration.
fn conformance<M, F>(label: &str, mechanism: M, inputs: &[M::Input], canon: F, seed: u64)
where
    M: Mechanism + Clone + Sync,
    M::Input: Sized,
    M::Report: Clone + PartialEq + std::fmt::Debug + Sync,
    M::State: Send,
    F: Fn(&M::Output) -> Vec<f64>,
{
    let client = Client::new(&mechanism);

    // (c) determinism: the same seed produces the same wire reports.
    let randomize_all = |seed: u64| -> Vec<M::Report> {
        let mut rng = SplitMix64::new(seed);
        inputs
            .iter()
            .map(|v| client.randomize(v, &mut rng).unwrap())
            .collect()
    };
    let reports = randomize_all(seed);
    assert_eq!(
        reports,
        randomize_all(seed),
        "{label}: randomization must be deterministic under a fixed seed"
    );

    // (a) streaming == one-shot, bit for bit.
    let one_shot = canon(&mechanism.aggregate(&reports).unwrap());
    let mut streaming = Aggregator::new(mechanism.clone());
    for r in &reports {
        streaming.push(r).unwrap();
    }
    assert_eq!(streaming.count(), reports.len() as u64, "{label}: count");
    assert_bits_eq(
        &canon(&streaming.finalize().unwrap()),
        &one_shot,
        &format!("{label}: streaming vs one-shot"),
    );

    // (b) merge of two shards == aggregation of the concatenation, for a
    // spread of split points including the degenerate ones.
    let n = reports.len();
    for split in [0, 1, n / 3, n / 2, n - 1, n] {
        let mut left = Aggregator::new(mechanism.clone());
        left.push_slice(&reports[..split]).unwrap();
        let mut right = Aggregator::new(mechanism.clone());
        right.push_slice(&reports[split..]).unwrap();
        left.merge(&right).unwrap();
        assert_eq!(left.count(), n as u64);
        assert_bits_eq(
            &canon(&left.finalize().unwrap()),
            &one_shot,
            &format!("{label}: merge at split {split}"),
        );
    }

    // (d) the pooled fan-out equals serial absorption: identical count,
    // bit-identical estimate, for every shard count. (ExactSum-backed
    // states guarantee a bit-identical *rendered* total across shardings,
    // not an identical internal expansion layout — the same contract the
    // merge legs above pin.)
    for shards in [1usize, 2, 7] {
        let mut pooled = Aggregator::new(mechanism.clone());
        pooled.push_slice_sharded(&reports, shards).unwrap();
        assert_eq!(pooled.count(), streaming.count(), "{label}: pooled count");
        assert_bits_eq(
            &canon(&pooled.finalize().unwrap()),
            &one_shot,
            &format!("{label}: pooled fan-out over {shards} shards"),
        );
    }

    // And a three-way merge in shuffled order, since production shards
    // arrive in no particular order.
    let (a, rest) = reports.split_at(n / 4);
    let (b, c) = rest.split_at(n / 3);
    let mut mid = Aggregator::new(mechanism.clone());
    mid.push_slice(b).unwrap();
    let mut tail = Aggregator::new(mechanism.clone());
    tail.push_slice(c).unwrap();
    let mut head = Aggregator::new(mechanism.clone());
    head.push_slice(a).unwrap();
    tail.merge(&head).unwrap();
    tail.merge(&mid).unwrap();
    assert_bits_eq(
        &canon(&tail.finalize().unwrap()),
        &one_shot,
        &format!("{label}: out-of-order three-way merge"),
    );
}

fn unit_values(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 173) as f64 / 173.0).collect()
}

fn signed_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 29) % 201) as f64 / 100.0 - 1.0)
        .collect()
}

fn categorical_values(n: usize, d: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7) % d).collect()
}

#[test]
fn sw_conforms() {
    conformance(
        "SW-EMS",
        SwMechanism::ems(1.0, 32).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        101,
    );
    conformance(
        "SW-EM",
        SwMechanism::em(1.0, 32).unwrap(),
        &unit_values(3_000),
        |h| h.probs().to_vec(),
        102,
    );
}

#[test]
fn grr_conforms() {
    conformance(
        "GRR",
        Grr::new(16, 1.0).unwrap(),
        &categorical_values(3_000, 16),
        Clone::clone,
        103,
    );
}

#[test]
fn olh_conforms() {
    conformance(
        "OLH",
        Olh::new(32, 1.0).unwrap(),
        &categorical_values(3_000, 32),
        Clone::clone,
        104,
    );
}

#[test]
fn oue_conforms() {
    conformance(
        "OUE",
        Oue::new(24, 1.0).unwrap(),
        &categorical_values(3_000, 24),
        Clone::clone,
        105,
    );
}

#[test]
fn hadamard_conforms() {
    conformance(
        "Hadamard-RR",
        Hrr::new(20, 1.0).unwrap(),
        &categorical_values(3_000, 20),
        Clone::clone,
        106,
    );
}

#[test]
fn pm_conforms() {
    // Continuous reports: the case exact summation exists for.
    conformance(
        "PM",
        Pm::new(1.0).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        107,
    );
}

#[test]
fn sr_conforms() {
    conformance(
        "SR",
        Sr::new(0.8).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        108,
    );
}

#[test]
fn hybrid_conforms() {
    conformance(
        "Hybrid",
        Hybrid::new(2.0).unwrap(),
        &signed_values(3_000),
        |mean| vec![*mean],
        109,
    );
    // Below ε* the PM arm is off; the SR-only regime must also conform.
    conformance(
        "Hybrid-low-eps",
        Hybrid::new(0.4).unwrap(),
        &signed_values(2_000),
        |mean| vec![*mean],
        110,
    );
}

/// Shards built for different configurations must refuse to merge, for
/// every mechanism family.
#[test]
fn cross_configuration_merges_are_rejected() {
    fn rejects<M: Mechanism + Clone>(a: M, b: M) {
        let mut left: Aggregator<M> = Aggregator::new(a);
        let right: Aggregator<M> = Aggregator::new(b);
        assert!(left.merge(&right).is_err());
    }
    rejects(
        SwMechanism::ems(1.0, 32).unwrap(),
        SwMechanism::ems(2.0, 32).unwrap(),
    );
    rejects(Grr::new(8, 1.0).unwrap(), Grr::new(8, 2.0).unwrap());
    rejects(Olh::new(8, 1.0).unwrap(), Olh::new(16, 1.0).unwrap());
    rejects(Oue::new(8, 1.0).unwrap(), Oue::new(8, 2.0).unwrap());
    rejects(Hrr::new(8, 1.0).unwrap(), Hrr::new(16, 1.0).unwrap());
    rejects(Pm::new(1.0).unwrap(), Pm::new(2.0).unwrap());
    rejects(Sr::new(1.0).unwrap(), Sr::new(2.0).unwrap());
    rejects(Hybrid::new(1.0).unwrap(), Hybrid::new(2.0).unwrap());
}

// ---------------------------------------------------------------------------
// Grouped absorb: HH, the adaptive oracle and binning
// ---------------------------------------------------------------------------

fn reports_for<M: Mechanism>(mechanism: &M, inputs: &[M::Input], seed: u64) -> Vec<M::Report>
where
    M::Input: Sized,
{
    let client = Client::new(mechanism);
    let mut rng = SplitMix64::new(seed);
    inputs
        .iter()
        .map(|v| client.randomize(v, &mut rng).unwrap())
        .collect()
}

/// `absorb_slice` equals the per-report `absorb` loop: the same raw state,
/// hence the same estimate bit for bit.
fn slice_equals_per_report<M>(label: &str, mechanism: &M, reports: &[M::Report])
where
    M: Mechanism,
    M::State: PartialEq + Debug,
{
    let mut per_report = mechanism.empty_state();
    for r in reports {
        mechanism.absorb(&mut per_report, r).unwrap();
    }
    let mut bulk = mechanism.empty_state();
    mechanism.absorb_slice(&mut bulk, reports).unwrap();
    assert_eq!(
        bulk, per_report,
        "{label}: absorb_slice vs per-report absorb"
    );
}

/// Plants each malformed report at the first, middle and last index of a
/// valid stream: `absorb_slice` must fail with the same `CoreError` kind
/// as the per-report loop, and a failed `Aggregator::push_slice` must
/// leave an already-fed aggregator unchanged.
fn malformed_reports_rejected_like_per_report<M>(
    label: &str,
    mechanism: &M,
    reports: &[M::Report],
    malformed: &[(&str, M::Report)],
) where
    M: Mechanism + Clone,
    M::Report: Clone,
    M::State: PartialEq + Debug,
{
    let n = reports.len();
    for (what, bad) in malformed {
        for at in [0, n / 2, n - 1] {
            let case = format!("{label}: {what} at index {at}");
            let mut corrupt = reports.to_vec();
            corrupt[at] = bad.clone();
            let mut state = mechanism.empty_state();
            let loop_err = corrupt
                .iter()
                .try_for_each(|r| mechanism.absorb(&mut state, r))
                .expect_err(&case);
            let slice_err = mechanism
                .absorb_slice(&mut mechanism.empty_state(), &corrupt)
                .expect_err(&case);
            assert_eq!(
                discriminant(&slice_err),
                discriminant(&loop_err),
                "{case}: {slice_err} vs {loop_err}"
            );

            let mut agg = Aggregator::new(mechanism.clone());
            agg.push_slice(reports).unwrap();
            let before = agg.state().clone();
            assert!(agg.push_slice(&corrupt).is_err(), "{case}");
            assert_eq!(agg.state(), &before, "{case}: push_slice mutated state");
            assert_eq!(agg.count(), n as u64, "{case}: push_slice moved count");
        }
    }
}

const OLH_REPORT: AdaptiveReport = AdaptiveReport::Olh(OlhReport { seed: 7, y: 0 });

/// HH shapes whose levels mix GRR and OLH: (branching, d, ε). At ε = 1
/// levels below 11 nodes use GRR and the rest OLH with g = 4 (mask
/// reduction); at ε = 3 the OLH levels hash into g = 21 (hardware `%`).
const HH_SHAPES: [(usize, usize, f64); 3] = [(4, 1024, 1.0), (2, 64, 1.0), (4, 256, 3.0)];

#[test]
fn hh_grouped_absorb_equals_per_report_absorb() {
    for (i, (branching, d, eps)) in HH_SHAPES.into_iter().enumerate() {
        let hh = HierarchicalHistogram::new(branching, d, eps).unwrap();
        let label = format!("HH b={branching} d={d} eps={eps}");
        let reports = reports_for(&hh, &categorical_values(3_000, d), 120 + i as u64);
        slice_equals_per_report(&label, &hh, &reports);
        // Every prefix length exercises a different per-level group mix.
        for n in [0, 1, 2, 5, 17] {
            slice_equals_per_report(&label, &hh, &reports[..n]);
        }
    }
}

#[test]
fn hh_grouped_absorb_rejects_like_per_report_absorb() {
    for (i, (branching, d, eps)) in HH_SHAPES.into_iter().enumerate() {
        let hh = HierarchicalHistogram::new(branching, d, eps).unwrap();
        let h = hh.shape().height() as u32;
        let at = |level: u32, report: AdaptiveReport| HhReport { level, report };
        let olh_out_of_range = AdaptiveReport::Olh(OlhReport {
            seed: 7,
            y: 1 << 20,
        });
        let malformed = [
            ("level 0", at(0, AdaptiveReport::Grr(0))),
            ("level h + 1", at(h + 1, OLH_REPORT)),
            ("GRR tag at an OLH level", at(h, AdaptiveReport::Grr(0))),
            ("OLH tag at a GRR level", at(1, OLH_REPORT)),
            ("OLH value outside the hash range", at(h, olh_out_of_range)),
        ];
        let reports = reports_for(&hh, &categorical_values(400, d), 130 + i as u64);
        malformed_reports_rejected_like_per_report(
            &format!("HH b={branching} d={d} eps={eps}"),
            &hh,
            &reports,
            &malformed,
        );
    }
}

#[test]
fn adaptive_and_binning_grouped_absorb_match_per_report_absorb() {
    for (d, kind) in [
        (64, OracleKind::Olh),
        (1024, OracleKind::Olh),
        (8, OracleKind::Grr),
    ] {
        let oracle = AdaptiveOracle::new(d, 1.0).unwrap();
        assert_eq!(oracle.kind(), kind);
        let label = format!("adaptive d={d} {kind:?}");
        let reports = reports_for(&oracle, &categorical_values(2_000, d), 140);
        slice_equals_per_report(&label, &oracle, &reports);
        let mismatch = match kind {
            OracleKind::Olh => AdaptiveReport::Grr(0),
            OracleKind::Grr => OLH_REPORT,
        };
        malformed_reports_rejected_like_per_report(
            &label,
            &oracle,
            &reports[..300],
            &[("protocol tag mismatch", mismatch)],
        );
    }
    for bins in [64, 8] {
        let binning = BinningEstimator::new(bins, 256, 1.0).unwrap();
        let label = format!("binning c={bins}");
        let reports = reports_for(&binning, &unit_values(2_000), 150);
        slice_equals_per_report(&label, &binning, &reports);
        let mismatch = match binning.oracle_kind() {
            OracleKind::Olh => AdaptiveReport::Grr(0),
            OracleKind::Grr => OLH_REPORT,
        };
        malformed_reports_rejected_like_per_report(
            &label,
            &binning,
            &reports[..300],
            &[("protocol tag mismatch", mismatch)],
        );
    }
}
