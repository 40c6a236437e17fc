//! Smoke tests for the figure harness: every figure function runs end to
//! end at tiny scale and produces well-formed output.
//!
//! Figures 2, 3 and 5–7 and the three ablations are also pinned byte for
//! byte to golden CSVs under `tests/fixtures/`, so any change to a
//! randomizer's draw order, a bucket formula or a reconstruction shows up
//! here. Fig 4 is left out: its SR/PM variance rows moved by rounding
//! (below 1e-9 relative) when the mean estimators switched to exact
//! summation, after the fixtures were recorded.

use sw_ldp::experiments::ExperimentConfig;
use sw_ldp::experiments::{ablations, figures, Figure};

fn smoke() -> ExperimentConfig {
    ExperimentConfig::smoke()
}

/// Asserts `fig` renders exactly the golden CSV `golden`.
fn assert_golden(fig: &Figure, golden: &str) {
    assert_eq!(
        fig.render_csv(),
        golden,
        "{} no longer matches its golden CSV under tests/fixtures/",
        fig.id
    );
}

#[test]
fn fig1_smoke() {
    let fig = figures::fig1(&smoke()).unwrap();
    assert_eq!(fig.id, "fig1");
    assert!(!fig.charts.is_empty());
    let text = fig.render_text();
    assert!(text.contains("fig1"));
    let csv = fig.render_csv();
    assert!(csv.lines().count() > 10);
}

#[test]
fn fig2_smoke() {
    let fig = figures::fig2(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/fig2.csv"));
    assert_eq!(fig.charts.len(), 2); // one dataset x {W1, KS}
    for chart in &fig.charts {
        for series in &chart.series {
            for &y in &series.y {
                assert!(y.is_finite() && y >= 0.0, "{}: y={y}", series.label);
            }
        }
    }
}

#[test]
fn fig3_smoke() {
    let fig = figures::fig3(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/fig3.csv"));
    assert_eq!(fig.charts.len(), 2);
    // HH and HaarHRR must appear in the range-query panels.
    let labels: Vec<&str> = fig.charts[0]
        .series
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    assert!(labels.contains(&"HH"));
    assert!(labels.contains(&"HaarHRR"));
}

#[test]
fn fig4_smoke() {
    let fig = figures::fig4(&smoke()).unwrap();
    assert_eq!(fig.charts.len(), 3); // mean, variance, quantile
    let mean_panel = &fig.charts[0];
    let labels: Vec<&str> = mean_panel.series.iter().map(|s| s.label.as_str()).collect();
    assert!(labels.contains(&"SR"));
    assert!(labels.contains(&"PM"));
    // Quantile panel excludes SR/PM.
    let q_labels: Vec<&str> = fig.charts[2]
        .series
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    assert!(!q_labels.contains(&"SR"));
}

#[test]
fn fig5_smoke() {
    let fig = figures::fig5(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/fig5.csv"));
    assert_eq!(fig.charts.len(), 1);
    assert_eq!(fig.charts[0].series.len(), 6); // SW + 4 trapezoids + triangle
}

#[test]
fn fig6_smoke() {
    let fig = figures::fig6(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/fig6.csv"));
    assert_eq!(fig.charts.len(), 4); // eps in {1,2,3,4}
    assert!(fig.notes.iter().any(|n| n.contains("b_SW")));
}

#[test]
fn fig7_smoke() {
    let fig = figures::fig7(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/fig7.csv"));
    assert_eq!(fig.charts.len(), 1);
    assert_eq!(fig.charts[0].series.len(), 4); // 256..2048 buckets
}

#[test]
fn table2_lists_every_method_family() {
    let t = figures::table2();
    for needle in ["SW with EMS/EM", "HH-ADMM", "CFO binning", "HaarHRR", "PM"] {
        assert!(t.contains(needle), "missing {needle}");
    }
}

#[test]
fn ablation_em_threshold_matches_golden() {
    let fig = ablations::ablation_em_threshold(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/ablation_em_threshold.csv"));
}

#[test]
fn ablation_reconstruction_matches_golden() {
    let fig = ablations::ablation_reconstruction(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/ablation_reconstruction.csv"));
}

#[test]
fn ablation_smoothing_matches_golden() {
    let fig = ablations::ablation_smoothing(&smoke()).unwrap();
    assert_golden(&fig, include_str!("fixtures/ablation_smoothing.csv"));
}
