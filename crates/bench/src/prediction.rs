//! §4: the Vmin and severity prediction studies (Figures 7–8, case 1).

use crate::scale::Scale;
use margins_core::config::{BenchmarkRef, CampaignConfig};
use margins_core::dataset::{
    severity_feature_names, severity_samples, to_matrix, vmin_feature_names, vmin_samples,
};
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::regions::analyze;
use margins_core::runner::{profile, Campaign};
use margins_core::severity::SeverityWeights;
use margins_predict::{r2_score, rmse, train_test_split, NaiveMean, RecursiveFeatureElimination};
use margins_sim::{ChipSpec, CoreId, Millivolts};
use margins_workloads::Dataset;
use std::fmt::Write as _;

/// Number of features RFE keeps (§4.2: "we eventually selected the 5 most
/// efficient and representative events").
const RFE_KEEP: usize = 5;
/// Features removed per RFE round (a throughput/accuracy compromise over
/// scikit-learn's step=1).
const RFE_STEP: usize = 5;
/// Training fraction (§4.3: 80/20).
const TRAIN_FRACTION: f64 = 0.8;

/// The evaluated outcome of one prediction test case.
#[derive(Debug, Clone)]
pub struct PredictionOutcome {
    /// Core whose behaviour was predicted.
    pub core: CoreId,
    /// Total samples in the dataset.
    pub samples: usize,
    /// Names of the RFE-selected features.
    pub selected_features: Vec<String>,
    /// RMSE of the linear model on the held-out test set.
    pub model_rmse: f64,
    /// RMSE of the naïve (training-mean) baseline on the same test set.
    pub naive_rmse: f64,
    /// R² of the linear model on the test set.
    pub r2: f64,
    /// (actual, predicted) pairs of the test set — the dots/line of
    /// Figures 7–8.
    pub test_points: Vec<(f64, f64)>,
}

/// The benchmark list of the prediction study.
#[must_use]
fn prediction_benchmarks(scale: &Scale) -> Vec<BenchmarkRef> {
    if scale.full_prediction_suite {
        margins_workloads::suite::prediction_pairs()
            .map(|(name, dataset)| BenchmarkRef {
                name: name.to_owned(),
                dataset,
            })
            .collect()
    } else {
        scale
            .fig4_benchmarks
            .iter()
            .map(|n| BenchmarkRef {
                name: (*n).to_owned(),
                dataset: Dataset::Ref,
            })
            .collect()
    }
}

fn characterize_core(
    spec: ChipSpec,
    core: CoreId,
    benchmarks: &[BenchmarkRef],
    scale: &Scale,
) -> margins_core::regions::CharacterizationResult {
    let config = CampaignConfig::builder()
        .benchmark_refs(benchmarks.iter().cloned())
        .cores([core])
        .iterations(scale.iterations)
        .start_voltage(Millivolts::new(945))
        .floor_voltage(Millivolts::new(830))
        .crash_stop_steps(2)
        .seed(0x9E_D1C7)
        .build()
        .expect("prediction campaign configuration is valid");
    let outcome = ThreadPoolExecutor::new(scale.threads)
        .and_then(|pool| Campaign::new(spec, config).run(&pool, ExecContext::new()))
        .expect("a valid pool runs the campaign");
    analyze(&outcome, &SeverityWeights::paper())
}

fn evaluate(
    x: &[Vec<f64>],
    y: &[f64],
    names: &[&'static str],
    core: CoreId,
    split_seed: u64,
) -> PredictionOutcome {
    let split = train_test_split(y.len(), TRAIN_FRACTION, split_seed);
    let x_train = split.train_of(x);
    let y_train = split.train_of(y);
    let x_test = split.test_of(x);
    let y_test = split.test_of(y);

    let rfe = RecursiveFeatureElimination::fit(&x_train, &y_train, RFE_KEEP, RFE_STEP)
        .expect("prediction datasets are well-formed");
    let pred = rfe.predict_many(&x_test);
    let naive = NaiveMean::fit(&y_train);
    let naive_pred = naive.predict_many(y_test.len());

    PredictionOutcome {
        core,
        samples: y.len(),
        selected_features: rfe
            .selected_features()
            .iter()
            .map(|&j| names[j].to_owned())
            .collect(),
        model_rmse: rmse(&y_test, &pred),
        naive_rmse: rmse(&y_test, &naive_pred),
        r2: r2_score(&y_test, &pred),
        test_points: y_test.iter().copied().zip(pred).collect(),
    }
}

/// Runs the severity prediction test case of §4.3.2/§4.3.3 for `core`.
#[must_use]
pub fn severity_prediction(spec: ChipSpec, core: CoreId, scale: &Scale) -> PredictionOutcome {
    let benchmarks = prediction_benchmarks(scale);
    let result = characterize_core(spec, core, &benchmarks, scale);
    let profiles =
        profile(spec, &benchmarks, core).expect("prediction benchmark names are suite names");
    let samples = severity_samples(&result, &profiles, core);
    let (x, y) = to_matrix(&samples);
    evaluate(&x, &y, &severity_feature_names(), core, 0x51_EA7)
}

/// Runs the Vmin prediction test case of §4.3.1 for `core`.
#[must_use]
pub fn vmin_prediction(spec: ChipSpec, core: CoreId, scale: &Scale) -> PredictionOutcome {
    let benchmarks = prediction_benchmarks(scale);
    let result = characterize_core(spec, core, &benchmarks, scale);
    let profiles =
        profile(spec, &benchmarks, core).expect("prediction benchmark names are suite names");
    let samples = vmin_samples(&result, &profiles, core);
    let (x, y) = to_matrix(&samples);
    evaluate(&x, &y, &vmin_feature_names(), core, 0x7_1117)
}

/// Renders a prediction outcome like the paper reports Figures 7–8.
#[must_use]
pub fn report(outcome: &PredictionOutcome, title: &str, paper_note: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} (core {})", outcome.core.index());
    let _ = writeln!(out, "  samples: {}", outcome.samples);
    let _ = writeln!(
        out,
        "  RFE-selected features: {:?}",
        outcome.selected_features
    );
    let _ = writeln!(
        out,
        "  linear-model RMSE: {:.2}   naive RMSE: {:.2}   R²: {:.2}",
        outcome.model_rmse, outcome.naive_rmse, outcome.r2
    );
    let _ = writeln!(out, "  paper: {paper_note}");
    let _ = writeln!(out, "  test set (actual → predicted):");
    let mut pts = outcome.test_points.clone();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    for (actual, predicted) in pts {
        let _ = writeln!(out, "    {actual:>7.2} → {predicted:>7.2}");
    }
    out
}
