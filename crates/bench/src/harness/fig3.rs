//! F3 — Fig 3: TM-score and SPECS-score of relaxed vs unrelaxed models.
//!
//! 19 CASP14 targets with crystal structures: all three relaxation
//! methods preserve TM-score (points on the diagonal, no decreases) and
//! slightly improve SPECS for already-good models.

use crate::harness::{casp14_set, Ctx};
use crate::report::Report;
use summitfold_inference::{Fidelity, InferenceEngine, Preset};
use summitfold_msa::FeatureSet;
use summitfold_protein::stats;
use summitfold_relax::protocol::{relax, Protocol};
use summitfold_structal::specs::specs_score;
use summitfold_structal::tm::tm_score;

/// One scored target.
#[derive(Debug, Clone)]
pub struct Point {
    /// Target id.
    pub id: String,
    /// TM-score of the unrelaxed model.
    pub tm_unrelaxed: f64,
    /// TM-score after AF2-protocol relaxation.
    pub tm_af2: f64,
    /// TM-score after optimized-protocol relaxation.
    pub tm_opt: f64,
    /// SPECS score of the unrelaxed model.
    pub specs_unrelaxed: f64,
    /// SPECS score after AF2-protocol relaxation.
    pub specs_af2: f64,
    /// SPECS score after optimized-protocol relaxation.
    pub specs_opt: f64,
}

/// Run the Fig 3 comparison.
#[must_use]
pub fn run(_ctx: &Ctx) -> (Vec<Point>, Report) {
    // 19 targets with "crystal structures" (their ground-truth folds).
    let targets = casp14_set(19);
    let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);

    let mut points = Vec::new();
    for entry in &targets {
        let features = FeatureSet::synthetic(entry);
        let result = engine
            .predict_target(entry, &features)
            // sfcheck::allow(panic-hygiene, fixed CASP-like benchmark targets are sized to fit every preset memory model)
            .expect("casp lengths fit");
        // sfcheck::allow(panic-hygiene, geometric fidelity always attaches a structure to each prediction)
        let model = result.top().structure.as_ref().expect("geometric").clone();
        let truth = entry.true_fold();

        let af2 = relax(&model, Protocol::Af2Loop).structure;
        let opt = relax(&model, Protocol::OptimizedSinglePass).structure;
        points.push(Point {
            id: entry.sequence.id.clone(),
            tm_unrelaxed: tm_score(&model, &truth),
            tm_af2: tm_score(&af2, &truth),
            tm_opt: tm_score(&opt, &truth),
            specs_unrelaxed: specs_score(&model, &truth),
            specs_af2: specs_score(&af2, &truth),
            specs_opt: specs_score(&opt, &truth),
        });
    }

    let mut rpt = Report::new("fig3", "Fig 3 — structural metrics, relaxed vs unrelaxed");
    let tm_u: Vec<f64> = points.iter().map(|p| p.tm_unrelaxed).collect();
    let tm_o: Vec<f64> = points.iter().map(|p| p.tm_opt).collect();
    let sp_u: Vec<f64> = points.iter().map(|p| p.specs_unrelaxed).collect();
    let sp_o: Vec<f64> = points.iter().map(|p| p.specs_opt).collect();
    let tm_corr = stats::pearson(&tm_u, &tm_o);
    let sp_corr = stats::pearson(&sp_u, &sp_o);
    let tm_drops = points
        .iter()
        .filter(|p| p.tm_opt < p.tm_unrelaxed - 0.02)
        .count();
    let sp_gains = points
        .iter()
        .filter(|p| p.specs_opt > p.specs_unrelaxed)
        .count();

    rpt.line(format!(
        "Targets: {} (CASP14-like, ground truth available).",
        points.len()
    ));
    rpt.line(format!(
        "TM-score relaxed-vs-unrelaxed correlation {tm_corr:.3} (paper: strong, on-diagonal); \
         decreases beyond noise: {tm_drops}/{} (paper: none).",
        points.len()
    ));
    rpt.line(format!(
        "SPECS correlation {sp_corr:.3}; targets with SPECS improvement: {sp_gains}/{} \
         (paper: slight improvements for already-good models).",
        points.len()
    ));
    rpt.line(format!(
        "Mean ΔTM (opt) = {:+.4}; mean ΔSPECS (opt) = {:+.4}; all three methods agree \
         (AF2 loop vs optimized mean |ΔTM| = {:.4}).",
        stats::mean(&tm_o) - stats::mean(&tm_u),
        stats::mean(&sp_o) - stats::mean(&sp_u),
        stats::mean(
            &points
                .iter()
                .map(|p| (p.tm_af2 - p.tm_opt).abs())
                .collect::<Vec<_>>()
        ),
    ));

    let mut csv =
        String::from("target,tm_unrelaxed,tm_af2,tm_opt,specs_unrelaxed,specs_af2,specs_opt\n");
    for p in &points {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            p.id, p.tm_unrelaxed, p.tm_af2, p.tm_opt, p.specs_unrelaxed, p.specs_af2, p.specs_opt
        ));
    }
    rpt.attach("fig3.csv", csv);
    (points, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_relaxation_preserves_structure() {
        let (points, _) = run(&Ctx { quick: true });
        assert_eq!(points.len(), 19);
        for p in &points {
            assert!(
                p.tm_opt > p.tm_unrelaxed - 0.02,
                "{}: TM dropped {:.3} -> {:.3}",
                p.id,
                p.tm_unrelaxed,
                p.tm_opt
            );
            assert!(
                p.specs_opt > p.specs_unrelaxed - 0.05,
                "{}: SPECS collapsed",
                p.id
            );
        }
        // Strong correlation between unrelaxed and relaxed scores.
        let tm_u: Vec<f64> = points.iter().map(|p| p.tm_unrelaxed).collect();
        let tm_o: Vec<f64> = points.iter().map(|p| p.tm_opt).collect();
        assert!(stats::pearson(&tm_u, &tm_o) > 0.95);
        // Some SPECS improvements.
        let gains = points
            .iter()
            .filter(|p| p.specs_opt > p.specs_unrelaxed)
            .count();
        assert!(gains >= points.len() / 3, "only {gains} SPECS gains");
    }
}
