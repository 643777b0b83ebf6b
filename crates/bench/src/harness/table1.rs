//! T1 — Table 1: benchmark tests of presets on the 559-sequence set.
//!
//! Paper values (means over top-ranked models; walltime in minutes,
//! including overhead; 32 Summit nodes, 91 for casp14):
//!
//! | preset | mean pLDDT | mean pTMS | count | walltime |
//! |---|---|---|---|---|
//! | reduced_db | 78.4 | 0.631 | 559 | 44 |
//! | genome | 79.5 | 0.644 | 559 | 50 |
//! | super | 80.7 | 0.650 | 559 | 58 |
//! | casp14 | 78.6 | 0.631 | 551 | >150 |

use crate::harness::{benchmark_set, Ctx};
use crate::report::Report;
use summitfold_hpc::Ledger;
use summitfold_inference::Preset;
use summitfold_pipeline::stages::{inference, Stage as _, StageCtx};
use summitfold_protein::stats;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Preset name.
    pub preset: &'static str,
    /// Mean best-model pLDDT.
    pub mean_plddt: f64,
    /// Mean best-model pTM-score.
    pub mean_ptms: f64,
    /// Targets evaluated.
    pub count: usize,
    /// Batch walltime in minutes.
    pub walltime_min: f64,
    /// Fraction of targets with pLDDT > 70.
    pub frac_plddt_gt70: f64,
    /// Fraction of targets with pTM-score > 0.6.
    pub frac_ptms_gt06: f64,
    /// Fraction of walltime spent outside GPU compute.
    pub overhead_fraction: f64,
}

/// Run the benchmark for all four presets.
#[must_use]
pub fn run(ctx: &Ctx) -> (Vec<Row>, Report) {
    let mut entries = benchmark_set();
    entries.truncate(ctx.sample(entries.len()));
    let features: Vec<_> = entries
        .iter()
        .map(summitfold_msa::FeatureSet::synthetic)
        .collect();

    let mut rows = Vec::new();
    for preset in Preset::ALL {
        let mut ledger = Ledger::new();
        let cfg = inference::Config::benchmark(preset);
        let report = cfg.run(
            inference::Input {
                entries: &entries,
                features: &features,
            },
            StageCtx::for_ledger(&mut ledger),
        );
        let tops: Vec<_> = report.results.iter().map(|(_, r)| r.top()).collect();
        let plddt: Vec<f64> = tops.iter().map(|p| p.plddt_mean).collect();
        let ptms: Vec<f64> = tops.iter().map(|p| p.ptms).collect();
        rows.push(Row {
            preset: preset.name(),
            mean_plddt: stats::mean(&plddt),
            mean_ptms: stats::mean(&ptms),
            count: report.results.len(),
            walltime_min: report.walltime_s / 60.0,
            frac_plddt_gt70: stats::fraction_above(&plddt, 70.0),
            frac_ptms_gt06: stats::fraction_above(&ptms, 0.6),
            overhead_fraction: report.overhead_fraction,
        });
    }

    let mut rpt = Report::new(
        "table1",
        "Table 1 — preset benchmark on the D. vulgaris hypothetical set",
    );
    rpt.line(format!("Benchmark sequences: {}", entries.len()));
    rpt.line("");
    rpt.line("| preset | mean pLDDT (paper) | mean pTMS (paper) | count (paper) | walltime min (paper) | %pLDDT>70 | %pTMS>0.6 | overhead |");
    rpt.line("|---|---|---|---|---|---|---|---|");
    let paper = [
        ("reduced_db", 78.4, 0.631, 559, "44"),
        ("genome", 79.5, 0.644, 559, "50"),
        ("super", 80.7, 0.650, 559, "58"),
        ("casp14", 78.6, 0.631, 551, ">150"),
    ];
    let mut csv = String::from(
        "preset,mean_plddt,mean_ptms,count,walltime_min,frac_plddt_gt70,frac_ptms_gt06,overhead\n",
    );
    for row in &rows {
        // sfcheck::allow(panic-hygiene, the paper table is a fixed in-source array covering every preset)
        let p = paper.iter().find(|p| p.0 == row.preset).expect("paper row");
        rpt.line(format!(
            "| {} | {:.1} ({:.1}) | {:.3} ({:.3}) | {} ({}) | {:.0} ({}) | {:.0}% | {:.0}% | {:.0}% |",
            row.preset,
            row.mean_plddt,
            p.1,
            row.mean_ptms,
            p.2,
            row.count,
            p.3,
            row.walltime_min,
            p.4,
            row.frac_plddt_gt70 * 100.0,
            row.frac_ptms_gt06 * 100.0,
            row.overhead_fraction * 100.0,
        ));
        csv.push_str(&format!(
            "{},{:.2},{:.4},{},{:.1},{:.3},{:.3},{:.3}\n",
            row.preset,
            row.mean_plddt,
            row.mean_ptms,
            row.count,
            row.walltime_min,
            row.frac_plddt_gt70,
            row.frac_ptms_gt06,
            row.overhead_fraction,
        ));
    }
    rpt.attach("table1.csv", csv);
    (rows, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        // Quick mode keeps the test fast; the ordering claims must hold
        // at any sample size.
        let (rows, _) = run(&Ctx { quick: true });
        let by = |name: &str| rows.iter().find(|r| r.preset == name).unwrap();
        let (reduced, genome, sup, casp) =
            (by("reduced_db"), by("genome"), by("super"), by("casp14"));

        // Quality ordering: genome and super beat reduced; super ≥ genome.
        assert!(genome.mean_ptms >= reduced.mean_ptms);
        assert!(sup.mean_ptms >= genome.mean_ptms - 1e-9);
        assert!(genome.mean_plddt >= reduced.mean_plddt - 0.3);

        // Walltime ordering: reduced < genome < super ≪ casp14.
        assert!(reduced.walltime_min < genome.walltime_min);
        assert!(genome.walltime_min < sup.walltime_min);
        assert!(casp.walltime_min > sup.walltime_min * 1.5);

        // casp14 loses its longest sequences to OOM.
        assert!(casp.count < reduced.count);
        assert_eq!(genome.count, reduced.count);
    }
}
