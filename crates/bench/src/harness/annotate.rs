//! X6 — §4.6: structure-based annotation of hypothetical proteins and
//! novel-fold detection.
//!
//! Paper (559 *D. vulgaris* hypothetical proteins vs pdb70): 239 found a
//! structural match at TM ≥ 0.60; 215 of those had sequence identity
//! < 20 % and 112 < 10 %. Separately, several very-high-confidence models
//! had no structural match — one (> 98 % residues at pLDDT > 90, top TM
//! 0.358) later proved to be a novel homocysteine-synthesis enzyme.

use crate::harness::{benchmark_set, Ctx};
use crate::report::Report;
use summitfold_pipeline::annotate::{annotate_hypothetical, AnnotationConfig, AnnotationReport};
use summitfold_protein::proteome::ProteinEntry;

/// Run the annotation experiment over the hypothetical set.
#[must_use]
pub fn run(ctx: &Ctx) -> (AnnotationReport, Report) {
    let mut entries = benchmark_set();
    entries.truncate(ctx.sample(entries.len()));
    let queries: Vec<&ProteinEntry> = entries.iter().collect();
    let report = annotate_hypothetical(&queries, &AnnotationConfig::default());

    let mut rpt = Report::new("annotate", "§4.6 — annotation transfer and novel folds");
    rpt.line("| metric | paper | measured |");
    rpt.line("|---|---|---|");
    rpt.line(format!(
        "| hypothetical proteins searched | 559 | {} |",
        report.queries
    ));
    rpt.line(format!(
        "| top TM ≥ 0.60 matches | 239 | {} |",
        report.matched
    ));
    rpt.line(format!(
        "| matches at sequence identity < 20 % | 215 | {} |",
        report.matched_seqid_lt20
    ));
    rpt.line(format!(
        "| matches at sequence identity < 10 % | 112 | {} |",
        report.matched_seqid_lt10
    ));
    rpt.line(format!(
        "| novel-fold candidates (high confidence, no match) | several | {} |",
        report.novel_fold_candidates.len()
    ));
    // Showcase the best novel-fold candidate, like the paper's example.
    if let Some(best) = report
        .per_query
        .iter()
        .filter(|q| report.novel_fold_candidates.contains(&q.id))
        .max_by(|a, b| a.plddt_frac90.total_cmp(&b.plddt_frac90))
    {
        rpt.line(format!(
            "| showcase candidate | pLDDT>90 on 98 % of residues, top TM 0.358 | {}: pLDDT>90 on \
             {:.0} % of residues, top TM {:.3} |",
            best.id,
            best.plddt_frac90 * 100.0,
            best.top_tm
        ));
    }

    let mut csv = String::from("id,plddt_mean,plddt_frac90,top_tm,top_seq_identity,annotation\n");
    for q in &report.per_query {
        csv.push_str(&format!(
            "{},{:.1},{:.3},{:.3},{:.3},{}\n",
            q.id,
            q.plddt_mean,
            q.plddt_frac90,
            q.top_tm,
            q.top_seq_identity,
            q.transferred_annotation.as_deref().unwrap_or("-")
        ));
    }
    rpt.attach("annotate.csv", csv);
    (report, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_counts_in_shape() {
        let (r, _) = run(&Ctx { quick: true });
        assert!(r.queries >= 50, "queries {}", r.queries);
        let match_rate = r.matched as f64 / r.queries as f64;
        // Paper: 239/559 ≈ 0.43.
        assert!(
            (0.25..0.62).contains(&match_rate),
            "match rate {match_rate}"
        );
        // Low-identity dominance: 215/239 ≈ 0.90 below 20 %.
        if r.matched > 10 {
            let lt20 = r.matched_seqid_lt20 as f64 / r.matched as f64;
            assert!(lt20 > 0.7, "lt20 {lt20}");
            let lt10 = r.matched_seqid_lt10 as f64 / r.matched as f64;
            assert!((0.2..0.8).contains(&lt10), "lt10 {lt10}");
        }
        // Some novel-fold candidates exist.
        assert!(!r.novel_fold_candidates.is_empty());
    }
}
