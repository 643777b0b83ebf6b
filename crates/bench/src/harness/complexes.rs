//! E1 — extension experiment (§5): AF2Complex-style interactome screening.
//!
//! Not a table or figure in the paper — §5 announces the capability and
//! its quadratic cost as future work. The harness screens an all-vs-all
//! pair set from the *D. vulgaris* proteome, reports recall/precision of
//! the synthetic interactome at the iScore cutoff, and projects the
//! node-hour cost of proteome-scale screens (the "quadratic (or higher)
//! order dependence on the number of protein sequences").

use crate::harness::Ctx;
use crate::report::Report;
use summitfold_hpc::Ledger;
use summitfold_inference::Preset;
use summitfold_pipeline::screen::{
    iscore_separation, projected_node_hours, ScreenConfig, ScreenReport,
};
use summitfold_pipeline::stages::{Stage as _, StageCtx};
use summitfold_protein::proteome::{ProteinEntry, Proteome, Species};

/// Run the screening experiment.
#[must_use]
pub fn run(ctx: &Ctx) -> (ScreenReport, Report) {
    let take = if ctx.quick { 30 } else { 80 };
    let proteome = Proteome::generate_scaled(Species::DVulgaris, 0.05);
    let set: Vec<ProteinEntry> = proteome
        .proteins
        .into_iter()
        .filter(|e| e.sequence.len() < 450)
        .take(take)
        .collect();
    let refs: Vec<&ProteinEntry> = set.iter().collect();
    let mut ledger = Ledger::new();
    let report = ScreenConfig::default().run(&refs, StageCtx::for_ledger(&mut ledger));

    let mut rpt = Report::new(
        "complexes",
        "E1 (extension, §5) — AF2Complex interactome screen",
    );
    rpt.line(format!(
        "Screened {} proteins → {} pairs ({} true interactions in the synthetic interactome).",
        report.proteins,
        report.pairs,
        report.calls.iter().filter(|c| c.truly_interacts).count()
    ));
    rpt.line(format!(
        "At iScore ≥ 0.45: recall {:.0} %, precision {:.0} %; mean iScore separation {:.2}.",
        report.recall * 100.0,
        report.precision * 100.0,
        iscore_separation(&report.calls)
    ));
    rpt.line(format!(
        "Batch: {:.1} h on 100 nodes ({:.0} node-h).",
        report.walltime_s / 3600.0,
        report.node_hours
    ));
    rpt.line("");
    rpt.line("Projected full-scale screening cost (genome preset, mean 330 AA):");
    rpt.line("");
    rpt.line("| proteins | pairs | Summit node-hours |");
    rpt.line("|---|---|---|");
    for n in [1_000usize, 3_205, 10_000, 25_134] {
        rpt.line(format!(
            "| {n} | {} | {:.1e} |",
            n * (n - 1) / 2,
            projected_node_hours(n, 330, Preset::Genome)
        ));
    }
    rpt.line("");
    rpt.line("Single-proteome structure prediction costs ~10² node-hours; screening its interactome costs ~10⁵–10⁶ — the §5 argument for leadership-scale resources.");

    let mut csv = String::from("pair,iscore,truly_interacts\n");
    for c in &report.calls {
        csv.push_str(&format!(
            "{},{:.3},{}\n",
            c.pair_id, c.iscore, c.truly_interacts
        ));
    }
    rpt.attach("complexes.csv", csv);
    (report, rpt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn screening_recovers_interactome() {
        let (report, _) = run(&Ctx { quick: true });
        assert!(report.pairs >= 400);
        assert!(report.recall > 0.6, "recall {}", report.recall);
        assert!(report.precision > 0.6, "precision {}", report.precision);
    }

    #[test]
    fn projection_is_quadratic_and_large() {
        let p1 = projected_node_hours(3_205, 330, Preset::Genome);
        let p2 = projected_node_hours(25_134, 330, Preset::Genome);
        assert!(p2 / p1 > 50.0, "ratio {}", p2 / p1);
        assert!(p1 > 50_000.0, "D. vulgaris screen ~{p1:.0} node-h");
    }
}
