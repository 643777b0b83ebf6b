//! The cheap slice of `repro check`: run experiments and compare every
//! file they write with the committed copy, byte for byte.
//!
//! The slice is chosen by dev-profile wall time (opt-level 2, 2-core
//! VM); `repro check` in `scripts/check.sh` covers the rest.
//!
//! * Quick (`results/quick/`): every experiment except `annotate`
//!   (11.4 s), `relaxscale` (4.4 s) and `complexes` (3.6 s); the other
//!   17 take about 6 s together, `fig3` (1.3 s) the longest.
//! * Full (`results/`): `headline`, `table1`, `featgen`, `recycles`,
//!   `store`, `recovery` and three ablations, each under 1 s (2.3 s
//!   together). Full-size `fig2` (5.4 s), `profile` (6.1 s) and
//!   `sdivinum` (5.1 s) are left out; `fig3` is the same at both sizes.

use summitfold_bench::harness::{Ctx, Experiment, EXPERIMENTS};
use summitfold_bench::report::{check, workspace_root};

fn assert_regenerates(quick: bool, keep: impl Fn(&str) -> bool) {
    let slice: Vec<Experiment> = EXPERIMENTS.into_iter().filter(|(n, _)| keep(n)).collect();
    let drifts = check(&workspace_root(), Ctx { quick }, &slice).expect("results readable");
    let listed: Vec<String> = drifts.iter().map(ToString::to_string).collect();
    assert!(
        drifts.is_empty(),
        "{} committed artifact(s) drifted (fresh copies in target/repro-check/results/):\n{}",
        drifts.len(),
        listed.join("\n")
    );
}

#[test]
fn quick_results_regenerate_byte_identically() {
    assert_regenerates(true, |n| {
        !["annotate", "relaxscale", "complexes"].contains(&n)
    });
}

#[test]
fn full_results_regenerate_byte_identically() {
    assert_regenerates(false, |n| {
        [
            "headline",
            "table1",
            "featgen",
            "recycles",
            "store",
            "recovery",
            "ablation-replicas",
            "ablation-gpu-msa",
            "ablation-staging",
        ]
        .contains(&n)
    });
}
