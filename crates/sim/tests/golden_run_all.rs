//! Golden rendering of the whole evaluation.
//!
//! `golden_run_all.txt` is the text of every table and figure on a
//! restricted grid (benches {gzip, mcf, swim}, budget 1k warm-up + 4k
//! measured), exactly as `rcmc figures` prints it: `rcmc figures` prints
//! [`experiments::render_figures`] and nothing else. Each figure is a
//! builtin plan rendered through its report specs, and none of the
//! renderings may shift by even a space. If a deliberate model change
//! moves the numbers, bump `MODEL_VERSION` and re-capture the file from
//! this function's output.

use rcmc_sim::experiments;
use rcmc_sim::runner::Budget;
use rcmc_sim::Session;

#[test]
fn rcmc_figures_text_matches_golden_renderings() {
    let golden = include_str!("golden_run_all.txt");
    let session = Session::ephemeral().with_jobs(2);
    let budget = Budget {
        warmup: 1_000,
        measure: 4_000,
    };
    let benches: &[&str] = &["gzip", "mcf", "swim"];
    let text = experiments::render_figures(&session, Some(budget), Some(benches), &|_| {})
        .expect("paper plans must validate");
    assert_eq!(
        text, golden,
        "the figure renderings diverged from the golden text"
    );
}
