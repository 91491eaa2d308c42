//! Every figure from **one** pass over the benchmarks — what `slc run
//! all` prints: each benchmark is built, executed, trained and traced once,
//! gives its Fig. 1, 2, 7/8 and 9 rows, and is dropped.

use crate::eval::{self, per_benchmark, Eval, EvalRow};
use crate::fig1::{self, Fig1};
use crate::fig2::{self, Fig2};
use crate::fig9::{self, Fig9};
use slc_core::slc::SlcVariant;
use slc_workloads::{Harness, Scale, Workload};

/// Figs. 7–8: the three TSLC variants at MAG 32 B, threshold 16 B.
const VARIANTS: [SlcVariant; 3] = [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt];
const THRESHOLD_BYTES: u32 = 16;

/// Fig. 1 and Fig. 2 at MAG 32 B, Figs. 7–8, and Fig. 9 with §V-C, over
/// `workloads` (Table III's, in paper order: `all_workloads(scale)`) —
/// each equal to its module's own `compute`. Fig. 9's 32 B column is
/// Fig. 7's TSLC-OPT column — same MAG, threshold MAG/2 = 16 B — so it is
/// taken from that row, not replayed.
pub fn compute(workloads: Vec<Box<dyn Workload>>, scale: Scale) -> (Fig1, Fig2, Eval, Fig9) {
    let harness = Harness::new(scale);
    let mag = harness.config.mag();
    let rows = per_benchmark(workloads, &harness, |w, a| {
        let eval = eval::row(&harness, THRESHOLD_BYTES, &VARIANTS, w, a);
        // TSLC-OPT is the last of `VARIANTS`.
        let opt = EvalRow { variants: eval.variants[2..].to_vec(), ..eval.clone() };
        let mags = fig9::row(&harness, w, a, Some(&opt));
        ((fig1::row(a, mag), fig2::row(a, mag)), (eval, mags))
    });
    let ((fig1, fig2), (rows, fig9)): ((Vec<_>, Vec<_>), (Vec<_>, Vec<_>)) =
        rows.into_iter().unzip();
    let variants = VARIANTS.to_vec();
    let eval = Eval { rows, variants, threshold_bytes: THRESHOLD_BYTES, mag_bytes: mag.bytes() };
    (Fig1::from_rows(fig1, mag), Fig2 { rows: fig2, mag }, eval, Fig9::from_rows(fig9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::tests::counted_workloads;
    use slc_workloads::all_workloads;

    #[test]
    fn the_one_pass_prepares_each_benchmark_once() {
        // Four prepares a benchmark before this pass existed. Seven
        // executes: Fig. 7's five (exact, size pass, three variants) and
        // Fig. 9's TSLC-OPT replays at 16 B and 64 B — none at 32 B.
        let (workloads, calls) = counted_workloads();
        let (_, _, eval, _) = compute(workloads, Scale::Tiny);
        for (row, calls) in eval.rows.iter().zip(&calls) {
            assert_eq!(calls.counts(), (1, 7), "{}: (builds, executes)", row.name);
        }
    }

    #[test]
    fn the_one_pass_renders_what_each_module_computes() {
        // What licenses taking Fig. 9's 32 B column from Fig. 7's row:
        // `slc run fig1` … `fig9` and `slc run all` cannot drift apart.
        let scale = Scale::Tiny;
        let (fig1, fig2, eval, fig9) = compute(all_workloads(scale), scale);
        assert_eq!(fig1.render(), fig1::compute(scale).render());
        assert_eq!(fig2.render(), fig2::compute(scale).render());
        let alone = eval::evaluate(scale, &Harness::new(scale), THRESHOLD_BYTES, &VARIANTS);
        assert_eq!(eval.render_fig7(), alone.render_fig7());
        assert_eq!(eval.render_fig8(), alone.render_fig8());
        let alone = fig9::compute(scale);
        assert_eq!(fig9.render(), alone.render());
        assert_eq!(format!("{fig9:?}"), format!("{alone:?}"));
    }
}
