//! Regenerates Fig. 8: bandwidth, energy and EDP vs E2MC.

use slc_core::slc::SlcVariant;
use slc_workloads::{Harness, Scale};

fn main() {
    let scale = Scale::from_env();
    let harness = Harness::new(scale);
    let eval = slc_exp::evaluate(
        scale,
        &harness,
        16,
        &[SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt],
    );
    println!("{}", eval.render_fig8());
    slc_exp::report::print_footprint();
}
