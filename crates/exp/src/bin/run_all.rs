//! Runs every figure and table in sequence (the full reproduction).

use slc_compress::Mag;
use slc_core::slc::SlcVariant;
use slc_workloads::{Harness, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("=== SLC reproduction, scale {scale:?} ===\n");
    println!("{}", slc_exp::tables::table2());
    println!("{}", slc_exp::tables::table3(scale));
    println!("{}", slc_exp::tables::table1());
    println!("{}", slc_exp::fig1::compute(scale, Mag::GDDR5).render());
    println!("{}", slc_exp::fig2::compute(scale, Mag::GDDR5).render());
    let harness = Harness::new(scale);
    let eval = slc_exp::evaluate(
        scale,
        &harness,
        16,
        &[SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt],
    );
    println!("{}", eval.render_fig7());
    println!("{}", eval.render_fig8());
    println!("{}", slc_exp::fig9::compute(scale).render());
    slc_exp::report::print_footprint();
}
