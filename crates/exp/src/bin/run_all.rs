//! Runs every figure and table in sequence (the full reproduction).

use slc_workloads::{all_workloads, Scale};

fn main() {
    let scale = Scale::from_env();
    println!("=== SLC reproduction, scale {scale:?} ===\n");
    println!("{}", slc_exp::tables::table2());
    println!("{}", slc_exp::tables::table3(scale));
    println!("{}", slc_exp::tables::table1());
    let (fig1, fig2, eval, fig9) = slc_exp::all::compute(all_workloads(scale), scale);
    println!("{}", fig1.render());
    println!("{}", fig2.render());
    println!("{}", eval.render_fig7());
    println!("{}", eval.render_fig8());
    println!("{}", fig9.render());
    slc_exp::report::print_footprint();
}
