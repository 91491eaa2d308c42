//! Regenerates Fig. 9 and the §V-C ratio study: MAG sensitivity.

use slc_workloads::Scale;

fn main() {
    let scale = Scale::from_env();
    println!("{}", slc_exp::fig9::compute(scale).render());
    slc_exp::report::print_footprint();
}
