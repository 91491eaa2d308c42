//! Regenerates Fig. 1: raw vs effective compression ratio at MAG 32 B.

use slc_compress::Mag;
use slc_workloads::Scale;

fn main() {
    let scale = Scale::from_env();
    println!("{}", slc_exp::fig1::compute(scale, Mag::GDDR5).render());
    let ext = slc_exp::fig1::compute_section2a(scale, Mag::GDDR5);
    println!("{}", slc_exp::fig1::render_section2a(&ext));
    slc_exp::report::print_footprint();
}
