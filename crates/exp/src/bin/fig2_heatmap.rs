//! Regenerates Fig. 2: distribution of compressed blocks above MAG.

use slc_compress::Mag;
use slc_workloads::Scale;

fn main() {
    let scale = Scale::from_env();
    println!("{}", slc_exp::fig2::compute(scale, Mag::GDDR5).render());
    slc_exp::report::print_footprint();
}
