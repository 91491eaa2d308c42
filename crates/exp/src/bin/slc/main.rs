//! `slc`: every table, figure and probe of the reproduction from one
//! binary.
//!
//! `slc run …` prints the paper's artefacts and `slc probe …` the
//! diagnostics that are not paper figures; PAPER.md's "Map from the paper
//! to the code" names what each one reproduces. Every subcommand reads
//! `SLC_SCALE` (`tiny` / `small` / `full`, default `small`) and ends with
//! the `footprint:` line on stderr, so stdout is the figures byte for
//! byte. Any other argument list prints the usage on stderr and exits 2,
//! like an unusable `SLC_SCALE` or `SLC_PAR_THREADS`.

mod probe;

use std::sync::Arc;

use slc_compress::bdi::Bdi;
use slc_compress::rans::Rans;
use slc_core::slc::SlcVariant;
use slc_exp::{all, fig1, fig2, fig9, report, tables};
use slc_workloads::{all_workloads, workload_by_name, Harness, Scale};

const USAGE: &str = "usage: slc run all|fig1|fig2|fig7|fig8|fig9|table1|table2|table3
       slc probe bursts|regions|sched|ablation
       slc probe engine [--codec e2mc|rans|bdi]
       slc probe threshold [JM|BS|DCT|FWT|TP|BP|NN|SRAD1|SRAD2]";

fn main() {
    let scale = Scale::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["run", "all"] => {
            println!("=== SLC reproduction, scale {scale:?} ===\n");
            println!("{}", tables::table2());
            println!("{}", tables::table3(scale));
            println!("{}", tables::table1());
            let (fig1, fig2, eval, fig9) = all::compute(all_workloads(scale), scale);
            println!("{}", fig1.render());
            println!("{}", fig2.render());
            println!("{}", eval.render_fig7());
            println!("{}", eval.render_fig8());
            println!("{}", fig9.render());
        }
        ["run", "fig1"] => println!("{}", fig1::compute(scale).render()),
        ["run", "fig2"] => println!("{}", fig2::compute(scale).render()),
        ["run", "fig7"] => println!("{}", tslc_eval(scale).render_fig7()),
        ["run", "fig8"] => println!("{}", tslc_eval(scale).render_fig8()),
        ["run", "fig9"] => println!("{}", fig9::compute(scale).render()),
        ["run", "table1"] => println!("{}", tables::table1()),
        ["run", "table2"] => println!("{}", tables::table2()),
        ["run", "table3"] => println!("{}", tables::table3(scale)),
        ["probe", "bursts"] => probe::bursts(scale),
        ["probe", "regions"] => probe::regions(scale),
        ["probe", "sched"] => probe::sched(scale),
        ["probe", "engine"] | ["probe", "engine", "--codec", "e2mc"] => probe::engine(scale, None),
        ["probe", "engine", "--codec", "rans"] => probe::engine(scale, Some(Arc::new(Rans::new()))),
        ["probe", "engine", "--codec", "bdi"] => probe::engine(scale, Some(Arc::new(Bdi::new()))),
        ["probe", "ablation"] => probe::ablation(scale),
        ["probe", "threshold", bench @ ..] if bench.len() <= 1 => {
            match workload_by_name(bench.first().unwrap_or(&"NN"), scale) {
                Some(w) => probe::threshold(scale, w.as_ref()),
                None => usage(),
            }
        }
        _ => usage(),
    }
    report::print_footprint();
}

/// Figs. 7 and 8's run: the three TSLC variants at the paper's 16 B
/// threshold against E2MC.
fn tslc_eval(scale: Scale) -> slc_exp::Eval {
    let variants = [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt];
    slc_exp::evaluate(scale, &Harness::new(scale), 16, &variants)
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}
