//! Diagnostic: per-benchmark burst counts, bandwidth utilisation and
//! TSLC-OPT speedup at a glance. Not a paper figure — a tuning aid.
use slc_core::slc::SlcVariant;
use slc_workloads::{all_workloads, Harness, Scale, Scheme};

fn main() {
    let scale = Scale::from_env();
    let h = Harness::new(scale);
    let mag = h.config.mag();
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7}",
        "bench", "e2mc_bur", "slc_bur", "nocomp", "bw_no", "bw_e2mc", "bw_slc", "speedup"
    );
    for w in all_workloads(scale) {
        let a = h.prepare(w.as_ref());
        let (f0, t0) = h.evaluate(w.as_ref(), &a, &Scheme::Uncompressed);
        let e = Scheme::E2mc(a.e2mc.clone());
        let (f1, t1) = h.evaluate(w.as_ref(), &a, &e);
        let s = Scheme::slc(a.e2mc.clone(), mag, 16, SlcVariant::TslcOpt);
        let (f2, t2) = h.evaluate(w.as_ref(), &a, &s);
        let bw = |st: &slc_sim::SimStats| {
            st.achieved_bandwidth_gbps(mag.bytes(), h.config.sm_clock_mhz)
                / h.config.bandwidth_gbps()
        };
        println!(
            "{:>6} {:>9.3} {:>9.3} {:>9} {:>8.2} {:>8.2} {:>8.2} {:>7.3}",
            a.name,
            f1.bursts.mean_bursts(),
            f2.bursts.mean_bursts(),
            4,
            bw(&t0.stats),
            bw(&t1.stats),
            bw(&t2.stats),
            t1.stats.cycles as f64 / t2.stats.cycles as f64
        );
        let _ = f0;
    }
}
