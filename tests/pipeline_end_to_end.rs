//! Full-pipeline integration: harness → functional error → burst map →
//! timing simulation → energy, for a representative benchmark subset.

use slc::slc_core::slc::SlcVariant;
use slc::slc_power::EnergyModel;
use slc::slc_workloads::harness::{normalized_bandwidth, speedup};
use slc::slc_workloads::{all_workloads, workload_by_name, Harness, Scale, Scheme};

#[test]
fn nn_full_pipeline_shows_the_paper_shape() {
    let h = Harness::new(Scale::Tiny);
    let w = workload_by_name("NN", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());

    let (f_none, t_none) = h.evaluate(w.as_ref(), &a, &Scheme::Uncompressed);
    let e2mc = Scheme::E2mc(a.e2mc.clone());
    let (f_e2mc, t_e2mc) = h.evaluate(w.as_ref(), &a, &e2mc);
    let slc = Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
    let (f_slc, t_slc) = h.evaluate(w.as_ref(), &a, &slc);

    // Losslessness of the baselines.
    assert_eq!(f_none.error_pct, 0.0);
    assert_eq!(f_e2mc.error_pct, 0.0);
    // E2MC cuts traffic vs no compression; SLC cuts it further.
    assert!(t_e2mc.stats.total_bursts() < t_none.stats.total_bursts());
    assert!(t_slc.stats.total_bursts() <= t_e2mc.stats.total_bursts());
    assert!(normalized_bandwidth(&t_e2mc.stats, &t_slc.stats) <= 1.0);
    // SLC trades a small error for speed.
    assert!(f_slc.error_pct < 25.0, "error {}%", f_slc.error_pct);
    assert!(speedup(&t_e2mc.stats, &t_slc.stats) >= 0.99);
    // Energy follows cycles and bursts.
    let em = EnergyModel;
    let e_base = em.evaluate(&t_e2mc.stats, &h.config);
    let e_slc = em.evaluate(&t_slc.stats, &h.config);
    if t_slc.stats.cycles < t_e2mc.stats.cycles {
        assert!(e_slc.total_mj() < e_base.total_mj());
        assert!(e_slc.edp() < e_base.edp());
    }
}

#[test]
fn variants_share_traffic_but_differ_in_quality() {
    let h = Harness::new(Scale::Tiny);
    let w = workload_by_name("SRAD2", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let mut errors = Vec::new();
    for variant in [SlcVariant::TslcSimp, SlcVariant::TslcPred, SlcVariant::TslcOpt] {
        let scheme = Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, variant);
        let f = h.run_functional(w.as_ref(), &a, &scheme);
        errors.push((variant.label(), f.error_pct));
    }
    // "TSLC-SIMP has the highest error due to truncation. The error
    // reduces significantly for TSLC-PRED" (§V-A).
    assert!(errors[0].1 >= errors[1].1, "SIMP {errors:?} should not beat PRED");
    assert!(errors[2].1 <= errors[0].1, "OPT should not exceed SIMP: {errors:?}");
}

#[test]
fn deterministic_end_to_end() {
    let h = Harness::new(Scale::Tiny);
    let w = workload_by_name("DCT", Scale::Tiny).expect("registered");
    let a1 = h.prepare(w.as_ref());
    let a2 = h.prepare(w.as_ref());
    assert_eq!(a1.exact_output, a2.exact_output);
    let s1 = Scheme::slc(a1.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
    let (f1, t1) = h.evaluate(w.as_ref(), &a1, &s1);
    let s2 = Scheme::slc(a2.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt);
    let (f2, t2) = h.evaluate(w.as_ref(), &a2, &s2);
    assert_eq!(f1.error_pct, f2.error_pct);
    assert_eq!(t1.stats, t2.stats);
}

#[test]
fn threshold_zero_reduces_to_lossless_e2mc_timing() {
    let h = Harness::new(Scale::Tiny);
    let w = workload_by_name("TP", Scale::Tiny).expect("registered");
    let a = h.prepare(w.as_ref());
    let slc0 = Scheme::slc(a.e2mc.clone(), h.config.mag(), 0, SlcVariant::TslcOpt);
    let f = h.run_functional(w.as_ref(), &a, &slc0);
    assert_eq!(f.error_pct, 0.0, "threshold 0 must be lossless");
}

#[test]
fn no_benchmark_runs_faster_than_its_bursts_occupy_the_bus() {
    // The busiest channel carries at least the average channel's bursts,
    // one after another: cycles × channels ≥ bursts × burst cycles. The
    // tightest run at tiny, JM under NOCOMP, comes within 7 % of it, so
    // the bound is tight, not vacuous.
    let h = Harness::new(Scale::Tiny);
    let channels = h.config.channels() as f64;
    let mut tightest = f64::INFINITY;
    for w in all_workloads(Scale::Tiny) {
        let a = h.prepare(w.as_ref());
        let schemes = [
            Scheme::Uncompressed,
            Scheme::E2mc(a.e2mc.clone()),
            Scheme::slc(a.e2mc.clone(), h.config.mag(), 16, SlcVariant::TslcOpt),
        ];
        for (_, t) in h.evaluate_schemes(w.as_ref(), &a, &schemes) {
            let s = &t.stats;
            let bus = s.total_bursts() as f64 * h.config.burst_sm_cycles();
            let margin = s.cycles as f64 * channels / bus;
            assert!(margin >= 1.0, "{} {}: {margin}", w.name(), t.kind.label());
            tightest = tightest.min(margin);
        }
    }
    assert!(tightest < 1.1, "no run near the bus bound: {tightest}");
}
