//! Tables I–III of the paper.

use crate::report::TextTable;
use slc_core::slc::SlcVariant;
use slc_power::TslcHardwareModel;
use slc_sim::config::{
    BURST_LENGTH, L1_KB, L2_KB, MEMORY_CONTROLLERS, MEM_CLOCK_MHZ, SM_CLOCK_MHZ,
};
use slc_sim::GpuConfig;
use slc_workloads::{all_workloads, Scale, SchemeKind};

/// Renders Table I (frequency, area, power of the SLC additions) from the
/// gate-count model, side by side with the paper's synthesis numbers.
pub fn table1() -> String {
    let m = TslcHardwareModel::new();
    let c = m.compressor_cost();
    let d = m.decompressor_cost();
    let mut t = TextTable::new(vec!["Unit", "Freq (GHz)", "Area (mm2)", "Power (mW)", "Paper"]);
    t.row(vec![
        "Compressor".to_owned(),
        format!("{:.2}", c.freq_ghz),
        format!("{:.5}", c.area_mm2),
        format!("{:.3}", c.power_mw),
        "1.43 / 0.00830 / 1.620".to_owned(),
    ]);
    t.row(vec![
        "Decompressor".to_owned(),
        format!("{:.2}", d.freq_ghz),
        format!("{:.5}", d.area_mm2),
        format!("{:.3}", d.power_mw),
        "0.80 / 0.00030 / 0.210".to_owned(),
    ]);
    let mut out = String::from("Table I: frequency, area and power of SLC (32 nm gate model)\n");
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nOverheads: area {:.4}% of GTX580 (paper 0.0015%), power {:.4}% (paper 0.0008%), {:.1}% of E2MC area (paper 5.6%)\n",
        c.area_pct_of_gtx580() + d.area_pct_of_gtx580(),
        c.power_pct_of_gtx580() + d.power_pct_of_gtx580(),
        m.pct_of_e2mc_area()
    ));
    out.push_str(&format!(
        "Gate inventory: compressor {} GE, decompressor {} GE\n",
        m.compressor_gates().total(),
        m.decompressor_gates().total()
    ));
    out
}

/// Renders Table II (baseline simulator configuration). The thread, CTA,
/// register and shared-memory limits configure nothing in a trace-driven
/// memory model, so they are Table II's values as literals.
pub fn table2() -> String {
    let c = GpuConfig::default();
    let mut t = TextTable::new(vec!["Parameter", "Value"]);
    t.row(vec!["#SMs".to_owned(), c.sms.to_string()]);
    t.row(vec!["SM freq (MHz)".to_owned(), format!("{SM_CLOCK_MHZ}")]);
    t.row(vec!["Max #Threads/SM".to_owned(), "1536".to_owned()]);
    t.row(vec!["Max CTA size".to_owned(), "512".to_owned()]);
    t.row(vec!["L1 $ size/SM".to_owned(), format!("{L1_KB} KB")]);
    t.row(vec!["L2 $ size".to_owned(), format!("{L2_KB} KB")]);
    t.row(vec!["#Registers/SM".to_owned(), "32 K".to_owned()]);
    t.row(vec!["Shared memory/SM".to_owned(), "48 KB".to_owned()]);
    t.row(vec!["Memory type".to_owned(), "GDDR5".to_owned()]);
    t.row(vec!["# Memory controllers".to_owned(), MEMORY_CONTROLLERS.to_string()]);
    t.row(vec!["Memory clock".to_owned(), format!("{MEM_CLOCK_MHZ} MHz")]);
    t.row(vec!["Memory bandwidth".to_owned(), format!("{:.1} GB/s", c.bandwidth_gbps())]);
    t.row(vec!["Bus width".to_owned(), format!("{}-bit", c.bus_bits())]);
    t.row(vec!["Burst length".to_owned(), BURST_LENGTH.to_string()]);
    t.row(vec!["MAG".to_owned(), c.mag().to_string()]);
    let tslc = SchemeKind::Slc(SlcVariant::TslcOpt);
    for (label, kind) in [("E2MC", SchemeKind::E2mc), ("TSLC", tslc)] {
        let (enc, dec) = kind.codec_latency();
        t.row(vec![
            format!("{label} latency"),
            format!("{enc} cyc compress / {dec} cyc decompress"),
        ]);
    }
    let mut out = String::from("Table II: baseline simulator configuration (GTX580-like)\n");
    out.push_str(&t.render());
    out
}

/// Renders Table III (benchmarks) from the live registry.
pub fn table3(scale: Scale) -> String {
    let mut t = TextTable::new(vec!["Name", "Short description", "Input", "Error metric", "#AR"]);
    for w in all_workloads(scale) {
        t.row(vec![
            w.name().to_owned(),
            w.description().to_owned(),
            w.input_description(),
            w.metric().label().to_owned(),
            w.approx_regions().to_string(),
        ]);
    }
    let mut out = String::from("Table III: benchmarks used for experimental evaluation\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_both_units() {
        let s = table1();
        assert!(s.contains("Compressor"));
        assert!(s.contains("Decompressor"));
        assert!(s.contains("E2MC area"));
    }

    #[test]
    fn table2_matches_paper_values() {
        let s = table2();
        for needle in ["16", "822", "768 KB", "GDDR5", "1002 MHz", "32-bit", "192.4 GB/s"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table3_lists_nine_with_ar() {
        let s = table3(Scale::Tiny);
        for needle in ["JM", "Miss rate", "SRAD1", "8", "Options pricing"] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert_eq!(s.lines().count(), 2 + 1 + 9);
    }
}
