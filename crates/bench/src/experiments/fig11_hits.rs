//! Figure 11 — remote-pointer hit analysis for the 50-client runs: how many
//! GETs were served by a validated one-sided read (successful hits), how many
//! fetched an outdated item and fell back (invalid hits), and how many went
//! through the server message path.

use std::collections::HashMap;

use crate::{hit_rate, paper_cluster_config, paper_workloads, run_hydra, Report, ReportRow, Scale};

pub fn run(scale: Scale, report: &mut Report) {
    report.header("workload<16|success_hits>14|invalid_hits>14|msg_gets>12|hit_rate>12");
    let (mut hits, mut invalid) = (HashMap::new(), HashMap::new());
    for (name, wl) in paper_workloads(scale, 11) {
        let r = run_hydra(paper_cluster_config(), 50, &wl);
        let rate = format!("{:.1}%", hit_rate(&r) * 100.0);
        report.row(&[&name, &r.rptr_hits, &r.invalid_hits, &r.msg_gets, &rate]);
        report.datum(&name, ReportRow(&r));
        hits.insert(name.clone(), r.rptr_hits);
        invalid.insert(name, r.invalid_hits);
    }
    let zipf_ro_hits = hits["100g-zipf"];
    if zipf_ro_hits > 0 {
        report.line(&format!(
            "# Zipfian: moving from 0% to 50% updates drops successful hits by {:.1}% and produces {} invalid hits (paper: -75.5%, ~7M invalid)",
            (1.0 - hits["50g-50u-zipf"] as f64 / zipf_ro_hits as f64) * 100.0,
            invalid["50g-50u-zipf"]
        ));
    }
    for dist in ["zipf", "uniform"] {
        let [all, most, half] =
            ["100g", "90g-10u", "50g-50u"].map(|mix| hits[&format!("{mix}-{dist}")]);
        report.claim(
            all > most && most > half,
            format!("{dist}: {all} / {most} / {half} successful hits at 100 / 90 / 50 % GET"),
            "moving from 0 % to 50 % updates cuts successful hits by 75.5 %",
        );
    }
    let (zipf, uniform) = (hits["100g-zipf"], hits["100g-uniform"]);
    report.claim(
        uniform * 10 < zipf,
        format!("100 % GET: Uniform {uniform} vs Zipf {zipf} successful hits"),
        "Uniform workloads reuse pointers far less",
    );
}
