//! Appendix A.5 — conventional-synopsis construction (Figures 10 and 11).

use dwmaxerr_core::conventional::{con, hwtopk, send_coef, send_v};
use dwmaxerr_datagen::{nyct_like, wd_like};
use dwmaxerr_runtime::Cluster;

use crate::report::{secs, Table};
use crate::setup::{paper_cluster, Scale};

fn conventional_row(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    s: usize,
    parts: usize,
) -> Vec<String> {
    let (_, m_con) = con(cluster, data, b, s).expect("CON");
    let (_, m_sv) = send_v(cluster, data, b, parts).expect("Send-V");
    let (_, m_sc) = send_coef(cluster, data, b, parts).expect("Send-Coef");
    // H-WTopk genuinely OOMs at B = N/8 once its round-1 reducer
    // collection exceeds the per-task memory budget (the paper's 8M+
    // failures); the engine reports that as TaskOutOfMemory.
    let hw = match hwtopk(cluster, data, b, parts) {
        Ok(rep) => secs(rep.metrics.total_simulated().secs()),
        Err(dwmaxerr_core::CoreError::Runtime(
            dwmaxerr_runtime::RuntimeError::TaskOutOfMemory { .. },
        )) => "OOM".to_string(),
        Err(e) => panic!("H-WTopk failed unexpectedly: {e}"),
    };
    vec![
        secs(m_con.total_simulated().secs()),
        secs(m_sv.total_simulated().secs()),
        secs(m_sc.total_simulated().secs()),
        hw,
    ]
}

/// Figure 10: running time of the conventional-synopsis algorithms at
/// B = N/8 on both dataset surrogates.
pub fn fig10(scale: Scale) -> Vec<Table> {
    let logs: Vec<u32> = scale.pick(vec![15, 16, 17, 18], vec![17, 18, 19, 20]);
    let cluster = paper_cluster();
    let mut tables = Vec::new();
    for dataset in ["NYCT-like", "WD-like"] {
        let mut t = Table::new(
            format!("Figure 10 — conventional synopsis, B = N/8, {dataset}"),
            "CON is the most time-efficient (~1.5x over Send-Coef); Send-V is much \
             worse (sequential); H-WTopk is the worst and runs out of memory for \
             larger sizes because it must emit 2B records per mapper",
            &["N", "CON", "Send-V", "Send-Coef", "H-WTopk"],
        );
        for &ln in &logs {
            let n = 1usize << ln;
            let b = n / 8;
            let s = (n / 16).max(1 << 9);
            let data = if dataset == "NYCT-like" {
                nyct_like(n, 0.0, 90 + ln as u64)
            } else {
                wd_like(n, 2e-4, 90 + ln as u64)
            };
            let mut row = vec![format!("2^{ln}")];
            row.extend(conventional_row(&cluster, &data, b, s, 16));
            t.row(row);
        }
        t.note(super::CENTRALIZED_NOTE);
        tables.push(t);
    }
    tables
}

/// Figure 11: conventional synopsis with a tiny fixed budget B = 50 —
/// the regime where H-WTopk's pruning pays off.
pub fn fig11(scale: Scale) -> Vec<Table> {
    let logs: Vec<u32> = scale.pick(vec![15, 16, 17, 18], vec![17, 18, 19, 20]);
    let cluster = paper_cluster();
    let b = 50;
    let mut t = Table::new(
        "Figure 11 — conventional synopsis, NYCT-like, B = 50",
        "H-WTopk dominates the other approaches only when B is very small and the \
         dataset large enough to amortize its three MapReduce jobs",
        &[
            "N",
            "CON",
            "Send-V",
            "Send-Coef",
            "H-WTopk",
            "H-WTopk shuffle",
            "Send-Coef shuffle",
        ],
    );
    for &ln in &logs {
        let n = 1usize << ln;
        let s = (n / 16).max(1 << 9);
        let data = nyct_like(n, 0.0, 95 + ln as u64);
        let mut row = vec![format!("2^{ln}")];
        row.extend(conventional_row(&cluster, &data, b, s, 16));
        // Shuffle-byte evidence for WHY H-WTopk wins at tiny B.
        let hw = hwtopk(&cluster, &data, b, 16).expect("H-WTopk");
        let (_, sc) = send_coef(&cluster, &data, b, 16).expect("Send-Coef");
        row.push(crate::report::bytes(hw.metrics.total_shuffle_bytes()));
        row.push(crate::report::bytes(sc.total_shuffle_bytes()));
        t.row(row);
    }
    t.note(super::CENTRALIZED_NOTE);
    vec![t]
}
