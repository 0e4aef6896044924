//! §5: the energy/performance tradeoff experiments (Figure 9 and the
//! abstract's headline savings numbers).

use crate::fig34::ChipCharacterization;
use margins_energy::model::undervolt_savings;
use margins_energy::schedule::{binding_vmin, Assignment, Scheduler};
use margins_energy::tradeoff::{pareto_curve, per_pmd_rails_comparison};
use margins_energy::vmin::VminTable;
use margins_sim::{CoreId, Millivolts};
use std::fmt::Write as _;

/// The eight-benchmark multiprogram workload of Figure 9.
const FIG9_WORKLOAD: [&str; 8] = [
    "bwaves",
    "cactusADM",
    "dealII",
    "gromacs",
    "leslie3d",
    "mcf",
    "milc",
    "namd",
];

/// Builds the in-order Figure 9 assignments from whatever the
/// characterization actually covered: benchmark k on the k-th available
/// core, cycling benchmarks when fewer were characterized.
#[must_use]
fn fig9_assignments(chars: &ChipCharacterization) -> (Vec<Assignment>, VminTable) {
    let table = VminTable::from_characterization(&chars.result);
    let mut cores: Vec<CoreId> = CoreId::all()
        .filter(|c| FIG9_WORKLOAD.iter().any(|w| table.get(*c, w).is_some()))
        .collect();
    cores.sort();
    let mut assignments = Vec::new();
    for (i, core) in cores.iter().enumerate() {
        // Pick the i-th workload (cycling) that has data on this core.
        let mut chosen = None;
        for k in 0..FIG9_WORKLOAD.len() {
            let w = FIG9_WORKLOAD[(i + k) % FIG9_WORKLOAD.len()];
            if table.get(*core, w).is_some() {
                chosen = Some(w);
                break;
            }
        }
        if let Some(w) = chosen {
            assignments.push(Assignment {
                core: *core,
                workload: w.to_owned(),
            });
        }
    }
    (assignments, table)
}

/// The Figure 9 report: the measured staircase plus the robust-first
/// scheduling comparison of §5.
#[must_use]
pub fn fig9_report(chars: &ChipCharacterization) -> String {
    let mut out = String::new();
    let (assignments, table) = fig9_assignments(chars);
    let _ = writeln!(
        out,
        "Figure 9 — energy/performance staircase on {} ({} tasks)",
        chars.spec,
        assignments.len()
    );
    let Some(points) = pareto_curve(&assignments, &table) else {
        let _ = writeln!(out, "  (insufficient characterization data)");
        return out;
    };
    let _ = writeln!(
        out,
        "{:>24}{:>10}{:>12}{:>12}{:>10}",
        "point", "voltage", "rel power", "rel perf", "savings"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>24}{:>9}{:>11.1}%{:>11.1}%{:>9.1}%",
            p.label,
            p.voltage.to_string(),
            p.relative_power * 100.0,
            p.relative_performance * 100.0,
            p.energy_savings * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "(paper's figure: 87.2%@915mV, 73.8%@900mV, 61.2%@885mV, 49.8%@875mV; final point 30.1% power per the §5 text's 69.9% savings)"
    );

    // §6c counterfactual: finer-grained voltage domains.
    if let Some((shared, per_pmd)) = per_pmd_rails_comparison(&assignments, &table) {
        let _ = writeln!(
            out,
            "§6c counterfactual: shared rail {:.1}% savings vs per-PMD rails {:.1}% savings at full speed",
            shared.energy_savings * 100.0,
            per_pmd.energy_savings * 100.0,
        );
    }

    // Scheduling comparison.
    let workloads: Vec<String> = assignments.iter().map(|a| a.workload.clone()).collect();
    if let Some(smart) = Scheduler::new().assign_robust_first(&workloads, &table) {
        if let (Some(naive_v), Some(smart_v)) = (
            binding_vmin(&assignments, &table),
            binding_vmin(&smart, &table),
        ) {
            let _ = writeln!(
                out,
                "scheduling: in-order binding Vmin {naive_v} ({:.1}% savings) vs robust-first {smart_v} ({:.1}% savings)",
                undervolt_savings(naive_v) * 100.0,
                undervolt_savings(smart_v) * 100.0,
            );
        }
    }
    out
}

/// The abstract/§5 headline numbers from the measured characterization.
#[must_use]
pub fn headline_report(chars: &ChipCharacterization) -> String {
    let mut out = String::new();
    let table = VminTable::from_characterization(&chars.result);
    let _ = writeln!(out, "Headline energy-savings numbers on {}", chars.spec);

    // Per-benchmark robust-core savings (the "19.4% without compromising
    // performance" claim is the robust-core potential).
    let mut savings = Vec::new();
    for s in &chars.result.summaries {
        if s.dataset != "ref" {
            continue;
        }
        if let Some((_, v)) = chars.result.most_robust_core(&s.program) {
            savings.push((s.program.clone(), undervolt_savings(v)));
        }
    }
    savings.sort_by(|a, b| a.0.cmp(&b.0));
    savings.dedup_by(|a, b| a.0 == b.0);
    if !savings.is_empty() {
        let mean = savings.iter().map(|(_, s)| *s).sum::<f64>() / savings.len() as f64;
        let _ = writeln!(
            out,
            "  mean robust-core savings at full speed: {:.1}% (paper: 19.4%)",
            mean * 100.0
        );
    }

    // The leslie3d domain-limit example of §5.
    if let (Some((rc, rv)), Some((sc, sv))) = (
        chars.result.most_robust_core("leslie3d"),
        chars.result.most_sensitive_core("leslie3d"),
    ) {
        let _ = writeln!(
            out,
            "  leslie3d: robust core{} Vmin {rv} ({:.1}% savings) vs sensitive core{} Vmin {sv} ({:.1}% savings; paper: 19.4% vs 12.8%)",
            rc.index(),
            undervolt_savings(rv) * 100.0,
            sc.index(),
            undervolt_savings(sv) * 100.0,
        );
    }

    // The staircase's 25% and 50% performance-loss points.
    let (assignments, _) = fig9_assignments(chars);
    if let Some(points) = pareto_curve(&assignments, &table) {
        for (target, paper) in [(0.75, "38.8%"), (0.5, "69.9%")] {
            if let Some(p) = points
                .iter()
                .filter(|p| p.relative_performance + 1e-9 >= target)
                .max_by(|a, b| {
                    a.energy_savings
                        .partial_cmp(&b.energy_savings)
                        .expect("finite")
                })
            {
                let _ = writeln!(
                    out,
                    "  best point at ≥{:.0}% performance: {} → {:.1}% savings (paper: {paper})",
                    target * 100.0,
                    p.voltage,
                    p.energy_savings * 100.0,
                );
            }
        }
    }

    // The 1.2 GHz uniform floor.
    let _ = writeln!(
        out,
        "  all PMDs at 1.2 GHz / {}: {:.1}% power savings with 50% performance loss (paper: 69.9%)",
        Millivolts::new(760),
        (1.0 - (760.0f64 / 980.0).powi(2) * 0.5) * 100.0,
    );
    out
}
