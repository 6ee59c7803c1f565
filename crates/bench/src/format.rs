//! Plain-text tables and percentage changes for the artifacts.

use crate::experiments::CostRow;

/// Render labelled cost rows with values normalized to `baseline`'s
/// (time-cost, energy-cost, total) — the way the paper's figures
/// normalize against a reference scheduler.
#[must_use]
pub fn normalized_table(rows: &[&CostRow], baseline: &CostRow) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>12} {:>14} {:>14}\n",
        "scheduler", "time(norm)", "energy(norm)", "total(norm)", "energy (J)", "waiting (s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>12.3} {:>12.3} {:>12.3} {:>14.1} {:>14.1}\n",
            r.name,
            r.time_cost / baseline.time_cost,
            r.energy_cost / baseline.energy_cost,
            r.total() / baseline.total(),
            r.energy_joules,
            r.waiting_seconds,
        ));
    }
    out
}

/// Render absolute rows (no normalization).
#[must_use]
pub fn absolute_table(rows: &[&CostRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>14} {:>14} {:>12} {:>12} {:>12}\n",
        "scheduler", "energy (J)", "waiting (s)", "makespan(s)", "cost(energy)", "cost(time)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>14.1} {:>14.1} {:>12.2} {:>12.2} {:>12.2}\n",
            r.name, r.energy_joules, r.waiting_seconds, r.makespan, r.energy_cost, r.time_cost,
        ));
    }
    out
}

/// Percentage change `(new/old − 1) × 100`, unrounded.
#[must_use]
pub fn pct(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

/// Percentage-change helper: `(new/old − 1) × 100`, rounded to 0.1.
#[must_use]
pub fn pct_change(new: f64, old: f64) -> f64 {
    ((new / old - 1.0) * 1000.0).round() / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, e: f64, t: f64) -> CostRow {
        CostRow {
            name: name.into(),
            energy_joules: e,
            waiting_seconds: t,
            makespan: t / 10.0,
            energy_cost: 0.1 * e,
            time_cost: 0.4 * t,
        }
    }

    #[test]
    fn normalized_table_uses_baseline() {
        let a = row("a", 100.0, 10.0);
        let b = row("b", 50.0, 20.0);
        let s = normalized_table(&[&a, &b], &a);
        assert!(s.contains("a"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("1.000"));
        assert!(lines[2].contains("0.500") && lines[2].contains("2.000"));
    }

    #[test]
    fn absolute_table_has_all_rows() {
        let a = row("x", 1.0, 2.0);
        let s = absolute_table(&[&a]);
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn pct_change_signs() {
        assert_eq!(pct_change(54.0, 100.0), -46.0);
        assert_eq!(pct_change(104.0, 100.0), 4.0);
    }
}
