//! Rendering the METRICS suite as text.
//!
//! The original tool drew the mapping on a color display; this renders the
//! same information as ASCII tables suitable for terminals and logs. (Task
//! graphs themselves render to Graphviz via `oregami_graph::dot`.)

use crate::links::LinkMetrics;
use crate::load::LoadMetrics;
use crate::overall::OverallMetrics;
use std::fmt::Write as _;

/// The complete METRICS output for one mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsReport {
    /// Load-balancing figures.
    pub load: LoadMetrics,
    /// Link figures.
    pub links: LinkMetrics,
    /// Whole-mapping figures.
    pub overall: OverallMetrics,
    /// Free-form annotations rendered at the end of the report — e.g.
    /// the mapping engine's note that the served mapping came from a
    /// degraded (budget-exhausted) fallback chain.
    pub annotations: Vec<String>,
}

impl MetricsReport {
    /// Renders the report as an ASCII table block.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== METRICS ==");
        let _ = writeln!(s, "-- load balancing --");
        let _ = writeln!(s, "proc  tasks  exec-time");
        for (p, (&t, &e)) in self
            .load
            .tasks_per_proc
            .iter()
            .zip(&self.load.exec_time_per_proc)
            .enumerate()
        {
            let _ = writeln!(s, "{p:>4}  {t:>5}  {e:>9}");
        }
        let _ = writeln!(
            s,
            "imbalance (max/mean): {}",
            millis(self.load.imbalance_millis)
        );
        let _ = writeln!(s, "-- links --");
        let _ = writeln!(s, "phase            avg-dil  max-dil  max-contention");
        for ph in &self.links.phases {
            let _ = writeln!(
                s,
                "{:<16} {:>7}  {:>7}  {:>14}",
                ph.name,
                millis(ph.avg_dilation_millis),
                ph.max_dilation,
                ph.max_contention
            );
        }
        let _ = writeln!(
            s,
            "overall avg dilation: {}  max: {}",
            millis(self.links.avg_dilation_millis),
            self.links.max_dilation
        );
        let _ = writeln!(s, "-- overall --");
        let _ = writeln!(s, "total IPC:           {}", self.overall.total_ipc);
        let _ = writeln!(s, "internalized volume: {}", self.overall.internalized_volume);
        if let Some(ct) = self.overall.completion_time {
            let _ = writeln!(
                s,
                "completion time:     {ct} (comm {})",
                self.overall.comm_time.unwrap_or(0)
            );
        }
        for note in &self.annotations {
            let _ = writeln!(s, "note: {note}");
        }
        s
    }

    /// Appends an annotation line to the rendered report.
    pub fn annotate(&mut self, note: impl Into<String>) {
        self.annotations.push(note.into());
    }
}

/// Formats a `×1000` fixed-point value as a decimal string.
fn millis(v: u64) -> String {
    format!("{}.{:03}", v / 1000, v % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_mapping, CostModel};
    use oregami_graph::task_graph::Cost;
    use oregami_graph::{Family, PhaseExpr, PhaseId};
    use oregami_mapper::routing::{route_all_phases, Matcher};
    use crate::testutil::shared_table;
    use oregami_mapper::Mapping;
    use oregami_topology::{builders, ProcId};

    #[test]
    fn report_renders_all_sections() {
        let mut tg = Family::Ring(4).build();
        let work = tg.add_exec_phase("work", Cost::Uniform(5));
        tg.phase_expr = Some(PhaseExpr::seq(
            PhaseExpr::Comm(PhaseId(0)),
            PhaseExpr::Exec(work),
        ));
        let net = builders::hypercube(2);
        let table = shared_table(&net);
        let assignment: Vec<ProcId> = vec![ProcId(0), ProcId(1), ProcId(3), ProcId(2)];
        let routes = route_all_phases(&tg, &assignment, &net, &table, Matcher::Maximum);
        let mapping = Mapping { assignment, routes };
        let report = analyze_mapping(&tg, &net, &mapping, &CostModel::default());
        let text = report.render();
        assert!(text.contains("== METRICS =="));
        assert!(text.contains("load balancing"));
        assert!(text.contains("comm")); // phase table row
        assert!(text.contains("total IPC:           4"));
        assert!(text.contains("completion time:"));
        // gray-code ring embedding: avg dilation exactly 1
        assert!(text.contains("overall avg dilation: 1.000"));
        assert!(!text.contains("note:"));
        let mut annotated = report;
        annotated.annotate("degraded result: stage exhaustive budget exhausted");
        let text = annotated.render();
        assert!(text.contains("note: degraded result: stage exhaustive budget exhausted"));
    }

    #[test]
    fn millis_formatting() {
        assert_eq!(millis(1200), "1.200");
        assert_eq!(millis(1000), "1.000");
        assert_eq!(millis(0), "0.000");
        assert_eq!(millis(12345), "12.345");
    }
}
