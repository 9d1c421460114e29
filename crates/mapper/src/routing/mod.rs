//! Routing: assigning each communication edge to a path of network links
//! (paper §2 definition, §4.4 algorithm).

pub mod baseline;
pub mod mm_route;

pub use baseline::baseline_route;
pub use mm_route::{mm_route, route_all_phases, Matcher, RoutedPhase};

use oregami_topology::{LinkId, Network, ProcId};
use std::collections::HashMap;

/// Per-link usage count of a set of routed paths — the raw material of the
/// contention metric: in a synchronous communication phase, a link used by
/// `k` messages serialises them, so the phase's communication time scales
/// with the maximum count.
fn link_usage(net: &Network, paths: &[Vec<ProcId>]) -> HashMap<LinkId, u64> {
    let mut usage = HashMap::new();
    for path in paths {
        for w in path.windows(2) {
            let link = net
                .link_between(w[0], w[1])
                .expect("routed path must follow links");
            *usage.entry(link).or_insert(0) += 1;
        }
    }
    usage
}

/// Maximum per-link usage (0 for an empty/loop-only phase).
pub fn max_contention(net: &Network, paths: &[Vec<ProcId>]) -> u64 {
    link_usage(net, paths).values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oregami_topology::builders;

    #[test]
    fn usage_counts_links() {
        let net = builders::chain(3);
        let paths = vec![
            vec![ProcId(0), ProcId(1), ProcId(2)],
            vec![ProcId(1), ProcId(2)],
            vec![ProcId(2)], // local message: no links
        ];
        let usage = link_usage(&net, &paths);
        let l01 = net.link_between(ProcId(0), ProcId(1)).unwrap();
        let l12 = net.link_between(ProcId(1), ProcId(2)).unwrap();
        assert_eq!(usage[&l01], 1);
        assert_eq!(usage[&l12], 2);
        assert_eq!(max_contention(&net, &paths), 2);
    }

    #[test]
    fn empty_paths_no_contention() {
        let net = builders::chain(2);
        assert_eq!(max_contention(&net, &[]), 0);
    }
}
