//! Topology-spec parsing shared by the CLI and the daemon protocol:
//! `hypercube:3`, `mesh2d:4x4`, `ring:8`, ... plus hierarchical machine
//! specs (`mesh-boards:4x4x8x8`, `fat-tree:2x4`, `dragonfly:4x4x4`,
//! `rc-array`) lowered through [`MachineModel`]. [`parse_target`] is the
//! one way a spec string becomes a network; a spec past
//! [`check_size`] — a typo like `hypercube:62`, or `complete:1048576` —
//! comes back as a spec error before anything is allocated.

use oregami::topology::routes::check_size;
use oregami::topology::{builders, DomainMap, MachineModel, Network};
use std::sync::Arc;

/// Whether a spec names a hierarchical machine model rather than a flat
/// topology.
pub fn is_machine_spec(spec: &str) -> bool {
    let head = spec.split(':').next().unwrap_or("").trim();
    matches!(head, "mesh-boards" | "fat-tree" | "dragonfly" | "rc-array")
}

/// Builds a network from either a flat topology spec or a hierarchical
/// machine spec. Machine specs also yield the lowered [`DomainMap`] so
/// callers can run fault-domain operations; flat topologies have no
/// domains.
pub fn parse_target(spec: &str) -> Result<(Network, Option<Arc<DomainMap>>), String> {
    if is_machine_spec(spec) {
        let lowered = MachineModel::parse(spec)?.lower();
        Ok((lowered.net, Some(lowered.domains)))
    } else {
        parse_topology(spec).map(|net| (net, None))
    }
}

/// Builds a flat network from a `KIND[:ARGS]` spec string.
fn parse_topology(spec: &str) -> Result<Network, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let int = |s: &str| -> Result<usize, String> {
        s.parse().map_err(|_| format!("bad number '{s}' in topology '{spec}'"))
    };
    let dims = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("expected RxC in topology '{spec}'"))?;
        Ok((int(a)?, int(b)?))
    };
    // processors (saturated on overflow) and all-to-all links the spec
    // asks for, checked before the builder reserves anything
    let sized = |procs: Option<usize>, links: usize| -> Result<usize, String> {
        let procs = procs.unwrap_or(usize::MAX);
        check_size(procs, links).map_err(|e| format!("topology '{spec}': {e}"))?;
        Ok(procs)
    };
    let guard = |procs: Option<usize>| sized(procs, 0);
    Ok(match kind {
        "hypercube" => {
            let d = int(rest)?;
            guard(1usize.checked_shl(d.min(63) as u32))?;
            builders::hypercube(d)
        }
        "mesh2d" => {
            let (r, c) = dims(rest)?;
            guard(r.checked_mul(c))?;
            builders::mesh2d(r, c)
        }
        "torus2d" => {
            let (r, c) = dims(rest)?;
            guard(r.checked_mul(c))?;
            builders::torus2d(r, c)
        }
        "ring" => builders::ring(guard(Some(int(rest)?))?),
        "chain" => builders::chain(guard(Some(int(rest)?))?),
        "complete" => {
            let n = int(rest)?;
            builders::complete(sized(Some(n), n.saturating_mul(n) / 2)?)
        }
        "star" => builders::star(guard(Some(int(rest)?))?),
        "tree" => {
            let h = int(rest)?;
            // a full binary tree of height h has 2^(h+1) - 1 nodes
            guard(1usize.checked_shl((h.min(62) + 1) as u32))?;
            builders::full_binary_tree(h)
        }
        "butterfly" => {
            let d = int(rest)?;
            // (d+1) ranks of 2^d nodes
            guard(
                1usize
                    .checked_shl(d.min(63) as u32)
                    .and_then(|w| w.checked_mul(d + 1)),
            )?;
            builders::butterfly(d)
        }
        other => return Err(format!("unknown topology kind '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_typos_are_errors() {
        assert_eq!(parse_topology("hypercube:3").unwrap().num_procs(), 8);
        assert_eq!(parse_topology("mesh2d:2x3").unwrap().num_procs(), 6);
        assert!(parse_topology("hypercube:62").is_err());
        assert!(parse_topology("warp:9").is_err());
        assert!(parse_topology("mesh2d:4").is_err());
    }

    /// The bound is what a route table (`4n^2` bytes) and a dense link
    /// list may allocate, not a processor count picked by hand: each of
    /// these aborted the process on allocation before.
    #[test]
    fn specs_past_the_allocation_bound_are_errors_before_any_build() {
        for spec in [
            "complete:1048576",
            "complete:8192",
            "hypercube:17",
            "hypercube:20",
            "mesh-boards:32x32x32x32",
            "dragonfly:2x1x4000",
            "fat-tree:2x40",
        ] {
            let err = parse_target(spec).unwrap_err();
            assert!(err.contains("processor limit"), "{spec}: {err}");
        }
        assert_eq!(parse_target("hypercube:10").unwrap().0.num_procs(), 1024);
        assert_eq!(parse_target("complete:64").unwrap().0.num_links(), 64 * 63 / 2);
    }

    #[test]
    fn machine_specs_lower_with_domains() {
        let (net, domains) = parse_target("mesh-boards:2x2x2x2").unwrap();
        assert_eq!(net.num_procs(), 16);
        assert_eq!(domains.unwrap().num_domains(), 4);
        let (net, domains) = parse_target("hypercube:3").unwrap();
        assert_eq!(net.num_procs(), 8);
        assert!(domains.is_none());
        assert!(parse_target("mesh-boards:2x2").is_err());
        assert!(is_machine_spec("rc-array"));
        assert!(!is_machine_spec("ring:8"));
    }
}
