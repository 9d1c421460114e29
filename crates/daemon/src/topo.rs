//! Topology-spec parsing shared by the CLI and the daemon protocol:
//! `hypercube:3`, `mesh2d:4x4`, `ring:8`, ... plus hierarchical machine
//! specs (`mesh-boards:4x4x8x8`, `fat-tree:2x4`, `dragonfly:4x4x4`,
//! `rc-array`) lowered through [`MachineModel`]. [`parse_target`] is the
//! one way a spec string becomes a network; a spec past
//! [`check_size`] — a typo like `hypercube:62`, or `complete:1048576` —
//! comes back as a spec error before anything is allocated, and so does
//! one below the smallest shape its builder accepts (`ring:2`, `chain:1`,
//! `mesh2d:0x3`, ...), which would otherwise trip the builder's assertion.

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
    // the smallest shape a builder accepts: below it the builder asserts,
    // so the spec is refused here, before any builder runs
    let at_least = |got: usize, min: usize, what: &str| -> Result<usize, String> {
        if got >= min {
            Ok(got)
        } else {
            Err(format!("topology '{spec}': a {kind} needs {what}"))
        }
    };
    Ok(match kind {
        "hypercube" => {
            let d = at_least(int(rest)?, 1, "a dimension of at least 1")?;
            guard(1usize.checked_shl(d.min(63) as u32))?;
            builders::hypercube(d)
        }
        "mesh2d" => {
            let (r, c) = dims(rest)?;
            at_least(r.min(c), 1, "at least one row and one column")?;
            guard(r.checked_mul(c))?;
            builders::mesh2d(r, c)
        }
        "torus2d" => {
            let (r, c) = dims(rest)?;
            at_least(r.min(c), 1, "at least one row and one column")?;
            guard(r.checked_mul(c))?;
            builders::torus2d(r, c)
        }
        "ring" => {
            let n = at_least(int(rest)?, 3, "at least 3 processors")?;
            builders::ring(guard(Some(n))?)
        }
        "chain" => {
            let n = at_least(int(rest)?, 2, "at least 2 processors")?;
            builders::chain(guard(Some(n))?)
        }
        "complete" => {
            let n = at_least(int(rest)?, 2, "at least 2 processors")?;
            builders::complete(sized(Some(n), n.saturating_mul(n) / 2)?)
        }
        "star" => {
            let n = at_least(int(rest)?, 2, "at least 2 processors")?;
            builders::star(guard(Some(n))?)
        }
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

    /// Each of these tripped an `assert!` in `topology::builders` before:
    /// exit 101 from the CLI, a dead connection thread in the daemon.
    #[test]
    fn specs_below_a_builders_smallest_shape_are_errors_not_panics() {
        for spec in [
            "ring:2",
            "ring:0",
            "chain:1",
            "mesh2d:0x3",
            "mesh2d:3x0",
            "torus2d:0x3",
            "hypercube:0",
            "star:1",
            "complete:1",
            "complete:0",
        ] {
            let err = parse_target(spec).unwrap_err();
            let names_the_spec = err.starts_with(&format!("topology '{spec}': a "));
            assert!(names_the_spec, "{spec}: {err}");
        }
        // the smallest shapes themselves build
        for (spec, procs) in [
            ("ring:3", 3),
            ("chain:2", 2),
            ("mesh2d:1x1", 1),
            ("torus2d:1x1", 1),
            ("hypercube:1", 2),
            ("star:2", 2),
            ("complete:2", 2),
            ("tree:0", 1),
            ("butterfly:0", 1),
        ] {
            assert_eq!(parse_target(spec).unwrap().0.num_procs(), procs, "{spec}");
        }
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
