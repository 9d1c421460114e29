//! Property-based validation of hierarchical machine lowering and
//! correlated fault domains: board fault sets flatten to the same
//! degraded network as the bare processor list, and a full board
//! recovery restores the original machine byte-identically.

use oregami_topology::{FaultSet, MachineModel, ProcId, RouteTable};
use proptest::prelude::*;

/// A random small machine spec across every supported kind.
fn machine_spec() -> impl Strategy<Value = String> {
    prop_oneof![
        (1usize..3, 1usize..3, 2usize..4, 2usize..4)
            .prop_map(|(r, c, a, b)| format!("mesh-boards:{r}x{c}x{a}x{b}")),
        (2usize..4, 1usize..3).prop_map(|(a, h)| format!("fat-tree:{a}x{h}")),
        (2usize..4, 1usize..3, 1usize..4)
            .prop_map(|(g, a, p)| format!("dragonfly:{g}x{a}x{p}")),
        Just("rc-array:4".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Degrading through a board's correlated fault set (processors +
    /// intra-board links + uplinks) is byte-identical to degrading
    /// through the bare processor list: a dead processor already
    /// silences its incident links, listing them must change nothing.
    #[test]
    fn board_fault_set_flattens_to_bare_procs(
        spec in machine_spec(),
        board_pick in any::<u64>(),
    ) {
        let lowered = MachineModel::parse(&spec).expect("valid spec").lower();
        let (net, domains) = (&lowered.net, &lowered.domains);
        let board = (board_pick % domains.num_domains() as u64) as u32;

        let correlated = domains.board_fault_set(net, board).expect("board in range");
        let mut bare = FaultSet::new();
        for p in domains.procs_in(board) {
            bare.fail_proc(p);
        }
        // the correlated set must list exactly the links touching the board
        for (l, u, v) in net.links() {
            let touches = domains.domain_of(u) == board || domains.domain_of(v) == board;
            prop_assert_eq!(correlated.links().any(|x| x == l), touches);
        }

        match (net.degrade(&correlated), net.degrade(&bare)) {
            (Ok(d_corr), Ok(d_bare)) => {
                prop_assert_eq!(d_corr.failed_procs(), d_bare.failed_procs());
                prop_assert_eq!(d_corr.failed_links(), d_bare.failed_links());
                match (d_corr.route_table(), d_bare.route_table()) {
                    (Ok(rt_c), Ok(rt_b)) => {
                        for u in 0..net.num_procs() as u32 {
                            for v in 0..net.num_procs() as u32 {
                                prop_assert_eq!(
                                    rt_c.dist(ProcId(u), ProcId(v)),
                                    rt_b.dist(ProcId(u), ProcId(v))
                                );
                            }
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (c, b) => prop_assert!(
                        false,
                        "route tables disagree on survivability: {c:?} vs {b:?}"
                    ),
                }
            }
            // a single-board machine: killing the board kills everything,
            // and both flattenings must refuse identically
            (Err(e_corr), Err(e_bare)) => {
                prop_assert_eq!(format!("{e_corr:?}"), format!("{e_bare:?}"));
            }
            (c, b) => prop_assert!(
                false,
                "degrade disagrees between flattenings: {:?} vs {:?}",
                c.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Failing a board and then recovering it in full restores the
    /// original machine exactly: no residual faults, identical routes,
    /// identical structural signature.
    #[test]
    fn full_board_recovery_restores_original_network(
        spec in machine_spec(),
        board_pick in any::<u64>(),
    ) {
        let lowered = MachineModel::parse(&spec).expect("valid spec").lower();
        let (net, domains) = (&lowered.net, &lowered.domains);
        let board = (board_pick % domains.num_domains() as u64) as u32;
        let board_faults = domains.board_fault_set(net, board).expect("board in range");

        // recovery removes exactly the board's processors and links from
        // the cumulative fault picture — here the board was the only
        // casualty, so the set drains to empty
        let mut recovered = FaultSet::new();
        for p in board_faults.procs() {
            if domains.domain_of(p) != board {
                recovered.fail_proc(p);
            }
        }
        for l in board_faults.links() {
            let (u, v) = net.link_endpoints(l);
            if domains.domain_of(u) != board && domains.domain_of(v) != board {
                recovered.fail_link(l);
            }
        }
        prop_assert!(recovered.is_empty(), "a full recovery must drain the fault set");

        let healthy = net.degrade(&recovered).expect("empty fault set");
        prop_assert!(healthy.failed_procs().is_empty());
        prop_assert!(healthy.failed_links().is_empty());
        prop_assert_eq!(
            healthy.network().structural_signature(),
            net.structural_signature()
        );
        let rt_orig = RouteTable::try_new(net).expect("machines lower connected");
        let rt_back = healthy.route_table().expect("healthy machine is connected");
        for u in 0..net.num_procs() as u32 {
            for v in 0..net.num_procs() as u32 {
                prop_assert_eq!(rt_back.dist(ProcId(u), ProcId(v)), rt_orig.dist(ProcId(u), ProcId(v)));
            }
        }
    }

    /// With two boards down, recovering one leaves exactly the other
    /// board's correlated fault set — shared uplinks between the two
    /// boards stay failed because the surviving casualty still touches
    /// them.
    #[test]
    fn partial_recovery_leaves_the_other_boards_blast_radius(
        spec in machine_spec(),
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let lowered = MachineModel::parse(&spec).expect("valid spec").lower();
        let (net, domains) = (&lowered.net, &lowered.domains);
        let nd = domains.num_domains() as u64;
        prop_assume!(nd >= 2);
        let a = (pick_a % nd) as u32;
        let b = ((pick_a + 1 + pick_b % (nd - 1)) % nd) as u32;
        prop_assert_ne!(a, b);

        let fa = domains.board_fault_set(net, a).expect("a in range");
        let fb = domains.board_fault_set(net, b).expect("b in range");
        let mut both = FaultSet::new();
        for f in [&fa, &fb] {
            for p in f.procs() {
                both.fail_proc(p);
            }
            for l in f.links() {
                both.fail_link(l);
            }
        }
        // recover board a: drop its processors, and drop its links unless
        // they also touch the still-failed board b
        let mut remaining = FaultSet::new();
        for p in both.procs() {
            if domains.domain_of(p) != a {
                remaining.fail_proc(p);
            }
        }
        for l in both.links() {
            let (u, v) = net.link_endpoints(l);
            if domains.domain_of(u) == b || domains.domain_of(v) == b {
                remaining.fail_link(l);
            }
        }
        prop_assert_eq!(remaining, fb);
    }
}
