//! Property-based validation of the churn controller's always-valid
//! invariant: any random interleaving of spawn / depart / load / fault
//! / *recovery* events — including ones the controller rejects typed —
//! must end with a mapping that validates on the final degraded
//! network, and the whole run must be a pure function of the accepted
//! event sequence.

use oregami_mapper::churn::{
    ChurnConfig, ChurnController, ChurnEvent, ChurnStats, EventStream, StreamProfile,
};
use oregami_topology::{builders, LinkId, MachineModel, Network, ProcId};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn cfg() -> ChurnConfig {
    ChurnConfig {
        load_bound: 8,
        probe_interval: 8,
        debounce_events: 4,
        ..ChurnConfig::default()
    }
}

/// Drives `steps` randomly interleaved events through a controller on
/// `net`, tolerating typed rejections, and returns the controller plus
/// how many events it accepted.
fn drive(net: &Network, seed: u64, steps: usize) -> (ChurnController, u64) {
    let mut ctl = ChurnController::new(net.clone(), cfg()).expect("controller");
    let np = net.num_procs() as u64;
    let nl = net.num_links() as u64;
    let mut s = seed;
    let mut next_id = 0usize;
    let mut alive: Vec<usize> = Vec::new();
    for _ in 0..steps {
        let roll = splitmix(&mut s) % 100;
        let ev = if roll < 35 || alive.is_empty() {
            let parent = if alive.is_empty() || splitmix(&mut s).is_multiple_of(4) {
                None
            } else {
                Some(alive[(splitmix(&mut s) as usize) % alive.len()])
            };
            ChurnEvent::Spawn {
                task: next_id,
                parent,
                load: 1 + splitmix(&mut s) % 4,
                volume: splitmix(&mut s) % 8,
            }
        } else if roll < 48 {
            ChurnEvent::Depart {
                task: alive[(splitmix(&mut s) as usize) % alive.len()],
            }
        } else if roll < 60 {
            ChurnEvent::Load {
                task: alive[(splitmix(&mut s) as usize) % alive.len()],
                load: 1 + splitmix(&mut s) % 8,
            }
        } else if roll < 82 {
            if splitmix(&mut s).is_multiple_of(2) {
                ChurnEvent::Fault {
                    procs: vec![ProcId((splitmix(&mut s) % np) as u32)],
                    links: Vec::new(),
                }
            } else {
                ChurnEvent::Fault {
                    procs: Vec::new(),
                    links: vec![LinkId((splitmix(&mut s) % nl) as u32)],
                }
            }
        } else {
            // recover one currently-failed element, if any
            let fs = ctl.fault_set();
            let procs: Vec<ProcId> = fs.procs().collect();
            let links: Vec<LinkId> = fs.links().collect();
            if !procs.is_empty() && (links.is_empty() || splitmix(&mut s).is_multiple_of(2)) {
                ChurnEvent::Recover {
                    procs: vec![procs[(splitmix(&mut s) as usize) % procs.len()]],
                    links: Vec::new(),
                }
            } else if !links.is_empty() {
                ChurnEvent::Recover {
                    procs: Vec::new(),
                    links: vec![links[(splitmix(&mut s) as usize) % links.len()]],
                }
            } else {
                ChurnEvent::Load {
                    task: alive[(splitmix(&mut s) as usize) % alive.len()],
                    load: 1 + splitmix(&mut s) % 8,
                }
            }
        };
        let accepted = ctl.ingest(&ev).is_ok();
        if accepted {
            match ev {
                ChurnEvent::Spawn { task, .. } => {
                    alive.push(task);
                    next_id += 1;
                }
                ChurnEvent::Depart { task } => alive.retain(|&t| t != task),
                _ => {}
            }
        }
        // the invariant holds after EVERY event, accepted or rejected
        if let Err(e) = ctl.validate() {
            panic!("invariant broken after {ev:?} (accepted={accepted}): {e}");
        }
    }
    let events = ctl.events();
    (ctl, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fault/recovery interleavings always end valid on the
    /// final network, and recovering every failed element restores the
    /// full machine.
    #[test]
    fn random_interleaving_ends_valid_on_final_network(
        seed in any::<u64>(),
        steps in 40usize..240,
        dim in 2u32..4,
    ) {
        let net = builders::hypercube(dim as usize);
        let (mut ctl, _) = drive(&net, seed, steps);
        prop_assert!(ctl.validate().is_ok());

        // recover everything still failed: the controller must accept it
        // and come back to the healthy network
        let fs = ctl.fault_set();
        let procs: Vec<ProcId> = fs.procs().collect();
        let links: Vec<LinkId> = fs.links().collect();
        if !procs.is_empty() || !links.is_empty() {
            ctl.ingest(&ChurnEvent::Recover { procs, links })
                .expect("recovering every failed element must succeed");
        }
        prop_assert!(ctl.validate().is_ok());
        prop_assert_eq!(ctl.degraded().num_alive(), net.num_procs());
        let healed = ctl.fault_set();
        prop_assert_eq!(healed.procs().count(), 0);
        prop_assert_eq!(healed.links().count(), 0);
    }

    /// Correlated board-loss storms compose with the recovery property:
    /// a machine-model network driven by whole-board faults and
    /// recoveries stays valid after every event, and recovering every
    /// failed element restores the full machine.
    #[test]
    fn board_storms_end_valid_and_fully_recoverable(
        seed in any::<u64>(),
        events in 60u64..200,
    ) {
        let lowered = MachineModel::parse("mesh-boards:2x2x3x3").expect("spec").lower();
        let net = lowered.net.clone();
        let mut ctl = ChurnController::new(net.clone(), cfg())
            .expect("controller")
            .with_domains(lowered.domains.clone());
        let stream = EventStream::new(
            net.clone(),
            StreamProfile::BoardStorm,
            seed,
            events,
            cfg().load_bound,
        )
        .with_domains(lowered.domains.clone());
        for ev in stream {
            let accepted = ctl.ingest(&ev).is_ok();
            if let Err(e) = ctl.validate() {
                panic!("invariant broken after {ev:?} (accepted={accepted}): {e}");
            }
        }
        let fs = ctl.fault_set();
        let procs: Vec<ProcId> = fs.procs().collect();
        let links: Vec<LinkId> = fs.links().collect();
        if !procs.is_empty() || !links.is_empty() {
            ctl.ingest(&ChurnEvent::Recover { procs, links })
                .expect("recovering every failed element must succeed");
        }
        prop_assert!(ctl.validate().is_ok());
        prop_assert_eq!(ctl.degraded().num_alive(), net.num_procs());
    }

    /// The controller is a pure function of the accepted event prefix:
    /// the same random drive twice gives byte-identical state records.
    #[test]
    fn same_interleaving_is_byte_deterministic(
        seed in any::<u64>(),
        steps in 40usize..200,
    ) {
        let net = builders::hypercube(3);
        let (a, ea) = drive(&net, seed, steps);
        let (b, eb) = drive(&net, seed, steps);
        prop_assert_eq!(ea, eb);
        prop_assert_eq!(a.state_record(), b.state_record());
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Three seeded 20k-event streams on the `churn_stream` workload's
/// shape (hypercube 4, bound 8, generator at 7, seed 11), pinned to the
/// values taken on the commit before the controller got its live index:
/// the `state_record()` and `snapshot_json()` digests, a chained digest
/// of every per-event `Result<ChurnOutcome, ChurnError>`, and the full
/// `ChurnStats`. Any change to the controller's bookkeeping must
/// reproduce them byte for byte.
#[test]
fn golden_streams_reproduce_the_pinned_state_and_stats() {
    struct Golden {
        profile: StreamProfile,
        record: u64,
        outcomes: u64,
        snapshot: u64,
        live: usize,
        stats: ChurnStats,
    }
    let golden = [
        Golden {
            profile: StreamProfile::Bursty,
            record: 0x14fb703a3d73f907,
            outcomes: 0x78e6f0bc9dc65730,
            snapshot: 0x920b6d145c722e0e,
            live: 107,
            stats: ChurnStats {
                events: 20000,
                rejected: 0,
                spawns: 5166,
                departures: 5059,
                load_updates: 6050,
                faults: 1863,
                recoveries: 1862,
                forced_migrations: 0,
                voluntary_migrations: 44,
                migration_traffic: 68,
                probes: 238,
                probe_rejected: 194,
                escalations: 2,
                degraded_completions: 0,
                failed_escalations: 0,
                max_window_migrations: 4,
            },
        },
        Golden {
            profile: StreamProfile::Diurnal,
            record: 0xf5d6987c64485030,
            outcomes: 0x428437de666aeb16,
            snapshot: 0xf66f21910a91369e,
            live: 24,
            stats: ChurnStats {
                events: 20000,
                rejected: 0,
                spawns: 2045,
                departures: 2021,
                load_updates: 14274,
                faults: 832,
                recoveries: 828,
                forced_migrations: 1509,
                voluntary_migrations: 13,
                migration_traffic: 3099,
                probes: 232,
                probe_rejected: 219,
                escalations: 42,
                degraded_completions: 0,
                failed_escalations: 0,
                max_window_migrations: 2,
            },
        },
        Golden {
            profile: StreamProfile::FlapStorm,
            record: 0xc6fc302b72a99570,
            outcomes: 0x18c2f965993056a9,
            snapshot: 0xd6a3e74e2f3d4a66,
            live: 109,
            stats: ChurnStats {
                events: 20000,
                rejected: 0,
                spawns: 2107,
                departures: 1998,
                load_updates: 7360,
                faults: 4269,
                recoveries: 4266,
                forced_migrations: 832,
                voluntary_migrations: 42,
                migration_traffic: 1732,
                probes: 321,
                probe_rejected: 279,
                escalations: 2,
                degraded_completions: 0,
                failed_escalations: 0,
                max_window_migrations: 3,
            },
        },
    ];
    for g in golden {
        let name = g.profile.name();
        let net = builders::hypercube(4);
        let config = ChurnConfig {
            load_bound: 8,
            ..ChurnConfig::default()
        };
        let mut ctl = ChurnController::new(net.clone(), config.clone()).expect("controller");
        let mut outcomes = 0xcbf2_9ce4_8422_2325u64;
        let stream = EventStream::new(net, g.profile, 11, 20_000, config.load_bound - 1);
        for (i, ev) in stream.enumerate() {
            let r = ctl.ingest(&ev);
            outcomes = fnv1a(format!("{outcomes:x} {r:?}").as_bytes());
            if i % 500 == 0 {
                ctl.validate()
                    .unwrap_or_else(|e| panic!("{name} event {i}: {e}"));
            }
        }
        ctl.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(ctl.stats(), &g.stats, "{name}: stats");
        assert_eq!(ctl.num_live(), g.live, "{name}: live tasks");
        assert_eq!(outcomes, g.outcomes, "{name}: per-event outcomes");
        assert_eq!(
            fnv1a(ctl.state_record().as_bytes()),
            g.record,
            "{name}: state record"
        );
        assert_eq!(
            fnv1a(ctl.snapshot_json().as_bytes()),
            g.snapshot,
            "{name}: snapshot"
        );
    }
}

/// A fault costs what the live set costs, not what the history costs:
/// the same 100 live tasks take the same 2 000 fault/recover flaps
/// behind 200 and behind 200 000 departed slots. Walking the history
/// made the long one about a hundred times slower; the bound of 20
/// leaves room for cache misses on the larger tables and for noise.
#[test]
fn fault_cost_is_independent_of_departed_history() {
    fn flaps_after(departed: usize) -> std::time::Duration {
        let net = builders::hypercube(4);
        let mut ctl = ChurnController::new(net, cfg()).expect("controller");
        let mut next = 0usize;
        let mut spawn = |ctl: &mut ChurnController, parent: Option<usize>| {
            ctl.ingest(&ChurnEvent::Spawn {
                task: next,
                parent,
                load: 1,
                volume: 3,
            })
            .expect("spawn");
            next += 1;
            next - 1
        };
        // the history: children of one root that come and go
        let root = spawn(&mut ctl, None);
        for _ in 0..departed {
            let t = spawn(&mut ctl, Some(root));
            ctl.ingest(&ChurnEvent::Depart { task: t }).expect("depart");
        }
        // the live set: a chain of 99 more tasks under the root
        let mut parent = root;
        for _ in 0..99 {
            parent = spawn(&mut ctl, Some(parent));
        }
        assert_eq!(ctl.num_live(), 100);
        assert_eq!(ctl.num_tasks(), departed + 100);
        let started = std::time::Instant::now();
        for i in 0..2000u32 {
            let links = vec![LinkId(i % 8)];
            ctl.ingest(&ChurnEvent::Fault {
                procs: Vec::new(),
                links: links.clone(),
            })
            .expect("fault");
            ctl.ingest(&ChurnEvent::Recover {
                procs: Vec::new(),
                links,
            })
            .expect("recover");
        }
        let took = started.elapsed();
        ctl.validate().expect("valid after the flaps");
        took
    }
    let short = flaps_after(200);
    let long = flaps_after(200_000);
    let ratio = long.as_secs_f64() / short.as_secs_f64().max(1e-9);
    assert!(
        ratio < 20.0,
        "2000 flaps took {short:?} behind 200 departed slots and {long:?} behind 200000 ({ratio:.1}x)"
    );
}
