//! Hierarchical machine models: composite topologies with per-level link
//! bandwidths, per-processor speed/memory capacities, correlated fault
//! domains, and a boot-time health scan.
//!
//! The paper assumes a flat, homogeneous, fully healthy machine, but the
//! machines worth mapping onto are hierarchical and partially broken:
//! SpiNNaker-class systems are boards → chips → cores with dead cores and
//! links discovered at boot, and MorphoSys is a fixed 8×8 RC array with a
//! per-phase reconfiguration cost. This module models such machines as a
//! [`MachineModel`] that *lowers* deterministically into the flat
//! [`Network`] the rest of the toolchain already understands, plus:
//!
//! * [`MachineAttrs`] — per-processor speed (millis of the homogeneous
//!   baseline 1000) and memory capacity, per-link bandwidth by level, and
//!   the RC array's per-phase reconfiguration cost. Attached to the
//!   lowered [`Network`] and folded into its structural signature so two
//!   machines differing only in level parameters never alias a route-table
//!   cache entry.
//! * [`DomainMap`] — processor → domain path (board, group, pod, quadrant)
//!   at every level of the hierarchy. Fault *domains* expand to the
//!   correlated [`FaultSet`] that kills a domain's processors, its
//!   internal links, **and** its uplinks atomically.
//! * [`boot_scan`] — a seeded "dead at boot" discovery pass producing a
//!   [`HealthReport`] (per-domain alive counts) and the [`FaultSet`] that
//!   seeds the initial degraded network, mirroring SpiNNTools' boot scan.
//!
//! Lowering conventions (all deterministic — same model, same ids):
//!
//! * `mesh-boards` — `R×C` boards on a torus (wrap links only along
//!   dimensions > 2, matching `builders::torus2d`), each board an `r×c`
//!   mesh. Processors are board-major, row-major within a board. Uplinks
//!   join facing edge processors of adjacent boards (one per mesh row for
//!   horizontal neighbours, one per mesh column for vertical).
//! * `fat-tree` — `arity^height` leaf processors; switches are folded
//!   away: the leaves under each level-1 switch form a clique (level-0
//!   links), and the lowest leaf of each subtree represents it in cliques
//!   at every higher level.
//! * `dragonfly` — groups × routers × processors; processors sharing a
//!   router clique at level 0, router representatives clique within a
//!   group at level 1, group representatives connect all-to-all at
//!   level 2.
//! * `rc-array` — the MorphoSys 8×8 mesh; domains are the four 4×4
//!   quadrants, and [`MachineAttrs::reconfig_cost_millis`] carries the
//!   per-phase reconfiguration charge.

use crate::fault::{FaultSet, TopologyError};
use crate::network::{LinkId, Network, ProcId, TopologyKind};
use crate::routes::check_size;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Baseline for the fixed-point millis scales: a processor of speed 1000
/// and a link of bandwidth 1000 behave exactly like the paper's
/// homogeneous machine.
pub const BASELINE_MILLIS: u32 = 1000;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shape of a hierarchical machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// `board_rows × board_cols` boards on a torus, each board a
    /// `mesh_rows × mesh_cols` mesh of processors.
    MeshBoards {
        /// Board-grid rows.
        board_rows: usize,
        /// Board-grid columns.
        board_cols: usize,
        /// Processor rows per board.
        mesh_rows: usize,
        /// Processor columns per board.
        mesh_cols: usize,
    },
    /// Folded fat-tree with `arity^height` leaf processors.
    FatTree {
        /// Children per switch (≥ 2).
        arity: usize,
        /// Tree height (≥ 1); leaves = `arity^height`.
        height: usize,
    },
    /// Dragonfly: `groups` groups of `routers` routers with `procs`
    /// processors each.
    Dragonfly {
        /// Number of groups (≥ 2).
        groups: usize,
        /// Routers per group (≥ 1).
        routers: usize,
        /// Processors per router (≥ 1).
        procs: usize,
    },
    /// The MorphoSys-style 8×8 reconfigurable-cell array.
    RcArray {
        /// Number of configuration phases the application cycles through.
        phases: u32,
    },
}

impl MachineKind {
    /// Total processors after lowering (saturating, so an absurd spec
    /// reads as too large instead of wrapping to something small).
    pub fn num_procs(&self) -> usize {
        match *self {
            MachineKind::MeshBoards {
                board_rows,
                board_cols,
                mesh_rows,
                mesh_cols,
            } => board_rows
                .saturating_mul(board_cols)
                .saturating_mul(mesh_rows)
                .saturating_mul(mesh_cols),
            MachineKind::FatTree { arity, height } => {
                arity.saturating_pow(u32::try_from(height).unwrap_or(u32::MAX))
            }
            MachineKind::Dragonfly {
                groups,
                routers,
                procs,
            } => groups.saturating_mul(routers).saturating_mul(procs),
            MachineKind::RcArray { .. } => 64,
        }
    }

    /// Links in the all-to-all parts of the lowering, the only ones that
    /// outgrow the processor count: a dragonfly's processors per router,
    /// routers per group, and groups.
    fn dense_links(&self) -> usize {
        let pairs = |n: usize| n.saturating_mul(n.saturating_sub(1)) / 2;
        match *self {
            MachineKind::Dragonfly {
                groups,
                routers,
                procs,
            } => pairs(procs)
                .saturating_mul(routers)
                .saturating_add(pairs(routers))
                .saturating_mul(groups)
                .saturating_add(pairs(groups)),
            _ => 0,
        }
    }

    /// Number of link levels (level 0 = innermost).
    fn num_levels(&self) -> usize {
        match *self {
            MachineKind::MeshBoards { .. } => 2,
            MachineKind::FatTree { height, .. } => height,
            MachineKind::Dragonfly { .. } => 3,
            MachineKind::RcArray { .. } => 1,
        }
    }
}

/// Per-component attributes of a lowered machine. Attached to the lowered
/// [`Network`] via [`Network::with_machine_attrs`]; the fingerprint is
/// folded into the structural signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineAttrs {
    proc_speed_millis: Vec<u32>,
    proc_memory: Vec<u64>,
    link_bandwidth_millis: Vec<u32>,
    link_level: Vec<u8>,
    level_bandwidth_millis: Vec<u32>,
    reconfig_cost_millis: u32,
    fingerprint: u64,
}

impl MachineAttrs {
    /// Builds attributes from explicit per-component vectors.
    ///
    /// # Panics
    /// If `link_bandwidth_millis` and `link_level` lengths differ, or any
    /// speed/bandwidth is zero.
    pub fn new(
        proc_speed_millis: Vec<u32>,
        proc_memory: Vec<u64>,
        link_bandwidth_millis: Vec<u32>,
        link_level: Vec<u8>,
        level_bandwidth_millis: Vec<u32>,
        reconfig_cost_millis: u32,
    ) -> MachineAttrs {
        assert_eq!(
            link_bandwidth_millis.len(),
            link_level.len(),
            "one level per link required"
        );
        assert!(
            proc_speed_millis.iter().all(|&s| s > 0),
            "processor speeds must be positive"
        );
        assert!(
            link_bandwidth_millis.iter().all(|&b| b > 0),
            "link bandwidths must be positive"
        );
        let mut h = std::collections::hash_map::DefaultHasher::new();
        proc_speed_millis.hash(&mut h);
        proc_memory.hash(&mut h);
        link_bandwidth_millis.hash(&mut h);
        link_level.hash(&mut h);
        level_bandwidth_millis.hash(&mut h);
        reconfig_cost_millis.hash(&mut h);
        let fingerprint = h.finish().max(1); // 0 is reserved for "no attrs"
        MachineAttrs {
            proc_speed_millis,
            proc_memory,
            link_bandwidth_millis,
            link_level,
            level_bandwidth_millis,
            reconfig_cost_millis,
            fingerprint,
        }
    }

    /// Processors covered.
    pub fn num_procs(&self) -> usize {
        self.proc_speed_millis.len()
    }

    /// Links covered.
    pub fn num_links(&self) -> usize {
        self.link_bandwidth_millis.len()
    }

    /// Speed of `p` in millis of the baseline (1000 = baseline; 500 runs
    /// at half speed, so its compute load weighs double).
    pub fn speed_millis(&self, p: ProcId) -> u32 {
        self.proc_speed_millis[p.index()]
    }

    /// Memory capacity of `p`, in abstract units (0 = unconstrained).
    pub fn memory(&self, p: ProcId) -> u64 {
        self.proc_memory[p.index()]
    }

    /// Bandwidth of link `l` in millis of the baseline (1000 = baseline;
    /// 250 carries a quarter of the traffic per step, so its contention
    /// weighs 4×).
    pub fn bandwidth_millis(&self, l: LinkId) -> u32 {
        self.link_bandwidth_millis[l.index()]
    }

    /// Configured bandwidth per level, millis of baseline.
    pub fn level_bandwidths(&self) -> &[u32] {
        &self.level_bandwidth_millis
    }

    /// The RC array's per-phase reconfiguration cost (0 elsewhere); added
    /// once per phase transition to capacity-aware completion estimates.
    pub fn reconfig_cost_millis(&self) -> u32 {
        self.reconfig_cost_millis
    }

    /// Stable hash of every attribute vector; never 0 (0 means "no attrs"
    /// in signature folding).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Attributes for the network that survives a fault set: processor
    /// vectors are unchanged (numbering is preserved), link vectors are
    /// re-indexed to the surviving dense link ids, in original order.
    pub(crate) fn for_surviving_links(&self, orig_links: &[LinkId]) -> MachineAttrs {
        MachineAttrs::new(
            self.proc_speed_millis.clone(),
            self.proc_memory.clone(),
            orig_links
                .iter()
                .map(|l| self.link_bandwidth_millis[l.index()])
                .collect(),
            orig_links.iter().map(|l| self.link_level[l.index()]).collect(),
            self.level_bandwidth_millis.clone(),
            self.reconfig_cost_millis,
        )
    }

    /// Attributes for a compacted survivor network: processor vectors are
    /// gathered through `to_orig` (compact id → original id), link vectors
    /// through `orig_links`.
    pub(crate) fn for_compacted(
        &self,
        to_orig: &[ProcId],
        orig_links: &[LinkId],
    ) -> MachineAttrs {
        MachineAttrs::new(
            to_orig
                .iter()
                .map(|p| self.proc_speed_millis[p.index()])
                .collect(),
            to_orig.iter().map(|p| self.proc_memory[p.index()]).collect(),
            orig_links
                .iter()
                .map(|l| self.link_bandwidth_millis[l.index()])
                .collect(),
            orig_links.iter().map(|l| self.link_level[l.index()]).collect(),
            self.level_bandwidth_millis.clone(),
            self.reconfig_cost_millis,
        )
    }
}

/// Processor → domain-path map for a lowered machine.
///
/// Level 0 is the top of the hierarchy (the "board"); deeper levels
/// subdivide it (mesh row, router, subtree). Every id is global within its
/// level, so `(level, index)` names a [`FaultDomain`] unambiguously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomainMap {
    num_domains: usize,
    /// proc → top-level domain.
    domain_of: Vec<u32>,
    /// proc → full path, one global id per level (path\[0\] == domain_of).
    path_of: Vec<Vec<u32>>,
    /// Domains per level (counts\[0\] == num_domains).
    domains_per_level: Vec<usize>,
}

impl DomainMap {
    fn from_paths(path_of: Vec<Vec<u32>>) -> DomainMap {
        let depth = path_of.first().map_or(0, Vec::len);
        let mut domains_per_level = vec![0usize; depth];
        for path in &path_of {
            debug_assert_eq!(path.len(), depth);
            for (l, &d) in path.iter().enumerate() {
                domains_per_level[l] = domains_per_level[l].max(d as usize + 1);
            }
        }
        DomainMap {
            num_domains: domains_per_level.first().copied().unwrap_or(0),
            domain_of: path_of.iter().map(|p| p[0]).collect(),
            path_of,
            domains_per_level,
        }
    }

    /// Number of top-level domains.
    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// Number of processors covered.
    pub fn num_procs(&self) -> usize {
        self.domain_of.len()
    }

    /// Hierarchy depth (levels in each processor's path).
    pub fn depth(&self) -> usize {
        self.domains_per_level.len()
    }

    /// Number of domains at `level` (0 = top).
    fn domains_at(&self, level: usize) -> usize {
        self.domains_per_level.get(level).copied().unwrap_or(0)
    }

    /// Top-level domain of processor `p`.
    ///
    /// # Panics
    /// If `p` is out of range.
    pub fn domain_of(&self, p: ProcId) -> u32 {
        self.domain_of[p.index()]
    }

    /// Processors of top-level domain `d`, ascending.
    pub fn procs_in(&self, d: u32) -> impl Iterator<Item = ProcId> + '_ {
        self.domain_of
            .iter()
            .enumerate()
            .filter(move |(_, &dom)| dom == d)
            .map(|(i, _)| ProcId(i as u32))
    }

    /// Expands a fault domain into the correlated [`FaultSet`] that takes
    /// the domain's processors, its internal links, **and** its uplinks
    /// out of service atomically. Degrading through this set is
    /// byte-identical to degrading through the bare processor list — a
    /// dead processor already silences its incident links — but listing
    /// the links makes the blast radius explicit to journals and reports.
    pub fn fault_set(
        &self,
        net: &Network,
        domain: FaultDomain,
    ) -> Result<FaultSet, TopologyError> {
        if domain.level >= self.depth()
            || (domain.index as usize) >= self.domains_at(domain.level)
        {
            return Err(TopologyError::DomainOutOfRange {
                level: domain.level,
                index: domain.index,
                num_domains: self.domains_at(domain.level),
            });
        }
        assert_eq!(
            net.num_procs(),
            self.num_procs(),
            "domain map built for a different machine"
        );
        let dead = |p: ProcId| self.path_of[p.index()][domain.level] == domain.index;
        let mut faults = FaultSet::new();
        for p in (0..net.num_procs() as u32).map(ProcId) {
            if dead(p) {
                faults.fail_proc(p);
            }
        }
        for (l, u, v) in net.links() {
            if dead(u) || dead(v) {
                faults.fail_link(l);
            }
        }
        Ok(faults)
    }

    /// Convenience for the common case: the correlated fault set of
    /// top-level domain `board`.
    pub fn board_fault_set(&self, net: &Network, board: u32) -> Result<FaultSet, TopologyError> {
        self.fault_set(net, FaultDomain { level: 0, index: board })
    }

    /// Per-domain alive counts under a liveness mask, plus the number of
    /// degraded domains (any dead processor) — the daemon's health view.
    pub fn alive_per_domain(&self, alive: &[bool]) -> (Vec<u32>, usize) {
        let mut counts = vec![0u32; self.num_domains];
        let mut sizes = vec![0u32; self.num_domains];
        for (i, &d) in self.domain_of.iter().enumerate() {
            sizes[d as usize] += 1;
            if alive.get(i).copied().unwrap_or(false) {
                counts[d as usize] += 1;
            }
        }
        let degraded = counts
            .iter()
            .zip(&sizes)
            .filter(|(a, s)| a < s)
            .count();
        (counts, degraded)
    }
}

/// A correlated fault mask: "everything under domain `index` at `level`
/// dies together". Level 0 is the top of the hierarchy (board, group,
/// pod, quadrant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultDomain {
    /// Hierarchy level (0 = top).
    pub level: usize,
    /// Global domain id at that level.
    pub index: u32,
}

impl fmt::Display for FaultDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}:{}", self.level, self.index)
    }
}

/// What the boot-time health-discovery pass found: the dead-at-boot mask
/// and its per-domain shape. Mirrors SpiNNTools' boot scan — the machine
/// you map onto is the machine that actually came up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// Seed the scan ran with.
    pub seed: u64,
    /// Processors that failed the boot scan, ascending.
    pub dead_procs: Vec<ProcId>,
    /// Links that failed the boot scan on their own (beyond those silenced
    /// by dead processors), ascending.
    pub dead_links: Vec<LinkId>,
    /// Top-level domains in the machine.
    pub domains_total: usize,
    /// Domains with at least one dead processor.
    pub domains_degraded: usize,
    /// Alive processors per top-level domain.
    pub alive_per_domain: Vec<u32>,
    /// Total processors per top-level domain.
    pub size_per_domain: Vec<u32>,
}

impl HealthReport {
    /// The fault set seeding the initial degraded network.
    pub fn fault_set(&self) -> FaultSet {
        let mut f = FaultSet::new();
        for &p in &self.dead_procs {
            f.fail_proc(p);
        }
        for &l in &self.dead_links {
            f.fail_link(l);
        }
        f
    }
}

/// Boot-time health discovery: every processor and link is probed, and
/// each fails independently with probability `dead_permille`/1000,
/// deterministically from `seed`. The lowest-numbered processor always
/// boots (some monitor has to report the wreckage), so the resulting
/// fault set never kills the whole machine.
pub fn boot_scan(
    net: &Network,
    domains: &DomainMap,
    seed: u64,
    dead_permille: u32,
) -> HealthReport {
    let threshold = (u64::MAX / 1000).saturating_mul(dead_permille.min(1000) as u64);
    let mut dead_procs = Vec::new();
    let mut alive = vec![true; net.num_procs()];
    for p in 1..net.num_procs() as u64 {
        if splitmix64(seed ^ 0x70726f63 ^ p) < threshold {
            alive[p as usize] = false;
            dead_procs.push(ProcId(p as u32));
        }
    }
    let mut dead_links = Vec::new();
    for (l, u, v) in net.links() {
        if !alive[u.index()] || !alive[v.index()] {
            continue; // already silenced; not an independent link fault
        }
        if splitmix64(seed ^ 0x6c696e6b ^ (l.0 as u64)) < threshold {
            dead_links.push(l);
        }
    }
    let (alive_per_domain, domains_degraded) = domains.alive_per_domain(&alive);
    let mut size_per_domain = vec![0u32; domains.num_domains()];
    for p in (0..net.num_procs() as u32).map(ProcId) {
        size_per_domain[domains.domain_of(p) as usize] += 1;
    }
    HealthReport {
        seed,
        dead_procs,
        dead_links,
        domains_total: domains.num_domains(),
        domains_degraded,
        alive_per_domain,
        size_per_domain,
    }
}

/// A lowered machine: the flat [`Network`] (attributes attached) plus the
/// domain map the robustness layer navigates by.
#[derive(Clone, Debug)]
pub struct LoweredMachine {
    /// The flat network, with [`MachineAttrs`] attached and folded into
    /// its structural signature.
    pub net: Network,
    /// Processor → domain paths.
    pub domains: Arc<DomainMap>,
}

/// A hierarchical machine description: a shape plus level parameters.
/// [`MachineModel::lower`] turns it into the flat network + domain map the
/// toolchain runs on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineModel {
    /// The composite shape.
    pub kind: MachineKind,
    /// Bandwidth per level, millis of baseline, level 0 first. Missing
    /// levels default to halving per level up (1000, 500, 250, …).
    pub level_bandwidth_millis: Vec<u32>,
    /// Processor speed pattern, cycled over processor ids (`[1000]` =
    /// homogeneous baseline).
    pub proc_speed_millis: Vec<u32>,
    /// Processor memory pattern, cycled over processor ids (0 =
    /// unconstrained).
    pub proc_memory: Vec<u64>,
    /// Per-phase reconfiguration cost (RC array; 0 elsewhere).
    pub reconfig_cost_millis: u32,
}

impl MachineModel {
    /// A model of `kind` with baseline attributes: homogeneous speed 1000,
    /// unconstrained memory, level bandwidths halving per level up.
    pub fn new(kind: MachineKind) -> MachineModel {
        MachineModel {
            kind,
            level_bandwidth_millis: Vec::new(),
            proc_speed_millis: vec![BASELINE_MILLIS],
            proc_memory: vec![0],
            reconfig_cost_millis: 0,
        }
    }

    /// Display name, e.g. `mesh-boards(4x4x8x8)`.
    pub fn name(&self) -> String {
        match self.kind {
            MachineKind::MeshBoards {
                board_rows,
                board_cols,
                mesh_rows,
                mesh_cols,
            } => format!("mesh-boards({board_rows}x{board_cols}x{mesh_rows}x{mesh_cols})"),
            MachineKind::FatTree { arity, height } => format!("fat-tree({arity}^{height})"),
            MachineKind::Dragonfly {
                groups,
                routers,
                procs,
            } => format!("dragonfly({groups}x{routers}x{procs})"),
            MachineKind::RcArray { phases } => format!("rc-array({phases})"),
        }
    }

    /// Effective bandwidth of `level`: the configured value, or the
    /// halving default `1000 >> level` (min 1).
    fn level_bandwidth(&self, level: usize) -> u32 {
        self.level_bandwidth_millis
            .get(level)
            .copied()
            .unwrap_or_else(|| (BASELINE_MILLIS >> level.min(9)).max(1))
    }

    /// Lowers the model into the flat network plus domain map. The same
    /// model always lowers to the same processor/link numbering and
    /// attribute vectors — lowering is the determinism boundary everything
    /// downstream (caches, journals, proptests) relies on.
    ///
    /// # Panics
    /// On degenerate shapes (zero-sized dimensions, arity < 2, machines
    /// past [`check_size`]). Use [`MachineModel::parse`] for untrusted
    /// input — it validates first.
    pub fn lower(&self) -> LoweredMachine {
        let n = self.kind.num_procs();
        assert!(n > 0, "machine has no processors");
        if let Err(e) = check_size(n, self.kind.dense_links()) {
            panic!("machine of {n} processors: {e}");
        }
        let mut links = LevelledLinks::default();
        let paths = match self.kind {
            MachineKind::MeshBoards {
                board_rows,
                board_cols,
                mesh_rows,
                mesh_cols,
            } => lower_mesh_boards(board_rows, board_cols, mesh_rows, mesh_cols, &mut links),
            MachineKind::FatTree { arity, height } => lower_fat_tree(arity, height, &mut links),
            MachineKind::Dragonfly {
                groups,
                routers,
                procs,
            } => lower_dragonfly(groups, routers, procs, &mut links),
            MachineKind::RcArray { .. } => lower_rc_array(&mut links),
        };
        debug_assert_eq!(paths.len(), n);
        self.finish_lowering(n, links, paths)
    }

    fn finish_lowering(
        &self,
        n: usize,
        links: LevelledLinks,
        paths: Vec<Vec<u32>>,
    ) -> LoweredMachine {
        let LevelledLinks { links, levels } = links;
        let speeds: Vec<u32> = (0..n)
            .map(|p| self.proc_speed_millis[p % self.proc_speed_millis.len().max(1)].max(1))
            .collect();
        let memories: Vec<u64> = (0..n)
            .map(|p| {
                self.proc_memory
                    .get(p % self.proc_memory.len().max(1))
                    .copied()
                    .unwrap_or(0)
            })
            .collect();
        let bandwidths: Vec<u32> = levels
            .iter()
            .map(|&l| self.level_bandwidth(l as usize))
            .collect();
        let level_bw: Vec<u32> = (0..self.kind.num_levels())
            .map(|l| self.level_bandwidth(l))
            .collect();
        let attrs = Arc::new(MachineAttrs::new(
            speeds,
            memories,
            bandwidths,
            levels,
            level_bw,
            self.reconfig_cost_millis,
        ));
        let net = Network::from_links(self.name(), TopologyKind::Custom, n, links)
            .with_machine_attrs(attrs);
        let domains = Arc::new(DomainMap::from_paths(paths));
        debug_assert_eq!(domains.num_procs(), net.num_procs());
        LoweredMachine { net, domains }
    }

    /// Parses a machine spec:
    ///
    /// ```text
    /// mesh-boards:RxCxrxc   R×C boards, each an r×c mesh
    /// fat-tree:AxH          arity A, height H (A^H leaves)
    /// dragonfly:GxAxP       G groups × A routers × P procs
    /// rc-array[:PHASES]     the 8×8 RC array (default 4 phases)
    /// ```
    ///
    /// Optional comma-separated attributes after the dims:
    /// `bw=L0/L1/…` (per-level bandwidth millis), `speed=S0/S1/…`
    /// (processor speed pattern, cycled), `mem=M` (uniform memory units),
    /// `reconfig=MS` (RC-array per-phase reconfiguration cost).
    ///
    /// Example: `mesh-boards:4x4x8x8,bw=1000/250,speed=1000/500`.
    pub fn parse(spec: &str) -> Result<MachineModel, String> {
        let spec = spec.trim();
        let (head, rest) = match spec.split_once(':') {
            Some((h, r)) => (h.trim(), r.trim()),
            None => (spec, ""),
        };
        let mut parts = rest.split(',').map(str::trim);
        let dims = parts.next().unwrap_or("");
        let parse_dims = |s: &str, want: usize, what: &str| -> Result<Vec<usize>, String> {
            let ds: Vec<usize> = s
                .split('x')
                .map(|d| d.trim().parse::<usize>().map_err(|_| format!("bad {what} dims '{s}'")))
                .collect::<Result<_, _>>()?;
            if ds.len() != want {
                return Err(format!("{what} wants {want} 'x'-separated dims, got '{s}'"));
            }
            if ds.contains(&0) {
                return Err(format!("{what} dims must be positive, got '{s}'"));
            }
            Ok(ds)
        };
        let kind = match head {
            "mesh-boards" => {
                let d = parse_dims(dims, 4, "mesh-boards")?;
                MachineKind::MeshBoards {
                    board_rows: d[0],
                    board_cols: d[1],
                    mesh_rows: d[2],
                    mesh_cols: d[3],
                }
            }
            "fat-tree" => {
                let d = parse_dims(dims, 2, "fat-tree")?;
                if d[0] < 2 {
                    return Err(format!("fat-tree arity must be >= 2, got {}", d[0]));
                }
                MachineKind::FatTree { arity: d[0], height: d[1] }
            }
            "dragonfly" => {
                let d = parse_dims(dims, 3, "dragonfly")?;
                if d[0] < 2 {
                    return Err(format!("dragonfly needs >= 2 groups, got {}", d[0]));
                }
                MachineKind::Dragonfly { groups: d[0], routers: d[1], procs: d[2] }
            }
            "rc-array" => {
                let phases = if dims.is_empty() {
                    4
                } else {
                    dims.parse::<u32>().map_err(|_| format!("bad rc-array phases '{dims}'"))?
                };
                MachineKind::RcArray { phases: phases.max(1) }
            }
            other => {
                return Err(format!(
                    "unknown machine '{other}' (try mesh-boards:RxCxrxc, fat-tree:AxH, \
                     dragonfly:GxAxP, rc-array[:PHASES])"
                ))
            }
        };
        check_size(kind.num_procs(), kind.dense_links())
            .map_err(|e| format!("machine '{spec}': {e}"))?;
        let mut model = MachineModel::new(kind);
        if let MachineKind::RcArray { .. } = kind {
            model.reconfig_cost_millis = 40;
        }
        for attr in parts {
            if attr.is_empty() {
                continue;
            }
            let (key, val) = attr
                .split_once('=')
                .ok_or_else(|| format!("bad machine attribute '{attr}' (want key=value)"))?;
            let parse_list = |v: &str, what: &str| -> Result<Vec<u32>, String> {
                let xs: Vec<u32> = v
                    .split('/')
                    .map(|x| x.trim().parse::<u32>().map_err(|_| format!("bad {what} '{v}'")))
                    .collect::<Result<_, _>>()?;
                if xs.is_empty() || xs.contains(&0) {
                    return Err(format!("{what} values must be positive, got '{v}'"));
                }
                Ok(xs)
            };
            match key.trim() {
                "bw" => model.level_bandwidth_millis = parse_list(val, "bandwidth")?,
                "speed" => model.proc_speed_millis = parse_list(val, "speed")?,
                "mem" => {
                    let m = val.trim().parse::<u64>().map_err(|_| format!("bad mem '{val}'"))?;
                    model.proc_memory = vec![m];
                }
                "reconfig" => {
                    model.reconfig_cost_millis =
                        val.trim().parse::<u32>().map_err(|_| format!("bad reconfig '{val}'"))?
                }
                other => return Err(format!("unknown machine attribute '{other}'")),
            }
        }
        Ok(model)
    }
}

/// The links a lowering emits, in emission order, each with its hierarchy
/// level (0 = innermost). The order is the flat network's link numbering.
#[derive(Default)]
struct LevelledLinks {
    links: Vec<(u32, u32)>,
    levels: Vec<u8>,
}

impl LevelledLinks {
    fn push(&mut self, u: u32, v: u32, level: u8) {
        self.links.push((u, v));
        self.levels.push(level);
    }
}

/// `board_rows×board_cols` boards in a torus, each a `mesh_rows×mesh_cols`
/// mesh: the intra-board mesh is level 0, the board-to-board uplinks level
/// 1. Paths are `[board, board row]`.
fn lower_mesh_boards(
    board_rows: usize,
    board_cols: usize,
    mesh_rows: usize,
    mesh_cols: usize,
    out: &mut LevelledLinks,
) -> Vec<Vec<u32>> {
    assert!(
        board_rows >= 1 && board_cols >= 1 && mesh_rows >= 1 && mesh_cols >= 1,
        "mesh-boards dimensions must be positive"
    );
    let m = mesh_rows * mesh_cols;
    let pid = |bi: usize, bj: usize, k: usize, l: usize| {
        ((bi * board_cols + bj) * m + k * mesh_cols + l) as u32
    };
    // the next board along a dimension; wrap only along dimensions > 2,
    // matching builders::torus2d
    let next = |i: usize, len: usize| {
        if i + 1 < len {
            Some(i + 1)
        } else if len > 2 {
            Some(0)
        } else {
            None
        }
    };
    for bi in 0..board_rows {
        for bj in 0..board_cols {
            for k in 0..mesh_rows {
                for l in 0..mesh_cols {
                    if k + 1 < mesh_rows {
                        out.push(pid(bi, bj, k, l), pid(bi, bj, k + 1, l), 0);
                    }
                    if l + 1 < mesh_cols {
                        out.push(pid(bi, bj, k, l), pid(bi, bj, k, l + 1), 0);
                    }
                }
            }
            if let Some(bi2) = next(bi, board_rows) {
                for l in 0..mesh_cols {
                    out.push(pid(bi, bj, mesh_rows - 1, l), pid(bi2, bj, 0, l), 1);
                }
            }
            if let Some(bj2) = next(bj, board_cols) {
                for k in 0..mesh_rows {
                    out.push(pid(bi, bj, k, mesh_cols - 1), pid(bi, bj2, k, 0), 1);
                }
            }
        }
    }
    (0..board_rows * board_cols * m)
        .map(|p| {
            let board = (p / m) as u32;
            let row_in_board = ((p % m) / mesh_cols) as u32;
            vec![board, board * mesh_rows as u32 + row_in_board]
        })
        .collect()
}

/// An `arity`-ary fat tree of `height` levels over `arity^height` leaves.
/// The leaves under each subtree of size `arity^(l+1)` are represented by
/// their lowest leaf, and the representatives form a clique at link level
/// `l`. The top-level domain is the pod (the `arity` leaves under one
/// level-1 switch); deeper path entries name the enclosing subtree of size
/// `arity^2`, `arity^3`, …
fn lower_fat_tree(arity: usize, height: usize, out: &mut LevelledLinks) -> Vec<Vec<u32>> {
    assert!(arity >= 2, "fat-tree arity must be >= 2");
    assert!(height >= 1, "fat-tree height must be >= 1");
    let n = arity.pow(height as u32);
    for l in 0..height {
        let sub = arity.pow(l as u32); // child subtree size
        for start in (0..n).step_by(sub * arity) {
            for a in 0..arity {
                for b in a + 1..arity {
                    out.push((start + a * sub) as u32, (start + b * sub) as u32, l as u8);
                }
            }
        }
    }
    (0..n)
        .map(|p| {
            let mut path = Vec::with_capacity(height);
            path.push((p / arity) as u32);
            for l in 2..=height {
                path.push((p / arity.pow(l as u32)) as u32);
            }
            path
        })
        .collect()
}

/// `groups` groups of `routers` routers of `procs` processors: processors
/// sharing a router are a level-0 clique, router representatives within a
/// group a level-1 clique, and group representatives a level-2 clique.
/// Paths are `[group, router]`.
fn lower_dragonfly(
    groups: usize,
    routers: usize,
    procs: usize,
    out: &mut LevelledLinks,
) -> Vec<Vec<u32>> {
    assert!(groups >= 2, "dragonfly needs >= 2 groups");
    assert!(
        routers >= 1 && procs >= 1,
        "dragonfly dimensions must be positive"
    );
    let pid = |g: usize, r: usize, p: usize| (g * routers * procs + r * procs + p) as u32;
    for g in 0..groups {
        for r in 0..routers {
            for a in 0..procs {
                for b in a + 1..procs {
                    out.push(pid(g, r, a), pid(g, r, b), 0);
                }
            }
        }
        for a in 0..routers {
            for b in a + 1..routers {
                out.push(pid(g, a, 0), pid(g, b, 0), 1);
            }
        }
    }
    for a in 0..groups {
        for b in a + 1..groups {
            out.push(pid(a, 0, 0), pid(b, 0, 0), 2);
        }
    }
    (0..groups * routers * procs)
        .map(|p| vec![(p / (routers * procs)) as u32, (p / procs) as u32])
        .collect()
}

/// The 8×8 RC array: one level-0 mesh. Paths are `[quadrant, row]`.
fn lower_rc_array(out: &mut LevelledLinks) -> Vec<Vec<u32>> {
    let pid = |i: usize, j: usize| (i * 8 + j) as u32;
    for i in 0..8 {
        for j in 0..8 {
            if i + 1 < 8 {
                out.push(pid(i, j), pid(i + 1, j), 0);
            }
            if j + 1 < 8 {
                out.push(pid(i, j), pid(i, j + 1), 0);
            }
        }
    }
    (0..64)
        .map(|p| {
            let (i, j) = (p / 8, p % 8);
            let quadrant = ((i / 4) * 2 + j / 4) as u32;
            vec![quadrant, i as u32]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::RouteTableCache;

    impl MachineAttrs {
        /// Hierarchy level of link `l` (0 = innermost, e.g. intra-board).
        fn link_level(&self, l: LinkId) -> u8 {
            self.link_level[l.index()]
        }
    }

    fn small() -> MachineModel {
        MachineModel::parse("mesh-boards:2x2x2x2").unwrap()
    }

    #[test]
    fn mesh_boards_lowering_shape() {
        let lm = small().lower();
        assert_eq!(lm.net.num_procs(), 16);
        assert!(lm.net.is_connected());
        assert_eq!(lm.domains.num_domains(), 4);
        // 4 links per 2x2 board mesh + uplinks
        let attrs = lm.net.machine_attrs().unwrap();
        let intra = (0..lm.net.num_links())
            .filter(|&l| attrs.link_level(LinkId(l as u32)) == 0)
            .count();
        assert_eq!(intra, 16); // 4 boards × 4 mesh links
        let uplinks = lm.net.num_links() - intra;
        assert!(uplinks > 0);
        // board membership follows board-major numbering
        assert_eq!(lm.domains.domain_of(ProcId(0)), 0);
        assert_eq!(lm.domains.domain_of(ProcId(5)), 1);
        assert_eq!(lm.domains.domain_of(ProcId(15)), 3);
    }

    #[test]
    fn lowering_is_deterministic() {
        let a = MachineModel::parse("dragonfly:4x4x4").unwrap().lower();
        let b = MachineModel::parse("dragonfly:4x4x4").unwrap().lower();
        assert_eq!(
            a.net.structural_signature(),
            b.net.structural_signature()
        );
        assert_eq!(a.domains.as_ref(), b.domains.as_ref());
        let la: Vec<_> = a.net.links().collect();
        let lb: Vec<_> = b.net.links().collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn all_kinds_lower_connected() {
        for spec in [
            "mesh-boards:2x3x2x2",
            "mesh-boards:1x1x3x3",
            "fat-tree:2x3",
            "fat-tree:4x2",
            "dragonfly:2x3x2",
            "rc-array",
            "rc-array:8",
        ] {
            let lm = MachineModel::parse(spec).unwrap().lower();
            assert!(lm.net.is_connected(), "{spec} must lower connected");
            assert_eq!(lm.domains.num_procs(), lm.net.num_procs(), "{spec}");
            assert!(lm.domains.num_domains() >= 1, "{spec}");
        }
    }

    #[test]
    fn signature_distinguishes_level_parameters() {
        // same link structure, different uplink bandwidth: must not alias
        let a = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/500").unwrap().lower();
        let b = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/250").unwrap().lower();
        let links_a: Vec<_> = a.net.links().collect();
        let links_b: Vec<_> = b.net.links().collect();
        assert_eq!(links_a, links_b, "structure is identical by construction");
        assert_ne!(
            a.net.structural_signature(),
            b.net.structural_signature(),
            "attribute fingerprint must split the signature"
        );
        // and a speed-pattern change splits it too
        let c = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/500,speed=1000/500")
            .unwrap()
            .lower();
        assert_ne!(a.net.structural_signature(), c.net.structural_signature());
    }

    #[test]
    fn signature_split_prevents_cache_aliasing() {
        // regression: two lowered machines differing only in level params
        // must occupy distinct RouteTableCache slots
        let a = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/500").unwrap().lower();
        let b = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/250").unwrap().lower();
        let cache = RouteTableCache::new(8);
        let ta = cache.get_or_build(&a.net).unwrap();
        let tb = cache.get_or_build(&b.net).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "distinct machines must both miss");
        assert_eq!(stats.len, 2, "and occupy two slots");
        assert!(!Arc::ptr_eq(&ta, &tb), "tables must not be shared");
        // same machine again is a hit
        let ta2 = cache.get_or_build(&a.net).unwrap();
        assert!(Arc::ptr_eq(&ta, &ta2));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn board_fault_set_covers_blast_radius() {
        let lm = small().lower();
        let faults = lm.domains.board_fault_set(&lm.net, 1).unwrap();
        // all 4 procs of board 1
        let procs: Vec<_> = faults.procs().collect();
        assert_eq!(procs, vec![ProcId(4), ProcId(5), ProcId(6), ProcId(7)]);
        // every failed link touches board 1; every link touching board 1 failed
        for (l, u, v) in lm.net.links() {
            let touches = lm.domains.domain_of(u) == 1 || lm.domains.domain_of(v) == 1;
            assert_eq!(faults.contains_link(l), touches, "link {l:?}");
        }
        // degrading via the domain set == degrading via bare procs
        let mut bare = FaultSet::new();
        for p in faults.procs() {
            bare.fail_proc(p);
        }
        let via_domain = lm.net.degrade(&faults).unwrap();
        let via_procs = lm.net.degrade(&bare).unwrap();
        assert_eq!(via_domain.alive_mask(), via_procs.alive_mask());
        assert_eq!(via_domain.failed_links(), via_procs.failed_links());
        assert_eq!(
            via_domain.network().structural_signature(),
            via_procs.network().structural_signature()
        );
    }

    #[test]
    fn domain_out_of_range_is_typed() {
        let lm = small().lower();
        let err = lm.domains.board_fault_set(&lm.net, 99).unwrap_err();
        assert!(matches!(err, TopologyError::DomainOutOfRange { index: 99, .. }));
        assert!(err.to_string().contains("domain"));
    }

    #[test]
    fn boot_scan_is_deterministic_and_reports_domains() {
        let lm = MachineModel::parse("mesh-boards:2x2x4x4").unwrap().lower();
        let a = boot_scan(&lm.net, &lm.domains, 42, 100);
        let b = boot_scan(&lm.net, &lm.domains, 42, 100);
        assert_eq!(a, b);
        assert!(!a.dead_procs.is_empty(), "1/10 of 64 procs should die");
        assert!(a.domains_degraded >= 1);
        assert_eq!(a.domains_total, 4);
        assert_eq!(a.alive_per_domain.len(), 4);
        let total_alive: u32 = a.alive_per_domain.iter().sum();
        assert_eq!(total_alive as usize, 64 - a.dead_procs.len());
        // the scan never kills proc 0, and the degrade must succeed
        assert!(!a.dead_procs.contains(&ProcId(0)));
        let d = lm.net.degrade(&a.fault_set()).unwrap();
        assert_eq!(d.num_alive(), total_alive as usize);
        // a different seed scans differently
        let c = boot_scan(&lm.net, &lm.domains, 43, 100);
        assert_ne!(a.dead_procs, c.dead_procs);
    }

    #[test]
    fn boot_scan_zero_rate_is_healthy() {
        let lm = small().lower();
        let r = boot_scan(&lm.net, &lm.domains, 7, 0);
        assert_eq!(r.domains_degraded, 0);
        assert!(r.fault_set().is_empty());
    }

    #[test]
    fn degraded_attrs_follow_surviving_links() {
        let lm = MachineModel::parse("mesh-boards:2x2x2x2,bw=1000/125").unwrap().lower();
        let faults = lm.domains.board_fault_set(&lm.net, 0).unwrap();
        let d = lm.net.degrade(&faults).unwrap();
        let attrs = d.network().machine_attrs().expect("attrs must survive degrade");
        assert_eq!(attrs.num_links(), d.network().num_links());
        for (l, _, _) in d.network().links() {
            let orig = d.original_link(l);
            let healthy = lm.net.machine_attrs().unwrap();
            assert_eq!(attrs.bandwidth_millis(l), healthy.bandwidth_millis(orig));
            assert_eq!(attrs.link_level(l), healthy.link_level(orig));
        }
        // compact view keeps per-proc speeds aligned too
        let (compact, to_orig) = d.compact();
        let cattrs = compact.machine_attrs().expect("attrs must survive compact");
        let healthy = lm.net.machine_attrs().unwrap();
        for (c, p) in to_orig.iter().enumerate() {
            assert_eq!(
                cattrs.speed_millis(ProcId(c as u32)),
                healthy.speed_millis(*p)
            );
        }
    }

    #[test]
    fn rc_array_carries_reconfig_cost() {
        let lm = MachineModel::parse("rc-array:6,reconfig=25").unwrap().lower();
        assert_eq!(lm.net.num_procs(), 64);
        let attrs = lm.net.machine_attrs().unwrap();
        assert_eq!(attrs.reconfig_cost_millis(), 25);
        assert_eq!(lm.domains.num_domains(), 4);
        // quadrants are 4x4: proc (0,0) and (3,3) share one, (0,7) differs
        let dom = |p| lm.domains.domain_of(ProcId(p));
        assert_eq!(dom(0), dom(3 * 8 + 3));
        assert_ne!(dom(0), dom(7));
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "mesh-boards:4x4",
            "mesh-boards:0x2x2x2",
            "fat-tree:1x3",
            "dragonfly:1x2x2",
            "warp-drive:9",
            "mesh-boards:2x2x2x2,bw=0",
            "mesh-boards:2x2x2x2,tilt=5",
            "mesh-boards:2000x2000x10x10",
        ] {
            assert!(MachineModel::parse(bad).is_err(), "{bad} must be rejected");
        }
        for good in [
            "mesh-boards:4x4x8x8",
            "fat-tree:4x3,bw=1000/500/250",
            "dragonfly:4x4x4,speed=1000/500,mem=64",
            "rc-array:4,reconfig=40",
        ] {
            assert!(MachineModel::parse(good).is_ok(), "{good} must parse");
        }
    }

    #[test]
    fn fat_tree_pods_are_domains() {
        let lm = MachineModel::parse("fat-tree:4x2").unwrap().lower();
        assert_eq!(lm.net.num_procs(), 16);
        assert_eq!(lm.domains.num_domains(), 4); // 4 pods of 4 leaves
        let dom = |p| lm.domains.domain_of(ProcId(p));
        assert_eq!(dom(0), dom(3));
        assert_ne!(dom(3), dom(4));
    }
}
