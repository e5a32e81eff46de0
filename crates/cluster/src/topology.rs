//! Cluster topologies: devices plus the interconnects between them.

use crate::device::{Device, DeviceId};

/// A directed interconnect between two devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency: f64,
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
}

impl Link {
    /// NVLink 2.0 peer-to-peer (V100 generation): ~48 GB/s effective, ~5 µs
    /// launch-to-first-byte latency.
    pub fn nvlink() -> Self {
        Link {
            latency: 5e-6,
            bandwidth: 48.0e9,
        }
    }

    /// PCIe 3.0 x16: ~12 GB/s effective.
    pub fn pcie() -> Self {
        Link {
            latency: 10e-6,
            bandwidth: 12.0e9,
        }
    }

    /// 25 Gb/s datacenter Ethernet/RDMA between servers: ~3 GB/s effective,
    /// ~30 µs latency.
    pub fn ethernet_25g() -> Self {
        Link {
            latency: 30e-6,
            bandwidth: 3.0e9,
        }
    }

    /// 100 Gb/s RDMA between servers (the class of fabric in the paper's
    /// production cluster): ~11 GB/s effective, ~10 µs latency.
    pub fn rdma_100g() -> Self {
        Link {
            latency: 10e-6,
            bandwidth: 11.0e9,
        }
    }

    /// Time in seconds to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// Hardware class of an interconnect. Communication cost models fit one
/// regression per *class* rather than per device pair, so an observation on
/// any NVLink edge informs every NVLink edge (O(classes) fits instead of
/// O(n²), which stays data-starved on 16-GPU clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkClass {
    /// GPU↔GPU peer link within a server (NVLink-grade bandwidth).
    NvLink,
    /// Intra-server link through the PCIe root complex (host↔GPU, or
    /// GPU↔GPU without peer links).
    Pcie,
    /// Inter-server commodity Ethernet.
    Eth,
    /// Inter-server RDMA fabric.
    Rdma,
}

impl LinkClass {
    /// Every class, in a stable order (for reports and iteration).
    pub fn all() -> [LinkClass; 4] {
        [
            LinkClass::NvLink,
            LinkClass::Pcie,
            LinkClass::Eth,
            LinkClass::Rdma,
        ]
    }

    /// Classifies a link by its placement and bandwidth. Intra-server links
    /// at NVLink-grade bandwidth (≥ 25 GB/s) are [`LinkClass::NvLink`],
    /// slower ones [`LinkClass::Pcie`]; inter-server links at RDMA-grade
    /// bandwidth (≥ 8 GB/s) are [`LinkClass::Rdma`], slower ones
    /// [`LinkClass::Eth`].
    pub fn classify(link: &Link, same_server: bool) -> LinkClass {
        if same_server {
            if link.bandwidth >= 25.0e9 {
                LinkClass::NvLink
            } else {
                LinkClass::Pcie
            }
        } else if link.bandwidth >= 8.0e9 {
            LinkClass::Rdma
        } else {
            LinkClass::Eth
        }
    }

    /// Lower-case stable name (`nvlink`, `pcie`, `eth`, `rdma`).
    pub fn name(&self) -> &'static str {
        match self {
            LinkClass::NvLink => "nvlink",
            LinkClass::Pcie => "pcie",
            LinkClass::Eth => "eth",
            LinkClass::Rdma => "rdma",
        }
    }
}

impl std::fmt::Display for LinkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of devices and the links between every ordered pair.
///
/// `link(a, b)` is `None` when `a == b` — intra-device "transfers" are free.
#[derive(Debug, Clone)]
pub struct Topology {
    devices: Vec<Device>,
    /// `links[src][dst]`; `None` on the diagonal.
    links: Vec<Vec<Option<Link>>>,
    /// `server_of[d]`: which physical server hosts device `d`.
    server_of: Vec<u16>,
    /// One past the largest server id: the side of the server-pair block
    /// of [`Topology::channel`].
    server_span: usize,
    /// `failed[d]`: device `d` has been blacklisted (crashed / preempted).
    /// Device ids stay stable — failed devices keep their slot so that
    /// id-indexed state (cost-model keys, traces, fault schedules) remains
    /// valid — but planners skip them via [`Topology::gpu_ids`].
    failed: Vec<bool>,
    /// `link_down[src][dst]`: the directed link has been administratively
    /// failed (flap past the retry budget, partition). The physical wiring
    /// ([`Topology::link`]) stays addressable — specs still seed cost-model
    /// priors — but [`Topology::live_link`] refuses it and
    /// [`Topology::try_route`] routes around it.
    link_down: Vec<Vec<bool>>,
    /// `link_slow[src][dst]`: transfer-time multiplier on the directed link
    /// (`1.0` when healthy), set by the session when it detects a link
    /// running slower than its class predicts.
    link_slow: Vec<Vec<f64>>,
    /// Default link classes used to wire *hot-added* devices
    /// ([`Topology::add_device`] / [`Topology::add_server`]), captured from
    /// the builder: intra-server, inter-server, and host↔GPU PCIe. `None`
    /// on hand-wired topologies built without class defaults, in which
    /// case grown devices get no links of that class.
    intra: Option<Link>,
    inter: Option<Link>,
    host_pcie: Option<Link>,
}

impl Topology {
    /// One server with `n` V100 GPUs, fully connected by NVLink
    /// (the paper's 1/2/4/8-GPU single-server settings).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn single_server(n: u16) -> Self {
        Self::multi_server(1, n)
    }

    /// `servers` machines with `gpus_per_server` V100s each plus one CPU
    /// host per server: NVLink between GPUs within a server, PCIe between a
    /// host and its GPUs, 25 GbE between servers (the paper's "8 GPUs
    /// (2 servers)" and "16 GPUs (2 servers)" settings).
    ///
    /// GPU device ids come first (`0..servers*gpus_per_server`), hosts
    /// after them — so GPU ids are stable regardless of host presence.
    ///
    /// # Panics
    ///
    /// Panics if either argument is 0.
    pub fn multi_server(servers: u16, gpus_per_server: u16) -> Self {
        assert!(servers > 0 && gpus_per_server > 0, "empty topology");
        let mut b = TopologyBuilder::new();
        for s in 0..servers {
            for g in 0..gpus_per_server {
                b.add_device(Device::v100(format!("srv{s}/gpu{g}")), s);
            }
        }
        for s in 0..servers {
            b.add_device(Device::host(format!("srv{s}/cpu")), s);
        }
        b.connect_intra_server(Link::nvlink());
        b.connect_inter_server(Link::rdma_100g());
        b.connect_host_pcie(Link::pcie());
        b.build()
    }

    /// Number of devices (GPUs and hosts), including failed ones — this is
    /// the size of every id-indexed vector, so it never shrinks.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of *live* GPU devices (failed GPUs are excluded).
    pub fn gpu_count(&self) -> usize {
        self.gpu_ids().count()
    }

    /// All device ids (GPUs and hosts, live and failed).
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len() as u16).map(DeviceId)
    }

    /// Live GPU device ids only — the placement targets FastT considers
    /// (Sec. 3: the input device set is "the set of devices (GPUs)").
    /// Blacklisted devices are skipped, so planners that iterate this set
    /// automatically plan over the surviving cluster.
    pub fn gpu_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.device_ids()
            .filter(|d| !self.devices[d.index()].is_host && !self.failed[d.index()])
    }

    /// Blacklists `d`: it stays in the topology (ids remain stable) but is
    /// excluded from [`Topology::gpu_ids`]/[`Topology::gpu_count`] and
    /// rejected by placement validation.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn fail_device(&mut self, d: DeviceId) {
        self.failed[d.index()] = true;
    }

    /// Clears the blacklist mark on `d`: the device re-enters
    /// [`Topology::gpu_ids`] under its original id and placements may
    /// target it again. The inverse of [`Topology::fail_device`]; link
    /// health is separate ([`Topology::restore_link`]).
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn restore_device(&mut self, d: DeviceId) {
        self.failed[d.index()] = false;
    }

    /// Hot-adds `device` on `server`, wiring it to every existing device
    /// with the topology's default link classes (intra-server, inter-server,
    /// host↔GPU PCIe — the same rules [`TopologyBuilder::build`] applies).
    /// Existing ids are untouched; the new device gets the next id, so
    /// id-indexed state (cost-model keys, fault schedules, health maps)
    /// stays valid.
    pub fn add_device(&mut self, device: Device, server: u16) -> DeviceId {
        let id = DeviceId(self.devices.len() as u16);
        let new_is_host = device.is_host;
        self.devices.push(device);
        self.server_of.push(server);
        self.server_span = self.server_span.max(server as usize + 1);
        self.failed.push(false);
        let n = self.devices.len();
        let wires: Vec<Option<Link>> = (0..n - 1)
            .map(|other| {
                let same = self.server_of[other] == server;
                let host_pair = self.devices[other].is_host || new_is_host;
                if !same {
                    self.inter
                } else if host_pair {
                    self.host_pcie.or(self.intra)
                } else {
                    self.intra
                }
            })
            .collect();
        for (row, &l) in self.links.iter_mut().zip(&wires) {
            row.push(l);
        }
        let mut new_row = wires;
        new_row.push(None); // diagonal
        self.links.push(new_row);
        for row in self.link_down.iter_mut() {
            row.push(false);
        }
        self.link_down.push(vec![false; n]);
        for row in self.link_slow.iter_mut() {
            row.push(1.0);
        }
        self.link_slow.push(vec![1.0; n]);
        debug_assert_eq!(
            self.validate(),
            Ok(()),
            "add_device broke topology invariants"
        );
        id
    }

    /// Hot-adds a whole server: `gpus` V100s plus one CPU host, on a fresh
    /// server id one past the current maximum. Returns the new GPU ids (the
    /// host is discoverable via [`Topology::host_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `gpus == 0`.
    pub fn add_server(&mut self, gpus: u16) -> Vec<DeviceId> {
        assert!(gpus > 0, "a server needs at least one GPU");
        let server = self.server_span as u16;
        let ids = (0..gpus)
            .map(|g| self.add_device(Device::v100(format!("srv{server}/gpu{g}")), server))
            .collect();
        self.add_device(Device::host(format!("srv{server}/cpu")), server);
        ids
    }

    /// Whether `d` has been blacklisted.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn is_failed(&self, d: DeviceId) -> bool {
        self.failed[d.index()]
    }

    /// All blacklisted device ids, in id order.
    pub fn failed_devices(&self) -> Vec<DeviceId> {
        self.device_ids().filter(|&d| self.is_failed(d)).collect()
    }

    /// Whether `d` is a CPU host.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn is_host(&self, d: DeviceId) -> bool {
        self.devices[d.index()].is_host
    }

    /// The live host device of `server`, if the topology has one.
    pub fn host_of(&self, server: u16) -> Option<DeviceId> {
        self.device_ids().find(|&d| {
            self.devices[d.index()].is_host
                && self.server_of[d.index()] == server
                && !self.failed[d.index()]
        })
    }

    /// The device with id `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn device(&self, d: DeviceId) -> &Device {
        &self.devices[d.index()]
    }

    /// All devices in id order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The link from `src` to `dst`, or `None` when `src == dst`. This is
    /// the *physical wiring* — failed links are still reported here (their
    /// specs keep seeding cost-model priors); use [`Topology::live_link`]
    /// for the health-aware view.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link(&self, src: DeviceId, dst: DeviceId) -> Option<&Link> {
        self.links[src.index()][dst.index()].as_ref()
    }

    /// The link from `src` to `dst` if it exists *and* has not been failed
    /// by [`Topology::fail_link`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn live_link(&self, src: DeviceId, dst: DeviceId) -> Option<&Link> {
        if self.link_down[src.index()][dst.index()] {
            return None;
        }
        self.link(src, dst)
    }

    /// Marks the directed `src → dst` link failed: [`Topology::live_link`]
    /// refuses it and [`Topology::try_route`] routes around it. Call both
    /// directions to model a dead cable. Device ids and channel keys are
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn fail_link(&mut self, src: DeviceId, dst: DeviceId) {
        self.link_down[src.index()][dst.index()] = true;
    }

    /// Multiplies transfer times on the directed `src → dst` link by
    /// `factor` (compounding with previous degradations).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or `factor` is not positive.
    pub fn degrade_link(&mut self, src: DeviceId, dst: DeviceId, factor: f64) {
        assert!(factor > 0.0, "degrade factor must be positive");
        self.link_slow[src.index()][dst.index()] *= factor;
    }

    /// Clears both the failure and degradation marks of the directed
    /// `src → dst` link.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn restore_link(&mut self, src: DeviceId, dst: DeviceId) {
        self.link_down[src.index()][dst.index()] = false;
        self.link_slow[src.index()][dst.index()] = 1.0;
    }

    /// Whether the directed `src → dst` link has been failed.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn is_link_failed(&self, src: DeviceId, dst: DeviceId) -> bool {
        self.link_down[src.index()][dst.index()]
    }

    /// Current transfer-time multiplier of the directed `src → dst` link
    /// (`1.0` when healthy).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link_degrade_factor(&self, src: DeviceId, dst: DeviceId) -> f64 {
        self.link_slow[src.index()][dst.index()]
    }

    /// All failed directed links, in `(src, dst)` id order.
    pub fn failed_links(&self) -> Vec<(DeviceId, DeviceId)> {
        let mut out = Vec::new();
        for s in self.device_ids() {
            for d in self.device_ids() {
                if self.link_down[s.index()][d.index()] {
                    out.push((s, d));
                }
            }
        }
        out
    }

    /// Transfer time for `bytes` from `src` to `dst` under the physical
    /// link model (0 when colocated), stretched by any degradation mark on
    /// the link.
    pub fn transfer_time(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        match self.link(src, dst) {
            Some(l) => l.transfer_time(bytes) * self.link_slow[src.index()][dst.index()],
            None => 0.0,
        }
    }

    /// Which server hosts device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn server_of(&self, d: DeviceId) -> u16 {
        self.server_of[d.index()]
    }

    /// The hardware class of the `src → dst` link, or `None` when the
    /// devices are colocated or unconnected.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link_class(&self, src: DeviceId, dst: DeviceId) -> Option<LinkClass> {
        let link = self.link(src, dst)?;
        Some(LinkClass::classify(
            link,
            self.server_of(src) == self.server_of(dst),
        ))
    }

    /// The preferred (health-ignoring) route a `src → dst` transfer takes,
    /// as a list of single-link hops.
    ///
    /// Intra-server transfers are one direct hop. Inter-server transfers
    /// are staged through the hosts' NICs — `src → host(src)` over PCIe,
    /// `host(src) → host(dst)` over the inter-server fabric, `host(dst) →
    /// dst` over PCIe — with the first/last stage skipped when the endpoint
    /// is itself a host, and collapsed to a direct hop when a server has no
    /// live host to stage through. Colocated devices have an empty route.
    fn preferred_route(&self, src: DeviceId, dst: DeviceId) -> Vec<(DeviceId, DeviceId)> {
        if src == dst {
            return Vec::new();
        }
        if self.server_of(src) == self.server_of(dst) {
            return vec![(src, dst)];
        }
        let mut hops = Vec::with_capacity(3);
        let mut cur = src;
        if !self.is_host(src) {
            if let Some(h) = self.host_of(self.server_of(src)) {
                hops.push((cur, h));
                cur = h;
            }
        }
        let ingress = if self.is_host(dst) {
            None
        } else {
            self.host_of(self.server_of(dst))
        };
        match ingress {
            Some(h) => {
                hops.push((cur, h));
                hops.push((h, dst));
            }
            None => hops.push((cur, dst)),
        }
        hops
    }

    /// Whether the `a → b` hop is physically wired and not failed.
    fn hop_live(&self, a: DeviceId, b: DeviceId) -> bool {
        self.live_link(a, b).is_some()
    }

    /// The physical route a `src → dst` transfer takes, avoiding failed
    /// links ([`Topology::fail_link`]), or `None` when every candidate
    /// staging crosses a dead hop (the pair is partitioned).
    ///
    /// Candidates are tried in preference order: the standard staged route
    /// ([`Topology::route`]), then — cross-server — variants that stage
    /// through only one of the two hosts, then the direct link. `Some` with
    /// an empty route means colocated (free transfer), as in `route`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn try_route(&self, src: DeviceId, dst: DeviceId) -> Option<Vec<(DeviceId, DeviceId)>> {
        if src == dst {
            return Some(Vec::new());
        }
        let preferred = self.preferred_route(src, dst);
        if preferred.iter().all(|&(a, b)| self.hop_live(a, b)) {
            return Some(preferred);
        }
        let mut candidates: Vec<Vec<(DeviceId, DeviceId)>> = Vec::new();
        if self.server_of(src) == self.server_of(dst) {
            // Direct hop is dead: stage through the server's host, if any.
            if let Some(h) = self.host_of(self.server_of(src)) {
                if h != src && h != dst {
                    candidates.push(vec![(src, h), (h, dst)]);
                }
            }
        } else {
            let egress = if self.is_host(src) {
                None
            } else {
                self.host_of(self.server_of(src))
            };
            let ingress = if self.is_host(dst) {
                None
            } else {
                self.host_of(self.server_of(dst))
            };
            // Alternate stagings: skip one host at a time, then go direct.
            if let Some(h) = ingress {
                candidates.push(vec![(src, h), (h, dst)]);
            }
            if let Some(h) = egress {
                candidates.push(vec![(src, h), (h, dst)]);
            }
            candidates.push(vec![(src, dst)]);
        }
        candidates
            .into_iter()
            .find(|c| *c != preferred && c.iter().all(|&(a, b)| self.hop_live(a, b)))
    }

    /// The physical route a `src → dst` transfer takes, as a list of
    /// single-link hops, avoiding failed links when an alternate staging
    /// survives ([`Topology::try_route`]).
    ///
    /// When the pair is fully partitioned this falls back to the
    /// health-ignoring route so planners can still price a (pessimistic)
    /// path; callers that must distinguish unreachability use `try_route`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn route(&self, src: DeviceId, dst: DeviceId) -> Vec<(DeviceId, DeviceId)> {
        self.try_route(src, dst)
            .unwrap_or_else(|| self.preferred_route(src, dst))
    }

    /// Transfer time for `bytes` from `src` to `dst` summed along the
    /// physical route ([`Topology::route`]) — the pessimistic serial bound
    /// planners fall back to for unprofiled pairs (hops may in fact
    /// pipeline, so real transfers can only be faster).
    pub fn transfer_time_routed(&self, src: DeviceId, dst: DeviceId, bytes: u64) -> f64 {
        self.route(src, dst)
            .iter()
            .map(|&(a, b)| self.transfer_time(a, b, bytes))
            .sum()
    }

    /// Dense index of the physical channel a `src → dst` hop occupies, in
    /// `0..channel_count()`. GPU pairs within a server have dedicated
    /// NVLinks (one channel per directed pair); all traffic leaving a host
    /// shares its egress channel and all traffic entering it its ingress
    /// channel (the host's PCIe root complex); all traffic from one server
    /// to another shares the NIC pair (one channel per ordered server
    /// pair). Hops with the same index serialize.
    ///
    /// The index is a function of device and server ids alone, so failure
    /// masks never re-key a channel; growing the topology renumbers them.
    /// Layout: `src * n + dst` for GPU pairs (`n = device_count()`), then
    /// `n` host-egress slots, `n` host-ingress slots, and one slot per
    /// ordered pair of server ids.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn channel(&self, src: DeviceId, dst: DeviceId) -> usize {
        let n = self.devices.len();
        let (s, d) = (self.server_of(src) as usize, self.server_of(dst) as usize);
        if s != d {
            n * n + 2 * n + s * self.server_span + d
        } else if self.is_host(src) {
            n * n + src.index()
        } else if self.is_host(dst) {
            n * n + n + dst.index()
        } else {
            src.index() * n + dst.index()
        }
    }

    /// Number of channel indices [`Topology::channel`] can return.
    pub fn channel_count(&self) -> usize {
        let n = self.devices.len();
        n * n + 2 * n + self.server_span * self.server_span
    }

    /// Human label of the channel a `src → dst` hop occupies: its link
    /// class and what every hop on that channel shares, in the direction
    /// of travel — `nvlink srv0/gpu0->srv0/gpu1`, `pcie srv0/cpu->gpus`,
    /// `pcie gpus->srv0/cpu`, `rdma srv0->srv1`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn channel_label(&self, src: DeviceId, dst: DeviceId) -> String {
        let class = self.link_class(src, dst).map_or("link", |c| c.name());
        let name = |d: DeviceId| self.devices[d.index()].name.as_str();
        let (s, d) = (self.server_of(src), self.server_of(dst));
        if s != d {
            format!("{class} srv{s}->srv{d}")
        } else if self.is_host(src) {
            format!("{class} {}->gpus", name(src))
        } else if self.is_host(dst) {
            format!("{class} gpus->{}", name(dst))
        } else {
            format!("{class} {}->{}", name(src), name(dst))
        }
    }

    /// Structural self-check over every id-indexed table: the link,
    /// link-health and link-degrade matrices must be square and sized to
    /// the device list, diagonals must be empty (no self-links) and
    /// healthy, degrade factors must be positive and finite, and each
    /// server may host at most one CPU host (a second host would be
    /// silently shadowed by [`Topology::host_of`]). These are exactly the
    /// invariants the hot-add path ([`Topology::add_device`] /
    /// [`Topology::add_server`]) and the restore path must preserve; debug
    /// builds assert it after every growing mutation, and the fuzzer calls
    /// it as an oracle on every scenario's final topology.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.devices.len();
        if n == 0 {
            return Err("topology has no devices".into());
        }
        if self.server_of.len() != n {
            return Err(format!(
                "server_of len {} != {n} devices",
                self.server_of.len()
            ));
        }
        if self.failed.len() != n {
            return Err(format!("failed len {} != {n} devices", self.failed.len()));
        }
        let span = self.server_of.iter().map(|&s| s as usize + 1).max();
        if span != Some(self.server_span) {
            return Err(format!(
                "server span {} != largest server id + 1 ({span:?})",
                self.server_span
            ));
        }
        for (label, rows) in [
            ("links", self.links.len()),
            ("link_down", self.link_down.len()),
            ("link_slow", self.link_slow.len()),
        ] {
            if rows != n {
                return Err(format!("{label} has {rows} rows for {n} devices"));
            }
        }
        for i in 0..n {
            if self.links[i].len() != n {
                return Err(format!("links row {i} has {} cols", self.links[i].len()));
            }
            if self.link_down[i].len() != n {
                return Err(format!(
                    "link_down row {i} has {} cols",
                    self.link_down[i].len()
                ));
            }
            if self.link_slow[i].len() != n {
                return Err(format!(
                    "link_slow row {i} has {} cols",
                    self.link_slow[i].len()
                ));
            }
            if self.links[i][i].is_some() {
                return Err(format!("device {i} has a self-link"));
            }
            if self.link_down[i][i] {
                return Err(format!("device {i} marks its own diagonal link down"));
            }
            if self.link_slow[i][i] != 1.0 {
                return Err(format!(
                    "device {i} degrades its own diagonal link ({})",
                    self.link_slow[i][i]
                ));
            }
            for (j, &f) in self.link_slow[i].iter().enumerate() {
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!("link {i}->{j} has degrade factor {f}"));
                }
            }
        }
        let mut host_of_server = std::collections::BTreeMap::new();
        for (i, dev) in self.devices.iter().enumerate() {
            if dev.is_host {
                if let Some(prev) = host_of_server.insert(self.server_of[i], i) {
                    return Err(format!(
                        "server {} has two hosts (devices {prev} and {i})",
                        self.server_of[i]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Incremental constructor for heterogeneous [`Topology`]s.
///
/// # Examples
///
/// ```
/// use fastt_cluster::{Device, Link, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// b.add_device(Device::v100("a"), 0);
/// b.add_device(Device::v100("b"), 0);
/// b.connect_intra_server(Link::pcie());
/// let topo = b.build();
/// assert_eq!(topo.device_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    devices: Vec<Device>,
    servers: Vec<u16>,
    links: Vec<(DeviceId, DeviceId, Link)>,
    intra: Option<Link>,
    inter: Option<Link>,
    host_pcie: Option<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds a device hosted on `server`, returning its id.
    pub fn add_device(&mut self, device: Device, server: u16) -> DeviceId {
        let id = DeviceId(self.devices.len() as u16);
        self.devices.push(device);
        self.servers.push(server);
        id
    }

    /// Uses `link` between every pair of devices on the same server.
    pub fn connect_intra_server(&mut self, link: Link) -> &mut Self {
        self.intra = Some(link);
        self
    }

    /// Uses `link` between every pair of devices on different servers.
    pub fn connect_inter_server(&mut self, link: Link) -> &mut Self {
        self.inter = Some(link);
        self
    }

    /// Uses `link` between a host and the GPUs on its server (overrides the
    /// intra-server link for host pairs).
    pub fn connect_host_pcie(&mut self, link: Link) -> &mut Self {
        self.host_pcie = Some(link);
        self
    }

    /// Overrides the link for one specific ordered pair.
    ///
    /// # Panics
    ///
    /// [`TopologyBuilder::build`] panics if `src == dst`: a self-link
    /// would be a silent no-op for placement (colocated transfers are
    /// free) yet would corrupt the topology's no-self-link invariant.
    pub fn connect(&mut self, src: DeviceId, dst: DeviceId, link: Link) -> &mut Self {
        self.links.push((src, dst, link));
        self
    }

    /// Finalizes the topology.
    ///
    /// # Panics
    ///
    /// Panics if no devices were added.
    pub fn build(&self) -> Topology {
        assert!(
            !self.devices.is_empty(),
            "topology needs at least one device"
        );
        let n = self.devices.len();
        let mut links = vec![vec![None; n]; n];
        for (s, row) in links.iter_mut().enumerate() {
            for (d, slot) in row.iter_mut().enumerate() {
                if s == d {
                    continue;
                }
                let same = self.servers[s] == self.servers[d];
                let host_pair = self.devices[s].is_host || self.devices[d].is_host;
                *slot = if !same {
                    self.inter
                } else if host_pair {
                    self.host_pcie.or(self.intra)
                } else {
                    self.intra
                };
            }
        }
        for &(s, d, l) in &self.links {
            // Surfaced by Topology::validate: an unguarded s == d override
            // used to wire a silent self-link into the matrix.
            assert!(s != d, "cannot override the self-link of device {s}");
            links[s.index()][d.index()] = Some(l);
        }
        let t = Topology {
            devices: self.devices.clone(),
            links,
            server_of: self.servers.clone(),
            server_span: self
                .servers
                .iter()
                .map(|&s| s as usize + 1)
                .max()
                .unwrap_or(0),
            failed: vec![false; n],
            link_down: vec![vec![false; n]; n],
            link_slow: vec![vec![1.0; n]; n],
            intra: self.intra,
            inter: self.inter,
            host_pcie: self.host_pcie,
        };
        debug_assert_eq!(t.validate(), Ok(()), "builder broke topology invariants");
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_gpus_fully_connected_by_nvlink() {
        let t = Topology::single_server(4);
        assert_eq!(t.gpu_count(), 4);
        assert_eq!(t.device_count(), 5); // + 1 host
        for a in t.gpu_ids() {
            for b in t.gpu_ids() {
                if a == b {
                    assert!(t.link(a, b).is_none());
                } else {
                    let l = t.link(a, b).expect("link");
                    assert_eq!(l.bandwidth, Link::nvlink().bandwidth);
                }
            }
        }
    }

    #[test]
    fn host_connected_by_pcie() {
        let t = Topology::single_server(2);
        let host = t.host_of(0).expect("host");
        assert!(t.is_host(host));
        for g in t.gpu_ids() {
            assert_eq!(t.link(host, g).unwrap().bandwidth, Link::pcie().bandwidth);
            assert_eq!(t.link(g, host).unwrap().bandwidth, Link::pcie().bandwidth);
        }
    }

    #[test]
    fn multi_server_uses_slow_links_across() {
        let t = Topology::multi_server(2, 4);
        assert_eq!(t.gpu_count(), 8);
        assert_eq!(t.device_count(), 10); // + 2 hosts
        assert_eq!(t.server_of(DeviceId(0)), 0);
        assert_eq!(t.server_of(DeviceId(4)), 1);
        assert_eq!(t.host_of(1), Some(DeviceId(9)));
        let intra = t.link(DeviceId(0), DeviceId(3)).unwrap();
        let inter = t.link(DeviceId(3), DeviceId(4)).unwrap();
        assert!(inter.bandwidth < intra.bandwidth);
        assert!(inter.latency > intra.latency);
    }

    #[test]
    fn transfer_time_linear_in_bytes() {
        let l = Link::nvlink();
        let t1 = l.transfer_time(1_000_000);
        let t2 = l.transfer_time(2_000_000);
        assert!((t2 - t1 - 1_000_000.0 / l.bandwidth).abs() < 1e-12);
    }

    #[test]
    fn colocated_transfer_is_free() {
        let t = Topology::single_server(2);
        assert_eq!(t.transfer_time(DeviceId(0), DeviceId(0), 1 << 30), 0.0);
        assert!(t.transfer_time(DeviceId(0), DeviceId(1), 1 << 30) > 0.0);
    }

    #[test]
    fn failed_devices_keep_ids_but_leave_gpu_set() {
        let mut t = Topology::single_server(4);
        assert_eq!(t.gpu_count(), 4);
        t.fail_device(DeviceId(1));
        assert!(t.is_failed(DeviceId(1)));
        assert_eq!(t.failed_devices(), vec![DeviceId(1)]);
        // the survivor set skips the blacklisted id, ids stay stable
        assert_eq!(t.gpu_count(), 3);
        let ids: Vec<DeviceId> = t.gpu_ids().collect();
        assert_eq!(ids, vec![DeviceId(0), DeviceId(2), DeviceId(3)]);
        // total device count (vector sizing) is unchanged
        assert_eq!(t.device_count(), 5);
        // the device itself is still addressable
        assert!(!t.device(DeviceId(1)).is_host);
    }

    #[test]
    fn link_classes_of_the_stock_fabrics() {
        let t = Topology::multi_server(2, 2);
        let host0 = t.host_of(0).unwrap();
        // GPU↔GPU same server: NVLink; host↔GPU: PCIe; across servers: RDMA
        assert_eq!(
            t.link_class(DeviceId(0), DeviceId(1)),
            Some(LinkClass::NvLink)
        );
        assert_eq!(t.link_class(host0, DeviceId(0)), Some(LinkClass::Pcie));
        assert_eq!(
            t.link_class(DeviceId(0), DeviceId(2)),
            Some(LinkClass::Rdma)
        );
        assert_eq!(t.link_class(DeviceId(0), DeviceId(0)), None);
        assert_eq!(
            LinkClass::classify(&Link::ethernet_25g(), false),
            LinkClass::Eth
        );
    }

    #[test]
    fn intra_server_route_is_one_direct_hop() {
        let t = Topology::single_server(4);
        assert!(t.route(DeviceId(0), DeviceId(0)).is_empty());
        assert_eq!(
            t.route(DeviceId(0), DeviceId(3)),
            vec![(DeviceId(0), DeviceId(3))]
        );
        assert_eq!(
            t.transfer_time_routed(DeviceId(0), DeviceId(0), 1 << 20),
            0.0
        );
    }

    #[test]
    fn inter_server_route_stages_through_both_hosts() {
        let t = Topology::multi_server(2, 2);
        let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
        // GPU → GPU across servers: PCIe up, NIC across, PCIe down
        assert_eq!(
            t.route(DeviceId(0), DeviceId(2)),
            vec![(DeviceId(0), h0), (h0, h1), (h1, DeviceId(2))]
        );
        // host endpoints skip their own staging hop
        assert_eq!(t.route(h0, DeviceId(2)), vec![(h0, h1), (h1, DeviceId(2))]);
        assert_eq!(t.route(DeviceId(0), h1), vec![(DeviceId(0), h0), (h0, h1)]);
        assert_eq!(t.route(h0, h1), vec![(h0, h1)]);
        // routed time = sum of the hop times, dominated by the NIC
        let bytes = 64 << 20;
        let want = Link::pcie().transfer_time(bytes) * 2.0 + Link::rdma_100g().transfer_time(bytes);
        assert!((t.transfer_time_routed(DeviceId(0), DeviceId(2), bytes) - want).abs() < 1e-12);
        assert!(
            t.transfer_time_routed(DeviceId(0), DeviceId(2), bytes)
                > t.transfer_time(DeviceId(0), DeviceId(2), bytes)
        );
    }

    #[test]
    fn route_collapses_to_direct_when_hosts_are_dead() {
        let mut t = Topology::multi_server(2, 2);
        let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
        t.fail_device(h0);
        // source server lost its host: direct NIC hop from the GPU side
        assert_eq!(
            t.route(DeviceId(0), DeviceId(2)),
            vec![(DeviceId(0), h1), (h1, DeviceId(2))]
        );
        t.fail_device(h1);
        assert_eq!(
            t.route(DeviceId(0), DeviceId(2)),
            vec![(DeviceId(0), DeviceId(2))]
        );
    }

    #[test]
    fn channel_keys_distinguish_nvlink_pairs_hosts_and_nics() {
        let t = Topology::multi_server(2, 2);
        let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
        let ch = |a, b| t.channel(a, b);
        // GPU pairs on a server: dedicated per-pair channels, direction-distinct
        assert_ne!(ch(DeviceId(0), DeviceId(1)), ch(DeviceId(1), DeviceId(0)));
        // all traffic leaving a host shares one channel; entering it another
        assert_eq!(ch(h0, DeviceId(0)), ch(h0, DeviceId(1)));
        assert_eq!(ch(DeviceId(0), h0), ch(DeviceId(1), h0));
        assert_ne!(ch(h0, DeviceId(0)), ch(DeviceId(0), h0));
        // every transfer between two servers shares the NIC-pair channel,
        // regardless of which endpoints are involved
        let nic = ch(DeviceId(0), DeviceId(2));
        assert_eq!(ch(DeviceId(1), DeviceId(3)), nic);
        assert_eq!(ch(h0, h1), nic);
        assert_ne!(ch(DeviceId(2), DeviceId(0)), nic);
        // NIC channels never collide with host or per-pair channels
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            assert_ne!(ch(DeviceId(a), DeviceId(b)), nic);
        }
        assert_ne!(ch(h0, DeviceId(0)), nic);
        assert_ne!(ch(DeviceId(0), h0), nic);
        // every index is in range
        for a in t.device_ids() {
            for b in t.device_ids().filter(|&b| b != a) {
                assert!(ch(a, b) < t.channel_count());
            }
        }
    }

    #[test]
    fn channel_keys_ignore_failure_masks() {
        // failing a device must not re-key live channels: id-indexed
        // reservations taken before a crash stay valid after it
        let mut t = Topology::multi_server(2, 2);
        let before = t.channel(DeviceId(1), DeviceId(3));
        let count = t.channel_count();
        t.fail_device(DeviceId(0));
        t.fail_device(t.host_of(1).unwrap());
        t.fail_link(DeviceId(1), DeviceId(2));
        assert_eq!(t.channel(DeviceId(1), DeviceId(3)), before);
        assert_eq!(t.channel(DeviceId(1), DeviceId(2)), before);
        assert_eq!(t.channel_count(), count);
    }

    /// The tuple key the channel index replaced, kept as the reference
    /// for the sharing rule: cross-server hops key on the server pair,
    /// host-leaving hops on the host's egress, host-entering hops on its
    /// ingress, GPU pairs on the directed pair.
    fn reference_key(t: &Topology, src: DeviceId, dst: DeviceId) -> (u32, u32) {
        if t.server_of(src) != t.server_of(dst) {
            (
                0x1_0000 + t.server_of(src) as u32,
                0x1_0000 + t.server_of(dst) as u32,
            )
        } else if t.is_host(src) {
            (0x2_0000 + src.0 as u32, 0)
        } else if t.is_host(dst) {
            (0x3_0000 + dst.0 as u32, 0)
        } else {
            (src.0 as u32, dst.0 as u32)
        }
    }

    #[test]
    fn channel_indices_share_exactly_when_reference_keys_do() {
        let grown = {
            let mut t = Topology::multi_server(2, 2);
            t.add_server(3);
            t.add_device(Device::v100("srv0/gpu2"), 0);
            t
        };
        let failed = {
            let mut t = Topology::multi_server(2, 4);
            t.fail_device(DeviceId(1));
            t.fail_device(t.host_of(1).unwrap());
            t
        };
        for t in [
            Topology::single_server(4),
            Topology::multi_server(2, 2),
            Topology::multi_server(2, 4),
            grown,
            failed,
        ] {
            let hops: Vec<(DeviceId, DeviceId)> = t
                .device_ids()
                .flat_map(|a| t.device_ids().map(move |b| (a, b)))
                .filter(|(a, b)| a != b)
                .collect();
            for &(a, b) in &hops {
                assert!(t.channel(a, b) < t.channel_count());
                for &(c, d) in &hops {
                    assert_eq!(
                        t.channel(a, b) == t.channel(c, d),
                        reference_key(&t, a, b) == reference_key(&t, c, d),
                        "{a}->{b} vs {c}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn failed_link_reroutes_through_alternate_staging() {
        let mut t = Topology::multi_server(2, 2);
        let (h0, h1) = (t.host_of(0).unwrap(), t.host_of(1).unwrap());
        let (g0, g2) = (DeviceId(0), DeviceId(2));
        let staged = vec![(g0, h0), (h0, h1), (h1, g2)];
        assert_eq!(t.route(g0, g2), staged);
        // NIC-pair hop dies: skip the egress host, enter through the
        // destination host directly
        t.fail_link(h0, h1);
        assert_eq!(t.try_route(g0, g2), Some(vec![(g0, h1), (h1, g2)]));
        // destination ingress dies too: stage through the egress host only
        t.fail_link(h1, g2);
        assert_eq!(t.try_route(g0, g2), Some(vec![(g0, h0), (h0, g2)]));
        // last resort: the raw direct inter-server link
        t.fail_link(h0, g2);
        assert_eq!(t.try_route(g0, g2), Some(vec![(g0, g2)]));
        // full partition: unreachable, but route() still prices the
        // preferred staging for planners
        t.fail_link(g0, g2);
        assert_eq!(t.try_route(g0, g2), None);
        assert_eq!(t.route(g0, g2), staged);
        // restore brings the preferred staging back
        t.restore_link(h0, h1);
        t.restore_link(h1, g2);
        assert_eq!(t.try_route(g0, g2), Some(staged));
    }

    #[test]
    fn intra_server_link_failure_stages_through_host() {
        let mut t = Topology::single_server(2);
        let h = t.host_of(0).unwrap();
        let (a, b) = (DeviceId(0), DeviceId(1));
        t.fail_link(a, b);
        assert!(t.live_link(a, b).is_none());
        assert!(t.link(a, b).is_some(), "physical wiring stays addressable");
        assert_eq!(t.try_route(a, b), Some(vec![(a, h), (h, b)]));
        // reverse direction untouched (directional mask)
        assert_eq!(t.try_route(b, a), Some(vec![(b, a)]));
        assert_eq!(t.failed_links(), vec![(a, b)]);
    }

    #[test]
    fn degraded_link_stretches_transfer_time() {
        let mut t = Topology::single_server(2);
        let (a, b) = (DeviceId(0), DeviceId(1));
        let base = t.transfer_time(a, b, 1 << 20);
        t.degrade_link(a, b, 4.0);
        assert!((t.transfer_time(a, b, 1 << 20) - 4.0 * base).abs() < 1e-12);
        assert!((t.link_degrade_factor(a, b) - 4.0).abs() < 1e-12);
        // reverse direction and routing are unaffected
        assert!((t.transfer_time(b, a, 1 << 20) - base).abs() < 1e-12);
        assert_eq!(t.try_route(a, b), Some(vec![(a, b)]));
        t.restore_link(a, b);
        assert!((t.transfer_time(a, b, 1 << 20) - base).abs() < 1e-12);
    }

    #[test]
    fn restore_device_reverses_blacklist_under_the_same_id() {
        let mut t = Topology::single_server(4);
        t.fail_device(DeviceId(2));
        assert_eq!(t.gpu_count(), 3);
        t.restore_device(DeviceId(2));
        assert_eq!(t.gpu_count(), 4);
        assert!(!t.is_failed(DeviceId(2)));
        let ids: Vec<DeviceId> = t.gpu_ids().collect();
        assert_eq!(
            ids,
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)],
            "restored devices reappear under their original id"
        );
        // restoring a healthy device is a no-op
        t.restore_device(DeviceId(0));
        assert_eq!(t.gpu_count(), 4);
    }

    #[test]
    fn add_device_wires_default_links_and_keeps_ids_stable() {
        let mut t = Topology::multi_server(2, 2); // gpus 0-3, hosts 4-5
        let before: Vec<DeviceId> = t.gpu_ids().collect();
        let d = t.add_device(Device::v100("srv1/gpu2"), 1);
        assert_eq!(d, DeviceId(6), "new device gets the next id");
        assert_eq!(t.server_of(d), 1);
        assert_eq!(t.gpu_count(), 5);
        // existing ids are untouched; the new GPU joins its server's NIC pair
        assert!(before.iter().all(|&g| !t.is_failed(g)));
        let nic = t.channel(DeviceId(0), DeviceId(2));
        assert_eq!(t.channel(DeviceId(1), d), nic);
        // same-server GPU peer: NVLink; to its host: PCIe; across: RDMA
        assert_eq!(t.link_class(d, DeviceId(2)), Some(LinkClass::NvLink));
        assert_eq!(
            t.link_class(d, t.host_of(1).unwrap()),
            Some(LinkClass::Pcie)
        );
        assert_eq!(t.link_class(d, DeviceId(0)), Some(LinkClass::Rdma));
        assert_eq!(t.link(d, d), None, "no self-link");
        // routing picks the new device up immediately, staged via hosts
        let (h1, h0) = (t.host_of(1).unwrap(), t.host_of(0).unwrap());
        assert_eq!(
            t.route(d, DeviceId(0)),
            vec![(d, h1), (h1, h0), (h0, DeviceId(0))]
        );
    }

    #[test]
    fn add_server_appends_a_fresh_server_with_host() {
        let mut t = Topology::multi_server(2, 2);
        let added = t.add_server(2);
        assert_eq!(added, vec![DeviceId(6), DeviceId(7)]);
        assert_eq!(t.server_of(DeviceId(6)), 2, "fresh server id");
        let h2 = t.host_of(2).expect("hot-added server has a host");
        assert!(t.is_host(h2));
        assert_eq!(t.gpu_count(), 6);
        assert_eq!(t.device_count(), 9);
        // new GPUs are fully wired: NVLink among themselves, PCIe to their
        // host, inter-server fabric to the old servers
        assert_eq!(
            t.link_class(DeviceId(6), DeviceId(7)),
            Some(LinkClass::NvLink)
        );
        assert_eq!(t.link_class(DeviceId(6), h2), Some(LinkClass::Pcie));
        assert_eq!(
            t.link_class(DeviceId(6), DeviceId(0)),
            Some(LinkClass::Rdma)
        );
    }

    #[test]
    #[should_panic]
    fn empty_topology_panics() {
        TopologyBuilder::new().build();
    }

    #[test]
    fn builder_specific_link_override() {
        let mut b = TopologyBuilder::new();
        let a = b.add_device(Device::v100("a"), 0);
        let c = b.add_device(Device::v100("b"), 0);
        b.connect_intra_server(Link::nvlink());
        b.connect(a, c, Link::pcie());
        let t = b.build();
        assert_eq!(t.link(a, c).unwrap().bandwidth, Link::pcie().bandwidth);
        // reverse direction keeps the default
        assert_eq!(t.link(c, a).unwrap().bandwidth, Link::nvlink().bandwidth);
    }

    #[test]
    fn validate_holds_through_growth_restore_and_slicing() {
        let mut t = Topology::multi_server(2, 2);
        assert_eq!(t.validate(), Ok(()));
        let d = t.add_device(Device::v100("hot"), 1);
        t.add_server(2);
        t.fail_device(d);
        t.restore_device(d);
        t.fail_link(DeviceId(0), DeviceId(1));
        t.degrade_link(DeviceId(1), DeviceId(0), 3.5);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn builder_rejects_self_link_override() {
        let mut b = TopologyBuilder::new();
        let a = b.add_device(Device::v100("a"), 0);
        b.add_device(Device::v100("b"), 0);
        b.connect(a, a, Link::pcie());
        b.build();
    }

    #[test]
    fn validate_reports_double_host_and_bad_matrices() {
        let good = Topology::single_server(2);
        let mut two_hosts = good.clone();
        two_hosts.devices.push(Device::host("h2"));
        two_hosts.server_of.push(0);
        two_hosts.failed.push(false);
        assert!(two_hosts.validate().unwrap_err().contains("rows"));
        let mut ragged = good.clone();
        ragged.link_down[0].push(true);
        assert!(ragged.validate().unwrap_err().contains("cols"));
        let mut selfish = good.clone();
        selfish.links[1][1] = Some(Link::pcie());
        assert!(selfish.validate().unwrap_err().contains("self-link"));
        let mut twin = good;
        twin.devices[0] = Device::host("h2"); // second host beside the real one
        assert!(twin.validate().unwrap_err().contains("two hosts"));
    }
}
