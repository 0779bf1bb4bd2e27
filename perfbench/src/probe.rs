//! Read-only access to the counters every engine exposes, behind one trait,
//! so the workloads drive and count any engine — direct or sharded —
//! through the same code.

use nylon::{NylonEngine, NylonStats, StaticRvpEngine};
use nylon_gossip::{BaselineEngine, PeerSampler, PeerSwapEngine, ShardSampler, Sharded};
use nylon_net::{DropCounters, PeerId};

/// The engine-specific counters the benchmark reads, on top of
/// [`PeerSampler`]. Every method only reads state.
pub trait Probe: PeerSampler {
    /// Short engine name used in metric keys and messages.
    const LABEL: &'static str;

    /// Shuffles initiated, and shuffles completed (the response got back
    /// to the initiator).
    fn shuffles(&self) -> (u64, u64);

    /// Events popped by the event loop(s).
    fn events(&self) -> u64;

    /// Datagram drop counters by cause, over the whole fabric.
    fn drops(&self) -> DropCounters;

    /// Live NAT rules in front of `peer` (0 for public peers), read from
    /// the replica that owns the peer.
    fn nat_rules_of(&self, peer: PeerId) -> u64;

    /// Live routing entries of `peer` (engines without routing: 0).
    fn routes_of(&self, _peer: PeerId) -> u64 {
        0
    }

    /// Nylon protocol counters, for Nylon engines.
    fn nylon_stats(&self) -> Option<NylonStats> {
        None
    }

    /// Static-RVP failovers (hardened mode), for static-RVP engines.
    fn failovers(&self) -> u64 {
        0
    }

    /// The engine's telemetry report (empty unless the `obs` feature is
    /// compiled in).
    fn report(&self) -> nylon_obs::Report {
        let mut out = nylon_obs::Report::new();
        self.obs_report(&mut out);
        out
    }
}

/// The counters every direct engine exposes under the same names.
macro_rules! direct_counters {
    () => {
        fn events(&self) -> u64 {
            self.events_processed()
        }

        fn drops(&self) -> DropCounters {
            self.net().drop_counters()
        }

        fn nat_rules_of(&self, peer: PeerId) -> u64 {
            self.net().nat_box_of(peer).map_or(0, |b| b.live_rule_count(self.now()) as u64)
        }
    };
}

/// Field-wise sum of two drop-counter sets.
fn add_drops(a: DropCounters, b: DropCounters) -> DropCounters {
    DropCounters {
        loss: a.loss + b.loss,
        no_route: a.no_route + b.no_route,
        target_dead: a.target_dead + b.target_dead,
        source_dead: a.source_dead + b.source_dead,
        no_mapping: a.no_mapping + b.no_mapping,
        filtered: a.filtered + b.filtered,
        hairpin_blocked: a.hairpin_blocked + b.hairpin_blocked,
        fault_loss: a.fault_loss + b.fault_loss,
        partitioned: a.partitioned + b.partitioned,
    }
}

impl Probe for NylonEngine {
    const LABEL: &'static str = "nylon";

    fn shuffles(&self) -> (u64, u64) {
        let s = self.stats();
        (s.shuffles_initiated, s.responses_completed)
    }

    direct_counters!();

    fn routes_of(&self, peer: PeerId) -> u64 {
        self.routing_of(peer).len() as u64
    }

    fn nylon_stats(&self) -> Option<NylonStats> {
        Some(self.stats())
    }
}

impl Probe for BaselineEngine {
    const LABEL: &'static str = "baseline";

    fn shuffles(&self) -> (u64, u64) {
        let s = self.stats();
        (s.initiated, s.responses_received)
    }

    direct_counters!();
}

impl Probe for StaticRvpEngine {
    const LABEL: &'static str = "static-rvp";

    fn shuffles(&self) -> (u64, u64) {
        let s = self.stats();
        (s.shuffles_initiated, s.responses_completed)
    }

    direct_counters!();

    fn failovers(&self) -> u64 {
        self.stats().failovers
    }
}

impl Probe for PeerSwapEngine {
    const LABEL: &'static str = "peerswap";

    fn shuffles(&self) -> (u64, u64) {
        let s = self.stats();
        (s.swaps_initiated, s.responses_received)
    }

    direct_counters!();
}

/// A sharded run counts each protocol event on exactly one shard, so the
/// run-wide counters are per-shard sums; per-peer state is read from the
/// shard that owns the peer.
impl<E: Probe + ShardSampler> Probe for Sharded<E> {
    const LABEL: &'static str = E::LABEL;

    fn shuffles(&self) -> (u64, u64) {
        self.shards().iter().map(Probe::shuffles).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    fn events(&self) -> u64 {
        self.shards().iter().map(Probe::events).sum()
    }

    fn drops(&self) -> DropCounters {
        self.shards().iter().map(Probe::drops).fold(DropCounters::default(), add_drops)
    }

    fn nat_rules_of(&self, peer: PeerId) -> u64 {
        self.shard_of(peer).nat_rules_of(peer)
    }

    fn routes_of(&self, peer: PeerId) -> u64 {
        self.shard_of(peer).routes_of(peer)
    }

    fn nylon_stats(&self) -> Option<NylonStats> {
        let mut shards = self.shards().iter().filter_map(Probe::nylon_stats);
        let mut total = shards.next()?;
        shards.for_each(|s| total.merge(&s));
        Some(total)
    }

    fn failovers(&self) -> u64 {
        self.shards().iter().map(Probe::failovers).sum()
    }
}
