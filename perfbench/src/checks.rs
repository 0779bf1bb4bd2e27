//! Output checks computed apart from the program: view invariants, the
//! biggest usable cluster by the benchmark's own union-find, and datagram
//! conservation from the fabric's public counters.

use nylon_gossip::PeerSampler;
use nylon_net::PeerId;
use nylon_workloads::runner::{biggest_cluster_pct_with, SnapshotScratch};

use crate::probe::Probe;

/// What the final overlay looks like, recomputed by the benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overlay {
    /// Biggest weakly-connected cluster of usable edges, as a percentage
    /// of alive peers.
    pub biggest_pct: f64,
    /// Mean over non-empty views of the percentage of entries the holder
    /// cannot use (the paper's staleness).
    pub stale_pct: f64,
    /// Usable view entries over all alive peers.
    pub usable_edges: u64,
    /// Alive peers.
    pub alive: u64,
    /// Sum of view lengths over alive peers.
    pub view_entries: u64,
}

fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Checks every alive peer's view — at most `view_size` entries, no self
/// entry, no duplicate ids, ids within the population — and recomputes the
/// overlay by union-find over `view_of` + `edge_usable`. The biggest
/// cluster must equal `runner::biggest_cluster_pct_with`.
pub fn overlay<E: PeerSampler>(eng: &E, view_size: usize) -> Result<Overlay, String> {
    let n = eng.peer_count();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut seen = vec![u32::MAX; n];
    let mut out = Overlay::default();
    let (mut stale_sum, mut views) = (0.0, 0u64);
    for i in 0..n {
        let p = PeerId(i as u32);
        if !eng.is_alive(p) {
            continue;
        }
        out.alive += 1;
        let view = eng.view_of(p);
        if view.len() > view_size {
            return Err(format!("peer {i}: view holds {} entries > {view_size}", view.len()));
        }
        let mut stale = 0u64;
        for d in view.iter() {
            let t = d.id.index();
            if t >= n {
                return Err(format!("peer {i}: entry id {t} outside the population of {n}"));
            }
            if t == i {
                return Err(format!("peer {i}: view holds a self entry"));
            }
            if seen[t] == i as u32 {
                return Err(format!("peer {i}: view holds id {t} twice"));
            }
            seen[t] = i as u32;
            if eng.edge_usable(p, d) {
                out.usable_edges += 1;
                let (a, b) = (find(&mut parent, i as u32), find(&mut parent, t as u32));
                parent[a as usize] = b;
            } else {
                stale += 1;
            }
        }
        out.view_entries += view.len() as u64;
        if !view.is_empty() {
            stale_sum += 100.0 * stale as f64 / view.len() as f64;
            views += 1;
        }
    }
    let mut size = vec![0u32; n];
    for i in 0..n {
        if eng.is_alive(PeerId(i as u32)) {
            size[find(&mut parent, i as u32) as usize] += 1;
        }
    }
    let biggest = size.iter().copied().max().unwrap_or(0);
    if out.alive > 0 {
        out.biggest_pct = 100.0 * (biggest as f64 / out.alive as f64);
    }
    if views > 0 {
        out.stale_pct = stale_sum / views as f64;
    }
    let program = biggest_cluster_pct_with(eng, &mut SnapshotScratch::new());
    if (program - out.biggest_pct).abs() > 1e-9 {
        return Err(format!(
            "biggest cluster: program says {program}%, union-find says {}%",
            out.biggest_pct
        ));
    }
    Ok(out)
}

/// Datagram conservation: every datagram sent was received, dropped after
/// send, or is still in flight. A datagram is in flight for one 50 ms hop of
/// a 5 s round, so fewer than a tenth of one round's datagrams
/// (`round_datagrams`) may be. Returns the in-flight count.
pub fn conservation<E: Probe>(eng: &E, round_datagrams: u64) -> Result<u64, String> {
    let limit = round_datagrams / 10;
    let (mut sent, mut received) = (0u64, 0u64);
    for i in 0..eng.peer_count() {
        let t = eng.traffic_of(PeerId(i as u32));
        sent += t.msgs_sent;
        received += t.msgs_received;
    }
    let drops = eng.drops();
    // Source-dead datagrams never leave the host and are not counted sent.
    let dropped = drops.total() - drops.source_dead;
    let in_flight = sent as i128 - received as i128 - dropped as i128;
    if in_flight < 0 || in_flight >= limit as i128 {
        return Err(format!(
            "datagram conservation: sent {sent} = received {received} + dropped {dropped} \
             + in flight {in_flight}, allowed 0..{limit}"
        ));
    }
    Ok(in_flight as u64)
}
