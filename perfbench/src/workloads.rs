//! The three workloads: paper-scale Nylon on the direct kernel, the same
//! population on two lockstep shards, and four engines under one fault plan.

use std::collections::BTreeMap;
use std::time::Instant;

use nylon::{NylonConfig, NylonEngine, StaticRvpConfig};
use nylon_faults::{FaultConfig, FaultPlan};
use nylon_gossip::{
    GossipConfig, PeerSampler, PeerSwapConfig, SamplerConfig, Sharded, ShardedConfig,
};
use nylon_net::{NetConfig, PeerId};
use nylon_obs::MetricValue;
use nylon_sim::{SimDuration, SimTime};
use nylon_workloads::runner::{biggest_cluster_pct_with, build, SnapshotScratch};
use nylon_workloads::Scenario;

use crate::checks::{conservation, overlay, Overlay};
use crate::probe::Probe;
use crate::trace::{allocations, median, tail, Spans};

/// Shuffle period of every engine's default configuration; the fault plan
/// is laid out in rounds of it.
const PERIOD: SimDuration = SimDuration::from_secs(5);

/// A re-merge succeeds when the biggest usable cluster holds this share of
/// the alive peers once the partition has lifted.
const REMERGE_PCT: f64 = 90.0;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Timed rounds per block on the Nylon workloads. The routing sweep runs
/// every 90 s of simulated time, 18 shuffle periods, so every block holds
/// exactly one.
const BLOCK_ROUNDS: u64 = 18;

/// The sizes a workload runs at: paper scale, or the tiny smoke scale of
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
struct Scale {
    peers: usize,
    /// Warm-up bounds, in rounds (Nylon workloads stop at the routing
    /// plateau in between).
    warm_min: u64,
    warm_max: u64,
    /// Timed rounds over which the seed-fixed counts are taken.
    count_rounds: u64,
    /// Population and rounds of the shard-invariance check.
    invariance: (usize, u64),
    /// Fault-plan layout of `engines-faults`, in rounds: partition length
    /// and recovery after it lifts.
    partition: u64,
    recovery: u64,
}

const PAPER: Scale = Scale {
    peers: 10_000,
    warm_min: 30,
    warm_max: 150,
    count_rounds: 40,
    invariance: (1_000, 30),
    partition: 0,
    recovery: 0,
};

const FAULTS: Scale = Scale {
    peers: 3_000,
    warm_min: 30,
    warm_max: 30,
    count_rounds: 0,
    invariance: (0, 0),
    partition: 30,
    recovery: 20,
};

/// Scenario seed of `engines-faults`. Its re-merge operations carry the
/// known partition fault, which must fail on every run, so their inputs do
/// not follow `--seed`.
const FAULTS_SEED: u64 = 1009;

fn smoke(s: Scale) -> Scale {
    Scale {
        peers: (s.peers / 25).max(200),
        warm_min: s.warm_min.min(10),
        warm_max: s.warm_max.min(20),
        count_rounds: s.count_rounds.min(10),
        invariance: (200, 10),
        partition: s.partition.min(20),
        recovery: s.recovery.min(10),
    }
}

/// A workload's result: the operations it attempted and failed, whether
/// every output check passed, and every metric it measured by name.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub spans: Spans,
}

/// The counters the benchmark differences over its windows.
#[derive(Debug, Clone, Copy, Default)]
struct Counts([u64; N_COUNTS]);

/// Indices into [`Counts`].
#[derive(Debug, Clone, Copy)]
enum C {
    Events,
    Initiated,
    Completed,
    BytesSent,
    Sent,
    Received,
    NoMapping,
    Filtered,
    Partitioned,
    TargetDead,
    FaultLoss,
    Direct,
    Relayed,
    Forwards,
    NylonShuffles,
    ChainHops,
    ChainSamples,
    Punches,
    PunchOk,
    Retries,
    RetryWins,
    Failovers,
    FaultEvents,
    Allocs,
    AllocBytes,
    StallNs,
    Envelopes,
    OutboxBytes,
    PoolAcquired,
    PoolRecycled,
    Len,
}

const N_COUNTS: usize = C::Len as usize;

impl Counts {
    fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    fn minus(&self, earlier: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].saturating_sub(earlier.0[i])))
    }

    fn add(&mut self, other: &Counts) {
        self.0.iter_mut().zip(other.0).for_each(|(a, b)| *a += b);
    }

    /// `a / b` of two counts, 0 when `b` is 0.
    fn ratio(&self, a: C, b: C) -> f64 {
        ratio(self.get(a) as f64, self.get(b) as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn obs_counter(r: &nylon_obs::Report, layer: &str, metric: &str) -> u64 {
    match r.get(layer, metric) {
        Some(MetricValue::Counter(v)) | Some(MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// Reads every counter of [`C`] off an engine. The telemetry report is
/// only asked for when `obs` is compiled in (it walks every routing table).
fn counts<E: Probe>(eng: &E) -> Counts {
    let mut c = [0u64; N_COUNTS];
    let (initiated, completed) = eng.shuffles();
    c[C::Events as usize] = eng.events();
    c[C::Initiated as usize] = initiated;
    c[C::Completed as usize] = completed;
    for i in 0..eng.peer_count() {
        let t = eng.traffic_of(PeerId(i as u32));
        c[C::BytesSent as usize] += t.bytes_sent;
        c[C::Sent as usize] += t.msgs_sent;
        c[C::Received as usize] += t.msgs_received;
    }
    let d = eng.drops();
    c[C::NoMapping as usize] = d.no_mapping;
    c[C::Filtered as usize] = d.filtered;
    c[C::Partitioned as usize] = d.partitioned;
    c[C::TargetDead as usize] = d.target_dead;
    c[C::FaultLoss as usize] = d.fault_loss;
    if let Some(s) = eng.nylon_stats() {
        c[C::Direct as usize] = s.direct_requests;
        c[C::Relayed as usize] = s.relayed_requests;
        c[C::Forwards as usize] = s.forwards;
        c[C::NylonShuffles as usize] = s.shuffles_initiated;
        c[C::ChainHops as usize] = s.chain_hops_sum;
        c[C::ChainSamples as usize] = s.chain_samples;
        c[C::Punches as usize] = s.hole_punches;
        c[C::PunchOk as usize] = s.punch_successes;
        c[C::Retries as usize] = s.punch_retries;
        c[C::RetryWins as usize] = s.punch_retry_wins;
    }
    c[C::Failovers as usize] = eng.failovers();
    let f = eng.fault_stats();
    c[C::FaultEvents as usize] = f.rebinds + f.crashes + f.revives + f.loss_bursts + f.partitions;
    (c[C::Allocs as usize], c[C::AllocBytes as usize]) = allocations();
    if nylon_obs::ENABLED {
        let r = eng.report();
        c[C::StallNs as usize] = obs_counter(&r, "shard", "stall_ns");
        c[C::Envelopes as usize] = obs_counter(&r, "shard", "outbox_envelopes");
        c[C::OutboxBytes as usize] = obs_counter(&r, "shard", "outbox_bytes");
        c[C::PoolAcquired as usize] = obs_counter(&r, "kernel", "pool_acquired");
        c[C::PoolRecycled as usize] = obs_counter(&r, "kernel", "pool_recycled");
    }
    Counts(c)
}

/// State read once at the end of an engine's run.
#[derive(Debug, Clone, Copy, Default)]
struct EndState {
    routes: u64,
    routed_peers: u64,
    nat_rules: u64,
    natted: u64,
    view_entries: u64,
    view_slots: u64,
    usable_edges: u64,
    alive: u64,
    queue_hwm: u64,
    probe_p99: u64,
}

/// Everything measured over a workload, summed over its engines.
#[derive(Default)]
struct Run {
    spans: Spans,
    errors: Vec<String>,
    /// Per set-up repetition: total wall seconds and the per-call
    /// milliseconds of compile, add_peers, fault_install, bootstrap, start.
    setups: Vec<(f64, [f64; 5])>,
    /// Timed phase, per engine: the peer-rounds of one block of identical
    /// work, and the wall seconds each block took.
    blocks: BTreeMap<&'static str, (u64, Vec<f64>)>,
    timed_rounds: u64,
    /// The seed-fixed count window.
    window: Counts,
    window_peer_rounds: u64,
    /// The counts and rounds the shard-layer metrics are taken over.
    shard: (Counts, u64),
    responses: BTreeMap<&'static str, (u64, u64)>,
    end: EndState,
}

const SETUP_PARTS: [&str; 5] =
    ["faults_compile", "add_peers", "fault_install", "bootstrap", "start"];

impl Run {
    fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        r.map_err(|e| self.errors.push(format!("{what}: {e}"))).ok()
    }

    /// Builds, bootstraps and starts an engine for `scn`, the way
    /// `runner::build_with_plan` does, with a span around each layer call.
    /// Returns the engine and its set-up seconds.
    fn setup<Cfg: SamplerConfig>(
        &mut self,
        scn: &Scenario,
        mut cfg: Cfg,
        faults: Option<&FaultConfig>,
    ) -> (Cfg::Sampler, f64)
    where
        Cfg::Sampler: Probe,
    {
        let label = <Cfg::Sampler as Probe>::LABEL;
        let t0 = Instant::now();
        let net = NetConfig::default();
        cfg.set_view_size(scn.view_size);
        cfg.align_to_net(&net);
        let classes = scn.classes();
        let spans = &mut self.spans;
        let plan = faults.map(|f| {
            spans.time("faults_compile", label, || FaultPlan::compile(f, scn.seed, &classes))
        });
        let mut eng = Cfg::Sampler::with_seed(cfg, net, scn.seed);
        spans.time("add_peers", label, || {
            for c in &classes {
                eng.add_peer(*c);
            }
        });
        if let Some(plan) = plan {
            spans.time("fault_install", label, || eng.install_fault_plan(plan));
        }
        spans.time("bootstrap", label, || eng.bootstrap_random_public(scn.bootstrap_contacts));
        spans.time("start", label, || eng.start());
        (eng, t0.elapsed().as_secs_f64())
    }

    /// Records one set-up repetition: its wall seconds, and the set-up
    /// spans recorded since span number `since_span`.
    fn note_setup(&mut self, secs: f64, since_span: usize) {
        let mut parts = [0.0; 5];
        for (i, name) in SETUP_PARTS.iter().enumerate() {
            parts[i] = self.spans.ms_since(name, since_span).iter().fold(0.0, |a, b| a + b);
        }
        self.setups.push((secs, parts));
    }

    /// Runs one timed round with a span; returns its wall seconds.
    fn round<E: Probe>(&mut self, eng: &mut E) -> f64 {
        self.spans.time("round", E::LABEL, || eng.run_rounds(1));
        self.timed_rounds += 1;
        self.spans.last_secs()
    }

    /// Records one timed block of an engine: its peer-rounds (the same for
    /// every block of that engine) and its wall seconds.
    fn close_block<E: Probe>(&mut self, peer_rounds: u64, secs: f64) {
        let block = self.blocks.entry(E::LABEL).or_default();
        block.0 = peer_rounds;
        block.1.push(secs);
    }

    /// Peer-rounds per wall second of the timed phase, with each engine's
    /// block taken at its median time: a contention burst on a shared host
    /// slows a few blocks, and moves the figure by at most their rank.
    fn peer_rounds_per_s(&self) -> f64 {
        let (work, secs) = self
            .blocks
            .values()
            .fold((0.0, 0.0), |(w, t), (pr, secs)| (w + *pr as f64, t + median(secs)));
        ratio(work, secs)
    }

    /// Adds an engine's end state: routing, NAT rules, views and telemetry.
    fn note_end<E: Probe>(&mut self, eng: &E, ov: &Overlay, view_size: usize) {
        let e = &mut self.end;
        let routed = eng.nylon_stats().is_some();
        for i in 0..eng.peer_count() {
            let p = PeerId(i as u32);
            if !eng.is_alive(p) {
                continue;
            }
            if routed {
                e.routes += eng.routes_of(p);
                e.routed_peers += 1;
            }
            if !eng.class_of(p).is_public() {
                e.nat_rules += eng.nat_rules_of(p);
                e.natted += 1;
            }
        }
        e.view_entries += ov.view_entries;
        e.view_slots += ov.alive * view_size as u64;
        e.usable_edges += ov.usable_edges;
        e.alive += ov.alive;
        if nylon_obs::ENABLED {
            let r = eng.report();
            e.queue_hwm = e.queue_hwm.max(obs_counter(&r, "kernel", "queue_depth_hwm"));
            if let Some(MetricValue::Histogram(h)) = r.get("routing", "probe_len") {
                e.probe_p99 = e.probe_p99.max(h.quantile(0.99));
            }
        }
    }

    fn note_window<E: Probe>(&mut self, w: Counts, rounds: u64, peers: u64) {
        self.window.add(&w);
        self.window_peer_rounds += rounds * peers;
        let r = self.responses.entry(E::LABEL).or_default();
        r.0 += w.get(C::Initiated);
        r.1 += w.get(C::Completed);
    }

    /// The workload's metrics: end-to-end and per-layer.
    fn metrics(&self) -> BTreeMap<String, f64> {
        let w = &self.window;
        let peer_rounds = self.window_peer_rounds as f64;
        let (shard, shard_rounds) = (&self.shard.0, self.shard.1 as f64);
        let e = &self.end;
        let setup_col = |i: usize| median(&self.setups.iter().map(|s| s.1[i]).collect::<Vec<_>>());
        let rounds_ms = self.spans.ms("round");
        let snaps_ms = self.spans.ms("snapshot");
        let mut m: Vec<(String, f64)> = vec![
            ("peer_rounds_per_s".into(), self.peer_rounds_per_s()),
            ("setup_s".into(), median(&self.setups.iter().map(|s| s.0).collect::<Vec<_>>())),
            (
                "peak_rss_mib".into(),
                nylon_obs::process::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0),
            ),
            ("shuffles_per_peer_round".into(), ratio(w.get(C::Completed) as f64, peer_rounds)),
            ("wire_bytes_per_peer_round".into(), ratio(w.get(C::BytesSent) as f64, peer_rounds)),
            ("sim.events_per_peer_round".into(), ratio(w.get(C::Events) as f64, peer_rounds)),
            ("sim.queue_depth_hwm".into(), e.queue_hwm as f64),
            (
                "shard.stall_ms_per_round".into(),
                ratio(shard.get(C::StallNs) as f64 / 1e6, shard_rounds),
            ),
            (
                "shard.envelopes_per_round".into(),
                ratio(shard.get(C::Envelopes) as f64, shard_rounds),
            ),
            (
                "shard.outbox_kib_per_round".into(),
                ratio(shard.get(C::OutboxBytes) as f64 / 1024.0, shard_rounds),
            ),
            ("net.datagrams_per_peer_round".into(), ratio(w.get(C::Sent) as f64, peer_rounds)),
            ("net.nat_rules_per_natted_peer".into(), ratio(e.nat_rules as f64, e.natted as f64)),
            ("net.pool_recycle_ratio".into(), w.ratio(C::PoolRecycled, C::PoolAcquired)),
            ("core.routing_entries_per_peer".into(), ratio(e.routes as f64, e.routed_peers as f64)),
            ("core.routing_probe_len_p99".into(), e.probe_p99 as f64),
            (
                "core.relayed_share".into(),
                ratio(w.get(C::Relayed) as f64, (w.get(C::Direct) + w.get(C::Relayed)) as f64),
            ),
            ("core.forwards_per_shuffle".into(), w.ratio(C::Forwards, C::NylonShuffles)),
            ("core.mean_chain_len".into(), w.ratio(C::ChainHops, C::ChainSamples)),
            ("core.punch_success_ratio".into(), w.ratio(C::PunchOk, C::Punches)),
            ("core.punch_retry_win_ratio".into(), w.ratio(C::RetryWins, C::Retries)),
            ("core.static_rvp.failovers".into(), w.get(C::Failovers) as f64),
            ("gossip.view_fill".into(), ratio(e.view_entries as f64, e.view_slots as f64)),
            ("faults.compile_ms".into(), setup_col(0)),
            ("faults.events_applied".into(), w.get(C::FaultEvents) as f64),
            ("metrics.snapshot_ms.p50".into(), median(&snaps_ms)),
            ("metrics.snapshot_ms.tail".into(), tail(&snaps_ms)),
            ("metrics.usable_edges_per_peer".into(), ratio(e.usable_edges as f64, e.alive as f64)),
            ("runner.add_peers_ms".into(), setup_col(1)),
            ("runner.fault_install_ms".into(), setup_col(2)),
            ("runner.bootstrap_ms".into(), setup_col(3)),
            ("runner.start_ms".into(), setup_col(4)),
            ("engine.round_ms.p50".into(), median(&rounds_ms)),
            ("engine.round_ms.tail".into(), tail(&rounds_ms)),
            ("alloc.allocs_per_peer_round".into(), ratio(w.get(C::Allocs) as f64, peer_rounds)),
            ("alloc.bytes_per_peer_round".into(), ratio(w.get(C::AllocBytes) as f64, peer_rounds)),
        ];
        for (reason, c) in [
            ("no_mapping", C::NoMapping),
            ("filtered", C::Filtered),
            ("partitioned", C::Partitioned),
            ("target_dead", C::TargetDead),
            ("fault_loss", C::FaultLoss),
        ] {
            m.push((
                format!("net.drops_per_peer_round.{reason}"),
                ratio(w.get(c) as f64, peer_rounds),
            ));
        }
        for label in ["baseline", "nylon", "static-rvp", "peerswap"] {
            let (init, done) = self.responses.get(label).copied().unwrap_or_default();
            m.push((format!("gossip.{label}.response_ratio"), ratio(done as f64, init as f64)));
        }
        m.into_iter().collect()
    }

    fn outcome(self, attempted: u64, failed: u64) -> Outcome {
        for e in &self.errors {
            eprintln!("check failed: {e}");
        }
        Outcome {
            correct: self.errors.is_empty(),
            attempted,
            failed,
            metrics: self.metrics(),
            spans: self.spans,
        }
    }
}

/// Per-peer routes averaged over alive peers (the warm-up plateau signal).
fn routes_per_peer<E: Probe>(eng: &E) -> f64 {
    let alive = eng.alive_peers();
    ratio(alive.iter().map(|p| eng.routes_of(*p)).sum::<u64>() as f64, alive.len() as f64)
}

/// Warms up until the routing tables plateau: routes per peer grew by
/// less than 1 % over the last ten rounds. The stopping round is a pure
/// function of the run, so it is fixed for a seed.
fn warm_up<E: Probe>(run: &mut Run, eng: &mut E, s: &Scale) -> u64 {
    let mut history = Vec::new();
    for r in 1..=s.warm_max {
        run.spans.time("warmup_round", E::LABEL, || eng.run_rounds(1));
        history.push(routes_per_peer(eng));
        let r = r as usize;
        if r > 10 && r as u64 >= s.warm_min && history[r - 1] < 1.01 * history[r - 11] {
            return r as u64;
        }
    }
    s.warm_max
}

/// Paper-scale Nylon on one kernel: set-up repetitions, warm-up to the
/// routing plateau, the timed rounds in whole blocks, then the output
/// checks.
fn nylon_paper<Cfg: SamplerConfig>(cfg: Cfg, seed: u64, seconds: f64, s: Scale) -> Run
where
    Cfg::Sampler: Probe,
{
    let scn = Scenario::new(s.peers, 70.0, seed);
    let mut run = Run::default();
    let mut eng = None;
    for _ in 0..SETUP_REPS {
        drop(eng.take());
        let mark = run.spans.len();
        let (e, secs) = run.setup(&scn, cfg.clone(), None);
        run.note_setup(secs, mark);
        eng = Some(e);
    }
    let mut eng = eng.expect("at least one set-up");
    let warm = warm_up(&mut run, &mut eng, &s);
    eprintln!("[perfbench] warm-up ended at round {warm}");

    let c0 = counts(&eng);
    let started = Instant::now();
    let mut window = None;
    let mut block_s = 0.0;
    while run.timed_rounds < s.count_rounds
        || run.timed_rounds % BLOCK_ROUNDS != 0
        || started.elapsed().as_secs_f64() < seconds
    {
        block_s += run.round(&mut eng);
        if run.timed_rounds == s.count_rounds {
            window = Some(counts(&eng).minus(&c0));
        }
        if run.timed_rounds % BLOCK_ROUNDS == 0 {
            run.close_block::<Cfg::Sampler>(BLOCK_ROUNDS * s.peers as u64, block_s);
            block_s = 0.0;
        }
    }
    let window = window.expect("the count window closes inside the timed phase");
    run.note_window::<Cfg::Sampler>(window, s.count_rounds, s.peers as u64);

    let per_round = window.get(C::Sent) / s.count_rounds;
    if let Some(ov) = run.check("views/cluster", overlay(&eng, scn.view_size)) {
        run.note_end(&eng, &ov, scn.view_size);
        if ov.biggest_pct < 99.0 || ov.stale_pct >= 5.0 {
            run.errors.push(format!(
                "paper property: biggest cluster {:.2}% (need >= 99%), stale {:.2}% (need < 5%)",
                ov.biggest_pct, ov.stale_pct
            ));
        }
        eprintln!(
            "[perfbench] biggest usable cluster {:.2}%, stale entries {:.2}%",
            ov.biggest_pct, ov.stale_pct
        );
    }
    if let Some(n) = run.check("conservation", conservation(&eng, per_round)) {
        eprintln!("[perfbench] {n} datagrams in flight at the end, of {per_round} per round");
    }
    run
}

/// The direct kernel. Its shard-layer metrics come from the S=2 run of the
/// shard-invariance check, the only place the shard layer works here.
pub fn run_nylon_paper(seed: u64, seconds: f64, smoke_mode: bool) -> Outcome {
    let s = if smoke_mode { smoke(PAPER) } else { PAPER };
    let mut run = nylon_paper(NylonConfig::default(), seed, seconds, s);
    let (peers, inv_rounds) = s.invariance;
    if let Some(c) = run.check("shard invariance", shard_invariance(peers, inv_rounds, seed)) {
        run.shard = (c, inv_rounds);
    }
    let rounds = run.timed_rounds;
    run.outcome(rounds, 0)
}

/// Two lockstep shards; its shard-layer metrics come from its own window.
pub fn run_nylon_paper_s2(seed: u64, seconds: f64, smoke_mode: bool) -> Outcome {
    let s = if smoke_mode { smoke(PAPER) } else { PAPER };
    let mut run = nylon_paper(ShardedConfig::new(NylonConfig::default(), 2), seed, seconds, s);
    run.shard = (run.window, s.count_rounds);
    let (peers, inv_rounds) = s.invariance;
    run.check("shard invariance", shard_invariance(peers, inv_rounds, seed));
    let rounds = run.timed_rounds;
    run.outcome(rounds, 0)
}

/// Runs a reduced Nylon scenario at S=1 and S=2: final stats and every
/// view must be identical. Returns the counts of the S=2 run.
fn shard_invariance(peers: usize, rounds: u64, seed: u64) -> Result<Counts, String> {
    let scn = Scenario::new(peers, 70.0, seed);
    let run = |shards| {
        let mut eng: Sharded<NylonEngine> =
            build(&scn, ShardedConfig::new(NylonConfig::default(), shards));
        eng.run_rounds(rounds);
        eng
    };
    let (one, two) = (run(1), run(2));
    if one.nylon_stats() != two.nylon_stats() {
        return Err(format!(
            "stats differ: S=1 {:?} vs S=2 {:?}",
            one.nylon_stats(),
            two.nylon_stats()
        ));
    }
    for i in 0..peers as u32 {
        if one.view_of(PeerId(i)).as_slice() != two.view_of(PeerId(i)).as_slice() {
            return Err(format!("peer {i}: view differs between S=1 and S=2"));
        }
    }
    Ok(counts(&two))
}

/// The fault plan every engine of `engines-faults` runs under: rebind
/// waves and kill/revive flapping until the partition lifts, hardening on,
/// and a half/half bisection from the end of warm-up that outlasts view
/// turnover.
fn fault_cfg(s: &Scale) -> FaultConfig {
    FaultConfig {
        horizon: PERIOD * (s.warm_max + s.partition),
        rebind_period: PERIOD * 8,
        rebind_fraction: 0.2,
        flap_period: PERIOD * 12,
        flap_fraction: 0.05,
        partition_at: SimTime::ZERO + PERIOD * s.warm_max,
        partition_len: PERIOD * s.partition,
        partition_cut_fraction: 0.5,
        harden: true,
        ..FaultConfig::default()
    }
}

/// One engine's fault run: set-up, warm-up, then the timed rounds through
/// the partition and the recovery, each followed by a biggest-cluster
/// snapshot; the timed rounds and their snapshots make one block. Returns
/// whether the overlay re-merged, and the set-up seconds.
fn fault_engine<Cfg: SamplerConfig>(
    run: &mut Run,
    cfg: Cfg,
    s: &Scale,
    first_cycle: bool,
) -> (bool, f64)
where
    Cfg::Sampler: Probe,
{
    let label = <Cfg::Sampler as Probe>::LABEL;
    let scn = Scenario::new(s.peers, 60.0, FAULTS_SEED);
    let (mut eng, secs) = run.setup(&scn, cfg, Some(&fault_cfg(s)));
    run.spans.time("warmup", label, || eng.run_rounds(s.warm_max));
    let timed_rounds = s.partition + s.recovery;
    let c0 = counts(&eng);
    let mut scratch = SnapshotScratch::new();
    let mut timed_s = 0.0;
    for _ in 0..timed_rounds {
        timed_s += run.round(&mut eng);
        run.spans.time("snapshot", label, || biggest_cluster_pct_with(&eng, &mut scratch));
        timed_s += run.spans.last_secs();
    }
    run.close_block::<Cfg::Sampler>(timed_rounds * s.peers as u64, timed_s);
    let window = counts(&eng).minus(&c0);
    let ov = run.check(label, overlay(&eng, scn.view_size));
    let per_round = window.get(C::Sent) / timed_rounds;
    if let Some(n) = run.check(label, conservation(&eng, per_round)) {
        if first_cycle {
            eprintln!(
                "[perfbench] {label}: {n} datagrams in flight at the end, of {per_round} per round"
            );
        }
    }
    if first_cycle {
        run.note_window::<Cfg::Sampler>(window, timed_rounds, s.peers as u64);
        if let Some(ov) = &ov {
            run.note_end(&eng, ov, scn.view_size);
        }
    }
    let pct = ov.map_or(0.0, |o| o.biggest_pct);
    let merged = pct >= REMERGE_PCT;
    if first_cycle {
        eprintln!(
            "[perfbench] {label}: biggest usable cluster {pct:.1}% after the partition lifted{}",
            if merged { "" } else { " -- re-merge FAILED (known fault: partitions never heal)" }
        );
    }
    (merged, secs)
}

/// Four engines in turn under one fault plan, in whole cycles until
/// `seconds` have passed. Each engine's re-merge is one operation. Cycles
/// short of [`SETUP_REPS`] are made up with set-up-only repetitions.
pub fn run_engines_faults(seconds: f64, smoke_mode: bool) -> Outcome {
    let s = if smoke_mode { smoke(FAULTS) } else { FAULTS };
    let mut run = Run::default();
    let started = Instant::now();
    let (mut attempted, mut failed, mut cycles) = (0, 0, 0);
    while cycles == 0 || started.elapsed().as_secs_f64() < seconds {
        let mark = run.spans.len();
        let first = cycles == 0;
        let results = [
            fault_engine(&mut run, GossipConfig::default(), &s, first),
            fault_engine(&mut run, NylonConfig::default(), &s, first),
            fault_engine(&mut run, StaticRvpConfig::default(), &s, first),
            fault_engine(&mut run, PeerSwapConfig::default(), &s, first),
        ];
        run.note_setup(results.iter().map(|r| r.1).sum(), mark);
        attempted += results.len() as u64;
        failed += results.iter().filter(|r| !r.0).count() as u64;
        cycles += 1;
    }
    let scn = Scenario::new(s.peers, 60.0, FAULTS_SEED);
    let faults = fault_cfg(&s);
    for _ in cycles..SETUP_REPS {
        let mark = run.spans.len();
        let secs = run.setup(&scn, GossipConfig::default(), Some(&faults)).1
            + run.setup(&scn, NylonConfig::default(), Some(&faults)).1
            + run.setup(&scn, StaticRvpConfig::default(), Some(&faults)).1
            + run.setup(&scn, PeerSwapConfig::default(), Some(&faults)).1;
        run.note_setup(secs, mark);
    }
    run.outcome(attempted, failed)
}
