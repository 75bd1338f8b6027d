//! Layer benches: each times one crate's public functions in isolation,
//! with the seeds and sizes of the workload whose end-to-end metric that
//! layer explains, and the per-layer ledger they fill.

use std::hint::black_box;
use std::time::Instant;

use vg_core::selector::{shard_size_for, LoserTree, ShardedTree};
use vg_core::{HeuristicKind, SchedViewBuilder};
use vg_des::rng::SeedPath;
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_markov::availability::ProcState;
use vg_markov::OutageChain;
use vg_platform::volatility::CorrelatedModel;
use vg_platform::{FaultScript, MarkovSourceBank, PlatformConfig, RowSource, ScriptedOverlay};
use vg_sim::platform_chain_stats;

use crate::report::{median, Metrics};
use crate::trace::Recorder;
use crate::workloads::{Single, GROUPS_1K, OUTAGE_1K, SCRIPT_1K};

/// Runs `f` until at least `min_reps` repetitions and `min_s` seconds have
/// passed; returns the seconds of each repetition.
fn reps(min_reps: usize, min_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// `make_scenario` and `platform_chain_stats`, per call, over `cells`:
/// (make µs, chain-stats µs), each the median over repetitions of the
/// mean per-cell cost.
pub fn scenario_bench(cells: &[ScenarioParams], seed: u64) -> (f64, f64) {
    let root = SeedPath::root(seed).child_str("ledger.scenario");
    let n = cells.len() as f64;
    let mut make = reps(5, 0.05, || {
        for (i, &c) in cells.iter().enumerate() {
            black_box(make_scenario(c, root.child(i as u64)));
        }
    });
    let platforms: Vec<PlatformConfig> = cells
        .iter()
        .enumerate()
        .map(|(i, &c)| make_scenario(c, root.child(i as u64)).platform)
        .collect();
    let mut chains = reps(5, 0.05, || {
        for p in &platforms {
            black_box(platform_chain_stats(p));
        }
    });
    (median(&mut make) * 1e6 / n, median(&mut chains) * 1e6 / n)
}

/// A scheduler's view of `platform` at one slot: states drawn from each
/// worker's stationary distribution, seeded program holdings and delays.
/// Returns the view and its UP count `u`.
fn seeded_view(
    platform: &PlatformConfig,
    t_prog: u64,
    t_data: u64,
    seed: SeedPath,
) -> (vg_core::OwnedSchedView, usize) {
    let mut rng = seed.rng();
    let mut b = SchedViewBuilder::new(t_prog, t_data, platform.ncom);
    let mut u = 0;
    for pc in &platform.processors {
        let chain = pc.believed_chain();
        let pi = chain.stationary();
        let state = ProcState::from_index(rng.weighted_index(&pi).unwrap_or(0));
        u += usize::from(state.is_up());
        let w = pc.spec.w;
        b = b.proc(
            state,
            w,
            rng.bernoulli(0.5),
            rng.u64_range_inclusive(0, 2 * w),
            chain,
        );
    }
    (b.build(), u)
}

/// `Scheduler::place_into` on a seeded view of `platform` placing `count`
/// tasks per round: (ns per placement, UP count of the view). Small rounds
/// are timed in batches so the clock's own cost stays negligible.
pub fn place_bench(
    platform: &PlatformConfig,
    params: &ScenarioParams,
    kind: HeuristicKind,
    count: usize,
    seed: u64,
) -> (f64, usize) {
    let root = SeedPath::root(seed).child_str("ledger.place");
    let (view, u) = seeded_view(platform, params.t_prog(), params.t_data(), root.child(0));
    let mut sched = kind.build(root.child(1).rng());
    let mut out = Vec::with_capacity(count);
    sched.place_into(&view.view(), count, &mut out);
    let batch = (4096 / count.max(1)).max(1);
    let mut per_batch = reps(5, 0.15, || {
        for _ in 0..batch {
            out.clear();
            sched.place_into(&view.view(), count, &mut out);
            black_box(&out);
        }
    });
    let placements = (batch * count.max(1)) as f64;
    (median(&mut per_batch) * 1e9 / placements, u)
}

/// The tournament operations a greedy placement round performs.
trait Tournament {
    fn rebuild(&mut self, scores: &[f64]);
    fn winner(&self) -> usize;
    fn replay_winner(&mut self, leaf: usize, scores: &[f64]);
}

impl Tournament for LoserTree {
    fn rebuild(&mut self, scores: &[f64]) {
        LoserTree::rebuild(self, scores);
    }
    fn winner(&self) -> usize {
        LoserTree::winner(self)
    }
    fn replay_winner(&mut self, leaf: usize, scores: &[f64]) {
        LoserTree::replay_winner(self, leaf, scores);
    }
}

/// A sharded tree at the production shard width for its `u`.
struct Sharded(ShardedTree, usize);

impl Tournament for Sharded {
    fn rebuild(&mut self, scores: &[f64]) {
        self.0.rebuild(scores, self.1);
    }
    fn winner(&self) -> usize {
        self.0.winner()
    }
    fn replay_winner(&mut self, leaf: usize, scores: &[f64]) {
        self.0.replay_winner(leaf, scores);
    }
}

/// Rebuild (µs) and winner-replay (ns) cost of a tournament over `u`
/// seeded scores. A replay charges the winner a seeded completion-time bump,
/// as a greedy round does after each placement.
fn selector_bench(tree: &mut impl Tournament, u: usize, seed: SeedPath) -> (f64, f64) {
    let mut rng = seed.rng();
    let base: Vec<f64> = (0..u.max(1)).map(|_| rng.f64_range(1.0, 100.0)).collect();
    let batch = (200_000 / base.len()).max(1);
    let mut builds = reps(5, 0.05, || {
        for _ in 0..batch {
            tree.rebuild(black_box(&base));
        }
    });
    let mut scores = base.clone();
    tree.rebuild(&scores);
    let replays = 200_000;
    let mut per_batch = reps(3, 0.05, || {
        for _ in 0..replays {
            let w = tree.winner();
            scores[w] += rng.f64_range(1.0, 10.0);
            tree.replay_winner(w, &scores);
        }
    });
    (
        median(&mut builds) * 1e6 / batch as f64,
        median(&mut per_batch) * 1e9 / replays as f64,
    )
}

pub fn loser_bench(u: usize, seed: u64) -> (f64, f64) {
    let seed = SeedPath::root(seed).child_str("ledger.loser");
    selector_bench(&mut LoserTree::default(), u, seed)
}

pub fn sharded_bench(u: usize, seed: u64) -> (f64, f64) {
    let seed = SeedPath::root(seed).child_str("ledger.sharded");
    selector_bench(
        &mut Sharded(ShardedTree::default(), shard_size_for(u)),
        u,
        seed,
    )
}

/// ns per worker-slot of `next_row_into` on a whole-row source.
fn row_source_ns(src: &mut dyn RowSource, slots: usize) -> f64 {
    let p = src.p();
    let mut row = Vec::with_capacity(p);
    let mut samples = reps(3, 0.05, || {
        for _ in 0..slots {
            row.clear();
            src.next_row_into(&mut row);
            black_box(&row);
        }
    });
    median(&mut samples) * 1e9 / (slots * p) as f64
}

/// The dense Markov bank of the 64k workload's first instance.
pub fn dense_bench(seed: u64) -> Result<f64, String> {
    let kind = Single::Scale64k;
    let platform = kind.platform(seed, 0);
    let mut bank =
        MarkovSourceBank::try_from_platform(&platform, &kind.seeds(seed, 0).child_str("trace"))
            .ok_or("64k platform is not all-Markov")?;
    Ok(row_source_ns(&mut bank, 64))
}

/// The correlated group source of the co-scheduling workload's first
/// instance.
pub fn corr_bench(seed: u64) -> Result<f64, String> {
    let kind = Single::Cosched1k;
    let platform = kind.platform(seed, 0);
    let outage = OutageChain::new(OUTAGE_1K.0, OUTAGE_1K.1).map_err(|e| e.to_string())?;
    let mut src = CorrelatedModel::uniform_groups(platform.p(), GROUPS_1K, outage)
        .build(&platform, &kind.seeds(seed, 0).child_str("trace"))
        .map_err(|e| e.to_string())?;
    Ok(row_source_ns(&mut src, 4096))
}

/// (parse + compile µs, overlay ns per slot) of the co-scheduling
/// workload's fault script at `p = 1024`. The overlay is applied over the
/// script's whole horizon to rows that start all-UP.
pub fn fault_bench() -> Result<(f64, f64), String> {
    let p = Single::Cosched1k.p();
    let compile = || {
        FaultScript::parse(SCRIPT_1K)
            .and_then(|s| s.compile(p))
            .map_err(|e| e.to_string())
    };
    let script = compile()?;
    let batch = 64;
    let mut compiles = reps(5, 0.05, || {
        for _ in 0..batch {
            black_box(compile().ok());
        }
    });
    let horizon = script.horizon();
    let mut row = vec![ProcState::Up; p];
    let mut overlay = ScriptedOverlay::new(script.clone());
    let mut per_pass = reps(5, 0.05, || {
        overlay = ScriptedOverlay::new(script.clone());
        for slot in 0..horizon {
            row.fill(ProcState::Up);
            black_box(overlay.apply_row(slot, &mut row));
        }
    });
    Ok((
        median(&mut compiles) * 1e6 / batch as f64,
        median(&mut per_pass) * 1e9 / horizon.max(1) as f64,
    ))
}

/// Every per-layer number, one field per metric. Fields a workload does
/// not exercise are filled by the layer benches above.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub campaign_instance_ms_p50: f64,
    pub campaign_instance_ms_p90: f64,
    pub campaign_instances: u64,
    pub campaign_slots: u64,
    pub par_busy_frac: f64,
    pub par_tail_s: f64,
    pub par_threads: usize,
    pub scenario_make_us: f64,
    pub markov_chain_stats_us: f64,
    /// ns per simulated slot, per family of `workloads::FAMILIES`.
    pub sched_ns_per_slot: [f64; 5],
    pub sched_place_ns: f64,
    pub sched_place_u: usize,
    pub sharded_u: usize,
    pub sharded_rebuild_us: f64,
    pub sharded_replay_ns: f64,
    pub loser_u: usize,
    pub loser_rebuild_us: f64,
    pub loser_replay_ns: f64,
    pub dense_ns_per_worker_slot: f64,
    pub source_share_of_step: f64,
    pub corr_ns_per_worker_slot: f64,
    pub overlay_ns_per_slot: f64,
    pub fault_compile_us: f64,
    pub fault_injected: u64,
    pub step_us_p50: f64,
    pub step_us_p99: f64,
    pub steps: u64,
    pub construct_ms: f64,
    pub tasks_per_slot: f64,
    pub replicas_started_per_slot: f64,
    pub replicas_canceled_per_slot: f64,
    pub replica_waste: f64,
    pub channel_slots_per_slot: f64,
    pub cap_engagements: u64,
    pub final_m: [u64; 2],
    pub trace_overhead_frac: f64,
    pub trace_spans: u64,
    pub nproc: usize,
    pub threads: usize,
}

impl Ledger {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push(
            "campaign.instance_ms_p50",
            self.campaign_instance_ms_p50,
            "ms",
        );
        m.push(
            "campaign.instance_ms_p90",
            self.campaign_instance_ms_p90,
            "ms",
        );
        m.push(
            "campaign.instances",
            self.campaign_instances as f64,
            "count",
        );
        m.push("campaign.slots", self.campaign_slots as f64, "count");
        m.push("par.busy_frac", self.par_busy_frac, "ratio");
        m.push("par.tail_s", self.par_tail_s, "s");
        m.push("par.threads", self.par_threads as f64, "count");
        m.push("scenario.make_us", self.scenario_make_us, "us");
        m.push("markov.chain_stats_us", self.markov_chain_stats_us, "us");
        for (f, name) in crate::workloads::FAMILIES.iter().enumerate() {
            m.push(
                format!("sched.ns_per_slot.{name}"),
                self.sched_ns_per_slot[f],
                "ns",
            );
        }
        m.push("sched.place_ns_per_placement", self.sched_place_ns, "ns");
        m.push("sched.place_u", self.sched_place_u as f64, "count");
        m.push("selector.sharded_u", self.sharded_u as f64, "count");
        m.push("selector.sharded_rebuild_us", self.sharded_rebuild_us, "us");
        m.push("selector.sharded_replay_ns", self.sharded_replay_ns, "ns");
        m.push("selector.loser_u", self.loser_u as f64, "count");
        m.push("selector.loser_rebuild_us", self.loser_rebuild_us, "us");
        m.push("selector.loser_replay_ns", self.loser_replay_ns, "ns");
        m.push(
            "source.dense_ns_per_worker_slot",
            self.dense_ns_per_worker_slot,
            "ns",
        );
        m.push("source.share_of_step", self.source_share_of_step, "ratio");
        m.push(
            "volatility.corr_ns_per_worker_slot",
            self.corr_ns_per_worker_slot,
            "ns",
        );
        m.push(
            "volatility.overlay_ns_per_slot",
            self.overlay_ns_per_slot,
            "ns",
        );
        m.push("fault.compile_us", self.fault_compile_us, "us");
        m.push("fault.injected", self.fault_injected as f64, "count");
        m.push("engine.step_us_p50", self.step_us_p50, "us");
        m.push("engine.step_us_p99", self.step_us_p99, "us");
        m.push("engine.steps", self.steps as f64, "count");
        m.push("engine.construct_ms", self.construct_ms, "ms");
        m.push("engine.tasks_per_slot", self.tasks_per_slot, "count/slot");
        m.push(
            "engine.replicas_started_per_slot",
            self.replicas_started_per_slot,
            "count/slot",
        );
        m.push(
            "engine.replicas_canceled_per_slot",
            self.replicas_canceled_per_slot,
            "count/slot",
        );
        m.push("engine.replica_waste", self.replica_waste, "ratio");
        m.push(
            "engine.channel_slots_per_slot",
            self.channel_slots_per_slot,
            "count/slot",
        );
        m.push(
            "engine.cap_engagements",
            self.cap_engagements as f64,
            "count",
        );
        m.push("engine.final_m.app0", self.final_m[0] as f64, "count");
        m.push("engine.final_m.app1", self.final_m[1] as f64, "count");
        m.push("trace.overhead_frac", self.trace_overhead_frac, "ratio");
        m.push("trace.spans", self.trace_spans as f64, "count");
        m.push("box.nproc", self.nproc as f64, "count");
        m.push("box.threads", self.threads as f64, "count");
        m
    }
}

/// Runs the layer benches every workload's ledger shares: selectors at the 64k
/// and 1k workloads' UP counts, the dense and correlated sources, the fault
/// script. The UP counts come from seeded views of those workloads'
/// platforms.
pub fn shared_benches(ledger: &mut Ledger, seed: u64, rec: &mut Recorder) -> Result<(), String> {
    let ups = |kind: Single| {
        let platform = kind.platform(seed, 0);
        let params = kind.params();
        seeded_view(
            &platform,
            params.t_prog(),
            params.t_data(),
            SeedPath::root(seed).child_str("ledger.place").child(0),
        )
        .1
    };
    ledger.sharded_u = ups(Single::Scale64k);
    ledger.loser_u = ups(Single::Cosched1k);
    (ledger.sharded_rebuild_us, ledger.sharded_replay_ns) = rec
        .scope("ledger.selector.sharded", || {
            sharded_bench(ledger.sharded_u, seed)
        });
    (ledger.loser_rebuild_us, ledger.loser_replay_ns) = rec.scope("ledger.selector.loser", || {
        loser_bench(ledger.loser_u, seed)
    });
    ledger.dense_ns_per_worker_slot = rec.scope("ledger.source.dense", || dense_bench(seed))?;
    ledger.corr_ns_per_worker_slot = rec.scope("ledger.volatility.corr", || corr_bench(seed))?;
    (ledger.fault_compile_us, ledger.overlay_ns_per_slot) =
        rec.scope("ledger.fault", fault_bench)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_benches_measure_positive_costs() {
        let (rebuild, replay) = loser_bench(300, 3);
        assert!(rebuild > 0.0 && replay > 0.0);
        let (rebuild, replay) = sharded_bench(9000, 3);
        assert!(rebuild > 0.0 && replay > 0.0);
    }

    #[test]
    fn fault_bench_compiles_the_workload_script() {
        let (compile_us, overlay_ns) = fault_bench().expect("script compiles");
        assert!(compile_us > 0.0 && overlay_ns > 0.0);
    }

    #[test]
    fn ledger_names_are_unique_and_complete() {
        let m = Ledger::default().metrics();
        assert_eq!(m.iter().count(), 44);
    }
}
