//! The three workloads: their inputs (all derived from `--seed`), their
//! set-up, the measured pass, and the traced pass that mirrors it.
//!
//! * `table1_campaign` — the paper's evaluation: the 120-cell Table-1 grid,
//!   all 17 heuristics, through `vg_exp::campaign::run_campaign`.
//! * `platform_scale_64k` — one EMCT* simulation per instance on a
//!   65536-worker volunteer grid over a fixed slot horizon.
//! * `cosched_chaos_1k` — a rigid and a moldable application co-scheduled
//!   on 1024 workers under correlated outages plus a scripted fault overlay.
//!
//! The amount of work is a function of `--seed` and `--seconds` only, so two
//! runs with the same arguments do identical work and only the times differ.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::par::{par_map_init_consume, ParallelismConfig};
use vg_des::rng::SeedPath;
use vg_exp::campaign::{run_campaign, CampaignConfig, InstanceOutcome};
use vg_exp::scenario::{make_scenario, Scenario, ScenarioParams};
use vg_markov::availability::ChainStats;
use vg_markov::OutageChain;
use vg_platform::volatility::CorrelatedModel;
use vg_platform::{
    AppConfig, AvailabilitySource, FaultScript, PlatformConfig, ScriptedOverlay, SharedTraceMatrix,
};
use vg_sim::{
    platform_chain_stats, AppSpec, MoldableParams, MultiReport, PlacementBudget, SimArena,
    SimOptions, Simulation, WorkerSoA,
};

use crate::check::{outcome_failures, report_violations, AppExpect, Digest};
use crate::report::{median, RssSampler};
use crate::trace::Recorder;

pub const WORKLOADS: [&str; 3] = ["table1_campaign", "platform_scale_64k", "cosched_chaos_1k"];

/// Settings shared by every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub threads: usize,
}

/// Whole instances of `nominal_s` seconds that fill `seconds` (at least
/// one). The nominal costs below were measured on a 2-vCPU Xeon box; they
/// only size the work, which stays a pure function of the arguments.
fn instances_for(seconds: u64, nominal_s: f64) -> usize {
    ((seconds as f64 / nominal_s).round() as usize).max(1)
}

/// Result of one measured (untraced) pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Workload instances finished: (scenario, trial) pairs under all 17
    /// heuristics for the campaign, simulations for the single-run ones.
    pub instances: u64,
    /// Simulations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Simulated slots summed over every simulation.
    pub slots: u64,
    /// Host seconds of the measured pass.
    pub wall_s: f64,
    /// Set-up samples in seconds (their median is `setup_s`).
    pub setup_s: Vec<f64>,
    /// Resident set sampled every 10 ms over the measured pass, MiB.
    pub rss_mib: Vec<f64>,
    /// Digest of every result, and the size it was computed at.
    pub digest: u64,
    pub size: String,
    /// Correctness violations found.
    pub problems: Vec<String>,
}

// ---------------------------------------------------------------------------
// table1_campaign

/// Nominal wall time of one scenario per cell × one trial over the grid
/// at 2 threads. Scenarios, not trials, carry most of the cost variance,
/// so the campaign runs more scenarios of one trial each.
const TABLE1_SCENARIO_S: f64 = 11.0;
/// Set-up samples taken before and after the campaign.
const TABLE1_SETUP_REPS: usize = 21;

/// The campaign: the full grid, all 17 heuristics, replication on,
/// uncapped, `nproc` threads, one trial per scenario, master seed `--seed`.
pub fn table1_config(args: &RunArgs) -> CampaignConfig {
    CampaignConfig {
        heuristics: HeuristicKind::ALL.to_vec(),
        scenarios_per_cell: instances_for(args.seconds, TABLE1_SCENARIO_S),
        trials: 1,
        master_seed: args.seed,
        parallelism: ParallelismConfig::fixed(args.threads),
        sim: SimOptions {
            replication: true,
            placement_budget: PlacementBudget::Uncapped,
            ..SimOptions::default()
        },
        keep_outcomes: true,
    }
}

pub fn scenario_seed(master: u64, cell: usize, scenario: usize) -> SeedPath {
    SeedPath::root(master)
        .child_str("scenario")
        .child(cell as u64)
        .child(scenario as u64)
}

/// The per-instance trace and scheduler seed paths of the campaign runner.
pub fn instance_seeds(
    master: u64,
    cell: usize,
    scenario: usize,
    trial: u64,
) -> (SeedPath, SeedPath) {
    let root = SeedPath::root(master);
    let path = |label: &str| {
        root.child_str(label)
            .child(cell as u64)
            .child(scenario as u64)
            .child(trial)
    };
    (path("trace"), path("sched"))
}

/// Wall seconds of the campaign's own set-up: `run_campaign` over the same
/// cells and configuration with a one-slot cap, so every simulation does
/// all of its set-up (scenario sampling, chain statistics, fault script,
/// source recording, arena and engine construction) and runs one slot.
/// `Err` if the campaign did not run every instance.
pub fn campaign_setup_s(cells: &[ScenarioParams], cfg: &CampaignConfig) -> Result<f64, String> {
    let mut cfg = cfg.clone();
    cfg.sim.max_slots = 1;
    cfg.keep_outcomes = false;
    let expected = cells.len() * cfg.scenarios_per_cell * cfg.trials as usize;
    let t = Instant::now();
    let result = run_campaign(cells, &cfg);
    let wall = t.elapsed().as_secs_f64();
    if result.instances == expected {
        Ok(wall)
    } else {
        Err(format!(
            "set-up campaign ran {} instances, {expected} expected",
            result.instances
        ))
    }
}

/// Wraps the scenario's availability (its correlated model, if the cell
/// has one) in a shared recording, as the campaign runner does; `Err`
/// carries a rejected spec.
fn record_trace(scenario: &Scenario, trace_path: &SeedPath) -> Result<SharedTraceMatrix, String> {
    let p = scenario.platform.p();
    let model = scenario.params.volatility.correlated_model(p);
    let trace = match model.map_err(|e| e.to_string())? {
        Some(model) => SharedTraceMatrix::record_rows(Box::new(
            model
                .build(&scenario.platform, trace_path)
                .map_err(|e| e.to_string())?,
        )),
        None => {
            let live: Vec<Box<dyn AvailabilitySource>> = scenario
                .platform
                .processors
                .iter()
                .enumerate()
                .map(|(q, pc)| pc.avail.build_source(trace_path.child(q as u64).rng()))
                .collect();
            SharedTraceMatrix::record(live)
        }
    };
    Ok(trace)
}

/// Checks campaign outcomes and folds them into `digest`; returns (failed
/// simulations, slots, problems).
pub fn check_outcomes(
    outcomes: &[InstanceOutcome],
    expected_instances: usize,
    digest: &mut Digest,
) -> (u64, u64, Vec<String>) {
    let mut failed = 0;
    let mut slots = 0;
    let mut problems = Vec::new();
    for o in outcomes {
        digest.outcome(o);
        failed += outcome_failures(o);
        slots += o.makespans.iter().sum::<u64>();
    }
    if failed > 0 {
        problems.push(format!("{failed} campaign simulations hit the slot cap"));
    }
    if outcomes.len() != expected_instances {
        problems.push(format!(
            "{} instances returned, {expected_instances} expected",
            outcomes.len()
        ));
    }
    (failed, slots, problems)
}

/// The measured campaign through `run_campaign`, with set-up samples
/// before and after it (so their median spans the run, not one instant of
/// the host). Returns the pass and the campaign's outcomes.
pub fn table1_pass(args: &RunArgs) -> (Pass, Vec<InstanceOutcome>) {
    let cells = ScenarioParams::table1_grid();
    let cfg = table1_config(args);
    let expected = cells.len() * cfg.scenarios_per_cell * cfg.trials as usize;
    let mut pass = Pass {
        size: format!("s{}", cfg.scenarios_per_cell),
        attempted: (expected * cfg.heuristics.len()) as u64,
        ..Pass::default()
    };
    let sample_setup = |pass: &mut Pass, reps: usize| {
        for _ in 0..reps {
            match campaign_setup_s(&cells, &cfg) {
                Ok(s) => pass.setup_s.push(s),
                Err(e) => pass.problems.push(e),
            }
        }
    };
    sample_setup(&mut pass, TABLE1_SETUP_REPS / 2 + 1);
    let rss = RssSampler::start();
    let t = Instant::now();
    let result = run_campaign(&cells, &cfg);
    pass.wall_s = t.elapsed().as_secs_f64();
    pass.rss_mib = rss.finish();
    sample_setup(&mut pass, TABLE1_SETUP_REPS / 2);
    let outcomes = result.outcomes.unwrap_or_default();
    let mut digest = Digest::default();
    let (failed, slots, problems) = check_outcomes(&outcomes, expected, &mut digest);
    pass.failed = failed;
    pass.slots = slots;
    pass.problems.extend(problems);
    pass.instances = outcomes.len() as u64;
    pass.digest = digest.finish();
    (pass, outcomes)
}

/// Heuristic families of the per-slot scheduling ledger.
pub const FAMILIES: [&str; 5] = ["mct", "emct", "lw", "ud", "random"];

fn family(kind: HeuristicKind) -> usize {
    use HeuristicKind as H;
    match kind {
        H::Mct | H::MctStar => 0,
        H::Emct | H::EmctStar => 1,
        H::Lw | H::LwStar => 2,
        H::Ud | H::UdStar => 3,
        _ => 4,
    }
}

/// Host time and simulated slots per heuristic family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FamilyCost {
    pub ns: [u64; 5],
    pub slots: [u64; 5],
}

impl FamilyCost {
    fn add(&mut self, other: &FamilyCost) {
        for f in 0..FAMILIES.len() {
            self.ns[f] += other.ns[f];
            self.slots[f] += other.slots[f];
        }
    }
}

/// Per-layer numbers of a traced campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    pub outcomes: Vec<InstanceOutcome>,
    pub instance_ms: Vec<f64>,
    pub families: FamilyCost,
    pub threads: usize,
    /// Σ unit busy time, wall time of the fan-out, and the time between
    /// the first thread going idle for good and the end of the fan-out.
    pub busy_ns: u64,
    pub wall_ns: u64,
    pub tail_ns: u64,
}

impl CampaignTrace {
    /// Σ unit busy ÷ (threads × wall).
    pub fn busy_frac(&self) -> f64 {
        self.busy_ns as f64 / (self.threads.max(1) as f64 * self.wall_ns.max(1) as f64)
    }
}

struct UnitTrace {
    outcomes: Vec<InstanceOutcome>,
    instance_ms: Vec<f64>,
    families: FamilyCost,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
    rec: Recorder,
}

/// The campaign rebuilt from public calls (`make_scenario`,
/// `platform_chain_stats`, `SharedTraceMatrix::record`,
/// `SimArena::run_shared_trace_overlay`) with a span around each, fanned
/// out like `run_campaign`: one unit per scenario, one warmed arena per
/// thread, results in input order. Its outcomes must equal
/// `run_campaign`'s bit for bit.
pub fn traced_campaign(
    cells: &[ScenarioParams],
    cfg: &CampaignConfig,
    rec: &mut Recorder,
) -> CampaignTrace {
    let units: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|c| (0..cfg.scenarios_per_cell).map(move |s| (c, s)))
        .collect();
    let chunk = (units.len() / (cfg.parallelism.threads() * 8)).clamp(1, 4);
    let threads = cfg
        .parallelism
        .threads()
        .min(units.len().div_ceil(chunk).max(1));
    let epoch = rec.epoch();
    let next_tid = AtomicU32::new(1);
    let mut out = CampaignTrace {
        threads,
        ..CampaignTrace::default()
    };
    let mut last_end = vec![0u64; threads + 1];
    let mut busy_ns = 0u64;
    let root = rec.begin("campaign");
    let region_start = rec.spans()[root].start_ns;
    last_end.iter_mut().for_each(|e| *e = region_start);
    par_map_init_consume(
        &units,
        cfg.parallelism,
        chunk,
        || (SimArena::new(), next_tid.fetch_add(1, Ordering::Relaxed)),
        |(arena, tid), &(cell, s)| traced_unit(arena, *tid, epoch, cells, cfg, cell, s),
        |_, unit| {
            busy_ns += unit.end_ns - unit.start_ns;
            if let Some(e) = last_end.get_mut(unit.tid as usize) {
                *e = (*e).max(unit.end_ns);
            }
            out.families.add(&unit.families);
            out.instance_ms.extend(unit.instance_ms);
            out.outcomes.extend(unit.outcomes);
            rec.absorb(unit.rec);
        },
    );
    let wall_ns = rec.end(root);
    let region_end = region_start + wall_ns;
    let first_idle = last_end[1..].iter().copied().min().unwrap_or(region_end);
    out.busy_ns = busy_ns;
    out.wall_ns = wall_ns;
    out.tail_ns = region_end.saturating_sub(first_idle);
    out
}

fn traced_unit(
    arena: &mut SimArena,
    tid: u32,
    epoch: Instant,
    cells: &[ScenarioParams],
    cfg: &CampaignConfig,
    cell: usize,
    s: usize,
) -> UnitTrace {
    let mut rec = Recorder::new(epoch, tid);
    let unit = rec.begin("campaign.unit");
    let scenario = rec.scope("scenario.make", || {
        make_scenario(cells[cell], scenario_seed(cfg.master_seed, cell, s))
    });
    let chains = rec.scope("markov.chain_stats", || {
        platform_chain_stats(&scenario.platform)
    });
    let mut outcomes = Vec::with_capacity(cfg.trials as usize);
    let mut instance_ms = Vec::with_capacity(cfg.trials as usize);
    let mut families = FamilyCost::default();
    for trial in 0..cfg.trials {
        let inst = rec.begin("campaign.instance");
        let (o, cost) = traced_instance(&mut rec, arena, &scenario, &chains, cfg, cell, s, trial);
        instance_ms.push(rec.end(inst) as f64 / 1e6);
        outcomes.push(o);
        families.add(&cost);
    }
    rec.end(unit);
    let (start_ns, end_ns) = (rec.spans()[unit].start_ns, rec.spans()[unit].end_ns);
    UnitTrace {
        outcomes,
        instance_ms,
        families,
        tid,
        start_ns,
        end_ns,
        rec,
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_instance(
    rec: &mut Recorder,
    arena: &mut SimArena,
    scenario: &Scenario,
    chains: &[ChainStats],
    cfg: &CampaignConfig,
    cell: usize,
    s: usize,
    trial: u64,
) -> (InstanceOutcome, FamilyCost) {
    let (trace_path, sched_path) = instance_seeds(cfg.master_seed, cell, s, trial);
    let n = cfg.heuristics.len();
    let mut cost = FamilyCost::default();
    let capped = || {
        let o = InstanceOutcome {
            cell,
            makespans: vec![cfg.sim.max_slots; n],
            completed: vec![false; n],
        };
        (o, FamilyCost::default())
    };
    let p = scenario.platform.p();
    let script = match rec.scope("fault.compile", || {
        scenario.params.volatility.fault_script(p)
    }) {
        Ok(script) => script,
        Err(_) => return capped(),
    };
    let trace = match rec.scope("source.record", || record_trace(scenario, &trace_path)) {
        Ok(trace) => trace,
        Err(_) => return capped(),
    };
    let mut makespans = Vec::with_capacity(n);
    let mut completed = Vec::with_capacity(n);
    for (h, &kind) in cfg.heuristics.iter().enumerate() {
        let span = rec.begin(kind.name());
        let result = arena.run_shared_trace_overlay(
            &scenario.platform,
            &scenario.app,
            kind.build(sched_path.child(h as u64).rng()),
            chains,
            &trace,
            script.as_ref(),
            cfg.sim,
        );
        let ns = rec.end(span);
        match result {
            Ok(o) => {
                makespans.push(o.makespan_or_cap());
                completed.push(o.finished());
                cost.ns[family(kind)] += ns;
                cost.slots[family(kind)] += o.slots_run;
            }
            Err(_) => {
                makespans.push(cfg.sim.max_slots);
                completed.push(false);
            }
        }
    }
    let o = InstanceOutcome {
        cell,
        makespans,
        completed,
    };
    (o, cost)
}

// ---------------------------------------------------------------------------
// Single-run workloads

/// Which single-run workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Single {
    Scale64k,
    Cosched1k,
}

pub const P_64K: usize = 65_536;
const M_64K: usize = 2048;
/// Slots per 64k simulation and their nominal wall time.
pub const HORIZON_64K: u64 = 600;
const NOMINAL_64K_S: f64 = 2.8;

pub const P_1K: usize = 1024;
const ITERATIONS_1K: u64 = 200;
const NOMINAL_1K_S: f64 = 2.8;
pub const SCRIPT_1K: &str = "kill 30% at 200 for 150\ndegrade 20% at 600 for 300\n";
/// Correlated outages: 16 racks, `Normal → Outage` 0.005, recovery 0.05.
pub const GROUPS_1K: usize = 16;
pub const OUTAGE_1K: (f64, f64) = (0.005, 0.05);
/// Set-ups timed per instance (one of them is the instance's own), so
/// `setup_s` is a median of this many samples per instance.
const SETUP_SAMPLES_PER_INSTANCE: usize = 3;

impl Single {
    pub fn name(self) -> &'static str {
        match self {
            Self::Scale64k => "platform_scale_64k",
            Self::Cosched1k => "cosched_chaos_1k",
        }
    }

    pub fn instances(self, seconds: u64) -> usize {
        match self {
            Self::Scale64k => instances_for(seconds, NOMINAL_64K_S),
            Self::Cosched1k => instances_for(seconds, NOMINAL_1K_S),
        }
    }

    pub fn p(self) -> usize {
        match self {
            Self::Scale64k => P_64K,
            Self::Cosched1k => P_1K,
        }
    }

    /// The platform's generating parameters (paper-style chains and
    /// speeds; `n_tasks` is the main application's size).
    pub fn params(self) -> ScenarioParams {
        match self {
            Self::Scale64k => ScenarioParams {
                p: P_64K,
                n_tasks: M_64K,
                ncom: P_64K / 10,
                iterations: HORIZON_64K,
                ..ScenarioParams::paper(M_64K, P_64K / 10, 2)
            },
            Self::Cosched1k => ScenarioParams {
                p: P_1K,
                n_tasks: 3 * P_1K,
                ncom: P_1K / 10,
                iterations: ITERATIONS_1K,
                ..ScenarioParams::paper(3 * P_1K, P_1K / 10, 1)
            },
        }
    }

    pub fn heuristic(self) -> HeuristicKind {
        match self {
            Self::Scale64k => HeuristicKind::EmctStar,
            Self::Cosched1k => HeuristicKind::Emct,
        }
    }

    pub fn seeds(self, seed: u64, instance: usize) -> SeedPath {
        SeedPath::root(seed)
            .child_str(self.name())
            .child(instance as u64)
    }

    pub fn platform(self, seed: u64, instance: usize) -> PlatformConfig {
        make_scenario(
            self.params(),
            self.seeds(seed, instance).child_str("platform"),
        )
        .platform
    }

    fn options(self) -> SimOptions {
        match self {
            // Never finishes: the horizon is the slot cap.
            Self::Scale64k => SimOptions {
                max_slots: HORIZON_64K,
                replication: true,
                placement_budget: PlacementBudget::Uncapped,
                ..SimOptions::default()
            },
            Self::Cosched1k => SimOptions {
                replication: false,
                placement_budget: PlacementBudget::Uncapped,
                ..SimOptions::default()
            },
        }
    }

    pub fn expect(self) -> Vec<AppExpect> {
        let params = self.params();
        match self {
            Self::Scale64k => vec![AppExpect::Rigid {
                m: params.n_tasks,
                iterations: params.iterations,
            }],
            Self::Cosched1k => vec![
                AppExpect::Rigid {
                    m: params.n_tasks,
                    iterations: params.iterations,
                },
                AppExpect::Moldable {
                    min: P_1K / 4,
                    max: 2 * P_1K,
                    iterations: params.iterations,
                },
            ],
        }
    }

    fn must_finish(self) -> bool {
        self == Self::Cosched1k
    }

    /// Builds instance `instance` ready to run its first slot: platform
    /// sampling, the chaos layer (fault-script compile, correlated source)
    /// and the engine with its source bank.
    pub fn build(
        self,
        seed: u64,
        instance: usize,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Built, String> {
        let seeds = self.seeds(seed, instance);
        let params = self.params();
        let platform = scoped(rec.as_deref_mut(), "scenario.make", || {
            self.platform(seed, instance)
        });
        let scheduler = self.heuristic().build(seeds.child_str("sched").rng());
        let trace = seeds.child_str("trace");
        let chaos = match self {
            Self::Scale64k => None,
            Self::Cosched1k => {
                let script = scoped(rec.as_deref_mut(), "fault.compile", || {
                    FaultScript::parse(SCRIPT_1K).and_then(|s| s.compile(P_1K))
                })
                .map_err(|e| e.to_string())?;
                let rows = scoped(rec.as_deref_mut(), "volatility.build", || {
                    let outage =
                        OutageChain::new(OUTAGE_1K.0, OUTAGE_1K.1).map_err(|e| e.to_string())?;
                    CorrelatedModel::uniform_groups(P_1K, GROUPS_1K, outage)
                        .build(&platform, &trace)
                        .map_err(|e| e.to_string())
                })?;
                Some((script, rows))
            }
        };
        let t = Instant::now();
        let sim = scoped(rec, "engine.construct", || match chaos {
            None => Simulation::<WorkerSoA>::new_seeded(
                &platform,
                &params.app(),
                scheduler,
                trace,
                self.options(),
            ),
            Some((script, rows)) => {
                let mut sim = Simulation::<WorkerSoA>::new_multi_rows_in(
                    &platform,
                    &cosched_specs(&params),
                    SharePolicy::EqualSplit,
                    scheduler,
                    Box::new(rows),
                    self.options(),
                )?;
                sim.set_overlay(ScriptedOverlay::new(script))?;
                Ok(sim)
            }
        })
        .map_err(|e| e.to_string())?;
        Ok(Built {
            sim,
            construct_s: t.elapsed().as_secs_f64(),
        })
    }

    /// The measured pass: every instance built and run to its end; the
    /// wall time covers set-up and slots alike. Before each instance its
    /// set-up is also timed on its own, outside the wall time, so
    /// `setup_s` is a median of samples spread over the whole run.
    pub fn pass(self, args: &RunArgs) -> Pass {
        let n = self.instances(args.seconds);
        let mut pass = Pass {
            attempted: n as u64,
            size: format!("i{n}"),
            ..Pass::default()
        };
        let mut digest = Digest::default();
        let rss = RssSampler::start();
        for i in 0..n {
            for _ in 1..SETUP_SAMPLES_PER_INSTANCE {
                let t = Instant::now();
                let built = self.build(args.seed, i, None);
                pass.setup_s.push(t.elapsed().as_secs_f64());
                drop(built);
            }
            let t = Instant::now();
            match self.build(args.seed, i, None) {
                Ok(mut built) => {
                    pass.setup_s.push(t.elapsed().as_secs_f64());
                    while !built.sim.is_done() {
                        built.sim.step();
                    }
                    let report = built.sim.into_multi_report();
                    self.absorb(&mut pass, &mut digest, &report);
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.problems.push(format!("instance {i}: {e}"));
                }
            }
            pass.wall_s += t.elapsed().as_secs_f64();
        }
        pass.rss_mib = rss.finish();
        pass.digest = digest.finish();
        pass
    }

    /// Folds one finished report into the pass: counts, checks, digest.
    pub fn absorb(self, pass: &mut Pass, digest: &mut Digest, report: &MultiReport) {
        pass.instances += 1;
        pass.slots += report.combined.slots_run;
        digest.report(report);
        let bad = report_violations(report, self.p(), &self.expect(), self.must_finish());
        if !bad.is_empty() {
            pass.failed += 1;
            pass.problems.extend(bad);
        }
    }
}

/// The co-scheduled roster: a rigid application of `3p` tasks and a
/// moldable one re-picking one task per UP worker, clamped to `[p/4, 2p]`.
pub fn cosched_specs(params: &ScenarioParams) -> [AppSpec; 2] {
    let rigid = params.app();
    let moldable = AppConfig {
        tasks_per_iteration: P_1K,
        ..rigid
    };
    [
        AppSpec::rigid(rigid),
        AppSpec::moldable(
            moldable,
            MoldableParams {
                tasks_per_up_num: 1,
                tasks_per_up_den: 1,
                min_tasks: P_1K / 4,
                max_tasks: 2 * P_1K,
            },
        ),
    ]
}

/// An engine ready for its first slot.
pub struct Built {
    pub sim: Simulation,
    /// Host seconds the engine constructor took.
    pub construct_s: f64,
}

/// Runs `f` inside a span when a recorder is given.
pub fn scoped<R>(rec: Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.scope(name, f),
        None => f(),
    }
}

/// Step-level record of traced single runs.
#[derive(Debug, Clone, Default)]
pub struct StepTrace {
    pub step_us: Vec<f64>,
    pub construct_ms: Vec<f64>,
    pub cap_engagements: u64,
    pub reports: Vec<MultiReport>,
}

/// Per-step spans are kept for the first this-many steps of each
/// simulation (every step is timed; the cap bounds the trace file).
const STEP_SPANS_PER_SIM: usize = 2000;

/// Drives a built engine to its end, timing every step.
pub fn traced_drive(built: Built, rec: &mut Recorder, steps: &mut StepTrace) -> MultiReport {
    let mut sim = built.sim;
    steps.construct_ms.push(built.construct_s * 1e3);
    let run = rec.begin("engine.run");
    let mut k = 0usize;
    while !sim.is_done() {
        if k < STEP_SPANS_PER_SIM {
            let s = rec.begin("engine.step");
            sim.step();
            steps.step_us.push(rec.end(s) as f64 / 1e3);
        } else {
            let t = Instant::now();
            sim.step();
            steps.step_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        k += 1;
    }
    rec.end(run);
    steps.cap_engagements += sim.cap_engagements();
    sim.into_multi_report()
}

/// The traced twin of [`Single::pass`]: same instances, same seeds, with
/// spans around set-up layers and every step timed.
pub fn traced_single(kind: Single, args: &RunArgs, rec: &mut Recorder) -> (Pass, StepTrace) {
    let n = kind.instances(args.seconds);
    let mut pass = Pass {
        attempted: n as u64,
        size: format!("i{n}"),
        ..Pass::default()
    };
    let mut steps = StepTrace::default();
    let mut digest = Digest::default();
    let root = rec.begin(kind.name());
    for i in 0..n {
        let inst = rec.begin("instance");
        let t = Instant::now();
        match kind.build(args.seed, i, Some(rec)) {
            Ok(built) => {
                pass.setup_s.push(t.elapsed().as_secs_f64());
                let report = traced_drive(built, rec, &mut steps);
                kind.absorb(&mut pass, &mut digest, &report);
                steps.reports.push(report);
            }
            Err(e) => {
                pass.failed += 1;
                pass.problems.push(format!("instance {i}: {e}"));
            }
        }
        rec.end(inst);
    }
    pass.wall_s = rec.end(root) as f64 / 1e9;
    pass.digest = digest.finish();
    (pass, steps)
}

/// Median of a set-up sample.
pub fn setup_median(pass: &Pass) -> f64 {
    median(&mut pass.setup_s.clone())
}

/// The Table-1 cells whose `wmin` is 1, one scenario each: the campaign
/// slice the ledger runs on workloads that do not use the campaign layer.
pub fn campaign_slice(args: &RunArgs) -> (Vec<ScenarioParams>, CampaignConfig) {
    let cells: Vec<ScenarioParams> = ScenarioParams::table1_grid()
        .into_iter()
        .filter(|c| c.wmin == 1)
        .collect();
    let cfg = CampaignConfig {
        scenarios_per_cell: 1,
        ..table1_config(args)
    };
    (cells, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_sim::SimOptions;

    fn tiny() -> (Vec<ScenarioParams>, CampaignConfig) {
        let cells = vec![
            ScenarioParams {
                p: 6,
                ..ScenarioParams::paper(5, 5, 1)
            },
            ScenarioParams {
                p: 6,
                ..ScenarioParams::paper(10, 5, 2)
            },
        ];
        let cfg = CampaignConfig {
            heuristics: vec![
                HeuristicKind::Mct,
                HeuristicKind::Emct,
                HeuristicKind::Random,
                HeuristicKind::UdStar,
            ],
            scenarios_per_cell: 2,
            trials: 2,
            master_seed: 9,
            parallelism: ParallelismConfig::fixed(2),
            sim: SimOptions {
                max_slots: 200_000,
                ..SimOptions::default()
            },
            keep_outcomes: true,
        };
        (cells, cfg)
    }

    #[test]
    fn traced_campaign_reproduces_run_campaign() {
        let (cells, cfg) = tiny();
        let reference = run_campaign(&cells, &cfg).outcomes.expect("kept");
        let mut rec = Recorder::new(Instant::now(), 0);
        let ct = traced_campaign(&cells, &cfg, &mut rec);
        assert_eq!(ct.outcomes, reference);
        assert_eq!(ct.instance_ms.len(), 8);
        assert!(ct.busy_frac() > 0.0 && ct.busy_frac() <= 1.0 + 1e-9);
        assert_eq!(ct.families.slots.iter().sum::<u64>(), {
            let (_, slots, _) = check_outcomes(&reference, 8, &mut Digest::default());
            slots
        });
        let spans = rec.spans();
        assert_eq!(spans[0].name, "campaign");
        assert!(spans[1..].iter().all(|s| s.parent.is_some()));
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("campaign.unit"), 4);
        assert_eq!(count("campaign.instance"), 8);
        assert_eq!(count("UD*"), 8);
    }

    #[test]
    fn campaign_setup_runs_every_instance() {
        let (cells, cfg) = tiny();
        assert!(campaign_setup_s(&cells, &cfg).expect("every instance ran") > 0.0);
    }

    #[test]
    fn cosched_instance_keeps_its_invariants() {
        let kind = Single::Cosched1k;
        let mut built = kind.build(3, 0, None).expect("valid configuration");
        for _ in 0..260 {
            built.sim.step();
        }
        let r = built.sim.into_multi_report();
        assert_eq!(
            report_violations(&r, kind.p(), &kind.expect(), false),
            Vec::<String>::new()
        );
        assert!(
            r.combined.counters.injected_faults > 0,
            "the kill fires at slot 200"
        );
    }

    #[test]
    fn work_is_a_function_of_the_arguments() {
        assert_eq!(instances_for(1, 22.0), 1);
        assert_eq!(instances_for(30, 2.8), 11);
        let args = RunArgs {
            seed: 4,
            seconds: 30,
            threads: 2,
        };
        assert_eq!(table1_config(&args).scenarios_per_cell, 3);
        assert_eq!(
            Single::Cosched1k.platform(4, 1),
            Single::Cosched1k.platform(4, 1)
        );
        assert_ne!(
            Single::Cosched1k.platform(4, 1),
            Single::Cosched1k.platform(5, 1)
        );
    }
}
