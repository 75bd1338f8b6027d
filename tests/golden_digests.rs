//! Golden-digest corpus: the engine's observable output, pinned to history.
//!
//! Every row hashes (with the fixed-seed [`DetHasher`]) the `Debug` form of
//! one or more reports — `SimReport` for the single-application API,
//! `MultiReport` for rosters — plus each run's `cap_engagements()`. The
//! table was recorded before the engine's two schedule phases merged into
//! one; a refactor that claims byte-identical behavior must leave every row
//! unchanged.
//!
//! The grid covers all 17 heuristics at p ∈ {32, 256, 1024} under both
//! placement budgets with replication on and off (the p = 32 cells engage
//! the bind-capacity cap), correlated group outages with a diurnal window,
//! a scripted fault overlay, 1-, 2- and 3-application rosters under every
//! share policy, and p = 16384 cells that reach the sharded selector.
//!
//! To re-record after an *intended* behavior change, run
//! `GOLDEN_BLESS=1 cargo test -q --test golden_digests -- --nocapture`
//! and paste the printed table over [`GOLDEN`].

use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::det::DetHasher;
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_markov::OutageChain;
use vg_platform::fault::FaultScript;
use vg_platform::source::StartPolicy;
use vg_platform::volatility::{CorrelatedModel, DiurnalSpec, ScriptedOverlay};
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{AppSpec, MoldableParams, PlacementBudget, SimOptions, Simulation, WorkerSoA};

/// `(row, digest)` pairs recorded from the engine; see the module docs.
const GOLDEN: &[(&str, u64)] = &[
    ("p32/EMCT", 0x1d360c9387ade607),
    ("p32/EMCT*", 0x73eb5ba21e7ebca5),
    ("p32/MCT", 0x46019acd87c926f2),
    ("p32/MCT*", 0x2cc96fa6a53f803d),
    ("p32/UD*", 0x095463e5e2d5be4d),
    ("p32/UD", 0xaa0afc964e601f63),
    ("p32/LW*", 0xdbfe1b2c19d0f591),
    ("p32/LW", 0x311bcf08f5e2cced),
    ("p32/Random1w", 0x9e79428d2a85976e),
    ("p32/Random2w", 0x4520b134e354b590),
    ("p32/Random4w", 0x616bf5bf1033bb44),
    ("p32/Random3w", 0xe80d6741ce6f4e8a),
    ("p32/Random3", 0x8846d4ce3ba3dd32),
    ("p32/Random4", 0xe712f5c84114b64b),
    ("p32/Random1", 0x836659c58169a6bf),
    ("p32/Random2", 0x3a2e04e599340d18),
    ("p32/Random", 0x6b84e0befa5bc202),
    ("p256/EMCT", 0xcfd7ec2d7fd8d57b),
    ("p256/EMCT*", 0xdd9e59afcac5221f),
    ("p256/MCT", 0xfb92eb250a23a39e),
    ("p256/MCT*", 0xd0864781eb801a0c),
    ("p256/UD*", 0x07a2f805bb02f599),
    ("p256/UD", 0x8295ed19b92a7d00),
    ("p256/LW*", 0xab17ebd18de6b4ae),
    ("p256/LW", 0xded5ec8e8c9efeaa),
    ("p256/Random1w", 0xe81d624ba3a1679b),
    ("p256/Random2w", 0x0a99019e47455907),
    ("p256/Random4w", 0x99a8cff6d09c3a19),
    ("p256/Random3w", 0xfb9925ccadfb7193),
    ("p256/Random3", 0x5e37f5a4d6a34fb4),
    ("p256/Random4", 0x016d8ed6995ded98),
    ("p256/Random1", 0x1880c4232ed51dda),
    ("p256/Random2", 0xbdcadf60709b1590),
    ("p256/Random", 0xb116087714c1c6b4),
    ("p1024/EMCT", 0xcace8551def7e491),
    ("p1024/EMCT*", 0xde13c41928f64b09),
    ("p1024/MCT", 0x3930b3c9cf986bbd),
    ("p1024/MCT*", 0xe8b52427aaec616c),
    ("p1024/UD*", 0x9f5c4e097f2db4bf),
    ("p1024/UD", 0x7a8319721de9529b),
    ("p1024/LW*", 0xb84703e64a18884e),
    ("p1024/LW", 0xc3b2e26fbef6028d),
    ("p1024/Random1w", 0x8ca8d71e3971b2d4),
    ("p1024/Random2w", 0xf4a57510ff8d8c16),
    ("p1024/Random4w", 0xea653732029df979),
    ("p1024/Random3w", 0xacbd9f2ded11171d),
    ("p1024/Random3", 0x9acd27296d813a3c),
    ("p1024/Random4", 0x5d7d03229963f0ff),
    ("p1024/Random1", 0x1ffd0acad06f3ace),
    ("p1024/Random2", 0x71cfc00b0060e650),
    ("p1024/Random", 0x15574e10a50b0d02),
    ("correlated/rep=false", 0xa830b5d945762eaa),
    ("scripted/rep=false", 0xcfa9844c98e87e46),
    ("correlated/rep=true", 0x17c6d4477e0ac766),
    ("scripted/rep=true", 0x705eb3b822d21b06),
    ("1app/StrictPriority/rep=false", 0xb60085214f9c2030),
    ("1app/StrictPriority/rep=true", 0x550ac2a99b59ffd2),
    ("1app/EqualSplit/rep=false", 0xb60085214f9c2030),
    ("1app/EqualSplit/rep=true", 0x550ac2a99b59ffd2),
    ("1app/Weighted/rep=false", 0xb60085214f9c2030),
    ("1app/Weighted/rep=true", 0x550ac2a99b59ffd2),
    ("2app/StrictPriority/rep=false", 0x0d968f5642f53997),
    ("2app/StrictPriority/rep=true", 0xddf122dfe185bcff),
    ("2app/EqualSplit/rep=false", 0x91c02f51145e7dba),
    ("2app/EqualSplit/rep=true", 0x7f542a4e79b2e3fb),
    ("2app/Weighted/rep=false", 0x6afa33e78acaddf6),
    ("2app/Weighted/rep=true", 0x4ee9dbcd933bb24c),
    ("3app/StrictPriority/rep=false", 0x185568ed7be90557),
    ("3app/StrictPriority/rep=true", 0x2ad65a8714bbcdaf),
    ("3app/EqualSplit/rep=false", 0xec7781e8a1c7477d),
    ("3app/EqualSplit/rep=true", 0x8c429167a8aacadd),
    ("3app/Weighted/rep=false", 0x6f70693ae5d4f048),
    ("3app/Weighted/rep=true", 0x1f4c2fa64ddac9ab),
    ("p16384/EMCT*/Uncapped/rep=false", 0x5e8e603eeb32b468),
    ("p16384/EMCT*/Uncapped/rep=true", 0xe8fa3f530fe80aff),
    ("p16384/EMCT*/BindCapacity/rep=false", 0x5e8e603eeb32b468),
    ("p16384/EMCT*/BindCapacity/rep=true", 0xe8fa3f530fe80aff),
];

fn platform(p: usize, ncom: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 12);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

fn app(m: usize, iterations: u64, t_prog: u64, t_data: u64) -> AppConfig {
    AppConfig {
        tasks_per_iteration: m,
        iterations,
        t_prog,
        t_data,
    }
}

fn options(max_slots: u64, replication: bool, budget: PlacementBudget) -> SimOptions {
    SimOptions {
        max_slots,
        replication,
        max_extra_replicas: 2,
        record_timeline: false,
        placement_budget: budget,
    }
}

/// A seeded engine; the scheduler's RNG stream is `SeedPath::root(sched)`.
fn seeded(
    pf: &PlatformConfig,
    specs: &[AppSpec],
    share: SharePolicy,
    kind: HeuristicKind,
    sched: u64,
    trace: u64,
    opts: SimOptions,
) -> Simulation<WorkerSoA> {
    let sched = kind.build(SeedPath::root(sched).rng());
    Simulation::new_multi_seeded(pf, specs, share, sched, SeedPath::root(trace), opts).unwrap()
}

/// Slots, over the whole corpus, in which the bind-capacity cap engaged.
static ENGAGED: AtomicU64 = AtomicU64::new(0);

/// Steps `sim` to completion and folds its report — the roster report when
/// `multi` — and its cap engagements into `h`.
fn fold(h: &mut DetHasher, mut sim: Simulation<WorkerSoA>, multi: bool) {
    while !sim.is_done() {
        sim.step();
    }
    let engagements = sim.cap_engagements();
    let text = if multi {
        format!("{:?}", sim.into_multi_report())
    } else {
        format!("{:?}", sim.into_report())
    };
    h.write(text.as_bytes());
    h.write_u64(engagements);
    ENGAGED.fetch_add(engagements, Ordering::Relaxed);
}

const BUDGETS: [PlacementBudget; 2] = [PlacementBudget::Uncapped, PlacementBudget::BindCapacity];

/// 17 heuristics × p ∈ {32, 256, 1024}: one row per (p, heuristic), each
/// folding both budgets with replication off and on. m = 3p at p = 32
/// oversubscribes the platform, so the bind-capacity cap engages there.
fn heuristic_grid(rows: &mut Vec<(String, u64)>) {
    for (p, m, max_slots) in [(32usize, 96usize, 400u64), (256, 96, 150), (1024, 64, 60)] {
        let pf = platform(p, 4, p as u64);
        let specs = [AppSpec::rigid(app(m, 2, 6, 2))];
        for kind in HeuristicKind::ALL {
            let mut h = DetHasher::default();
            for budget in BUDGETS {
                for replication in [false, true] {
                    let opts = options(max_slots, replication, budget);
                    let sim = seeded(
                        &pf,
                        &specs,
                        SharePolicy::default(),
                        kind,
                        7,
                        p as u64 + 1,
                        opts,
                    );
                    fold(&mut h, sim, false);
                }
            }
            rows.push((format!("p{p}/{kind}"), h.finish()));
        }
    }
}

/// Correlated outages (with a diurnal window) through the row-source seam
/// and a scripted fault overlay on the seeded bank, every heuristic.
fn volatility_grid(rows: &mut Vec<(String, u64)>) {
    let p = 64;
    let pf = platform(p, 3, 64);
    let mut model = CorrelatedModel::uniform_groups(p, 4, OutageChain::new(0.02, 0.2).unwrap());
    model.diurnal = Some(DiurnalSpec {
        period: 40,
        off_len: 8,
        group_stagger: 5,
    });
    let script =
        "group rack = 0..16\nkill group rack at 10 for 15\ndegrade 25% at 30 for 10\nkill 8 at 55";
    let script = FaultScript::parse(script).unwrap().compile(p).unwrap();
    let specs = [AppSpec::rigid(app(48, 2, 6, 2))];
    for replication in [false, true] {
        let opts = options(400, replication, PlacementBudget::Uncapped);
        let (mut corr, mut scripted) = (DetHasher::default(), DetHasher::default());
        for kind in HeuristicKind::ALL {
            let rows_src = Box::new(model.build(&pf, &SeedPath::root(3)).unwrap());
            let sched = kind.build(SeedPath::root(8).rng());
            let share = SharePolicy::default();
            let sim = Simulation::new_multi_rows_in(&pf, &specs, share, sched, rows_src, opts);
            fold(&mut corr, sim.unwrap(), true);

            let mut sim = seeded(&pf, &specs, share, kind, 8, 3, opts);
            sim.set_overlay(ScriptedOverlay::new(script.clone()))
                .unwrap();
            fold(&mut scripted, sim, false);
        }
        rows.push((format!("correlated/rep={replication}"), corr.finish()));
        rows.push((format!("scripted/rep={replication}"), scripted.finish()));
    }
}

/// 1-, 2- and 3-application rosters under every share policy, with and
/// without replicas, under both budgets (the lone app's cap engages).
fn roster_grid(rows: &mut Vec<(String, u64)>) {
    let pf = platform(24, 3, 24);
    let moldable = MoldableParams {
        tasks_per_up_num: 3,
        tasks_per_up_den: 2,
        min_tasks: 4,
        max_tasks: 60,
    };
    let rosters = [
        ("1app", vec![AppSpec::rigid(app(40, 2, 6, 2))]),
        (
            "2app",
            vec![
                AppSpec::weighted(app(30, 2, 6, 2), 3),
                AppSpec::moldable(app(12, 3, 6, 2), moldable),
            ],
        ),
        (
            "3app",
            vec![
                AppSpec::rigid(app(20, 2, 6, 2)),
                AppSpec::weighted(app(16, 2, 6, 2), 2),
                AppSpec::moldable(app(10, 2, 6, 2), moldable),
            ],
        ),
    ];
    let shares = [
        SharePolicy::StrictPriority,
        SharePolicy::EqualSplit,
        SharePolicy::Weighted,
    ];
    let kinds = [
        HeuristicKind::Emct,
        HeuristicKind::UdStar,
        HeuristicKind::Random2w,
    ];
    for (name, specs) in &rosters {
        for share in shares {
            for replication in [false, true] {
                let mut h = DetHasher::default();
                for budget in BUDGETS {
                    for kind in kinds {
                        let opts = options(500, replication, budget);
                        fold(
                            &mut h,
                            seeded(&pf, specs, share, kind, 11 ^ 0x5eed, 11, opts),
                            true,
                        );
                    }
                }
                rows.push((format!("{name}/{share:?}/rep={replication}"), h.finish()));
            }
        }
    }
}

/// p = 16384 EMCT* cells with a short slot cap: rounds over more than
/// 8192 UP candidates take the sharded selector.
fn sharded_grid(rows: &mut Vec<(String, u64)>) {
    let pf = platform(16384, 8, 16384);
    let specs = [AppSpec::rigid(app(64, 1, 2, 1))];
    for budget in BUDGETS {
        for replication in [false, true] {
            let mut h = DetHasher::default();
            let opts = options(12, replication, budget);
            let sim = seeded(
                &pf,
                &specs,
                SharePolicy::default(),
                HeuristicKind::EmctStar,
                9,
                16385,
                opts,
            );
            fold(&mut h, sim, false);
            let row = format!("p16384/EMCT*/{budget:?}/rep={replication}");
            rows.push((row, h.finish()));
        }
    }
}

#[test]
fn golden_digests_are_unchanged() {
    let mut rows = Vec::new();
    heuristic_grid(&mut rows);
    volatility_grid(&mut rows);
    roster_grid(&mut rows);
    sharded_grid(&mut rows);

    if std::env::var_os("GOLDEN_BLESS").is_some() {
        for (name, digest) in &rows {
            println!("    ({name:?}, {digest:#018x}),");
        }
        return;
    }
    assert!(
        ENGAGED.load(Ordering::Relaxed) > 0,
        "no cell engaged the cap"
    );
    assert_eq!(rows.len(), GOLDEN.len(), "row count changed");
    let mismatches: Vec<String> = rows
        .iter()
        .zip(GOLDEN)
        .filter(|((name, digest), (gname, gdigest))| name != gname || digest != gdigest)
        .map(|((name, digest), (gname, gdigest))| {
            format!("{name}: {digest:#018x} (golden {gname}: {gdigest:#018x})")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} golden rows changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
