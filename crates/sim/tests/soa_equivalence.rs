//! The SoA ⇄ AoS bit-identity oracle.
//!
//! The production engine runs on the [`WorkerSoA`] hot/cold layout; the
//! original `Vec<WorkerRuntime>` path is retained behind the [`AosWorkers`]
//! adapter (`ReferenceSimulation = Simulation<AosWorkers>`), delegating every
//! per-worker operation to the unchanged pre-refactor methods. This harness
//! proves the refactor safe: across the full 17-heuristic × seed ×
//! platform-size × replication grid, the two engines must produce
//! **identical [`SimReport`]s** — makespans, per-iteration completion slots,
//! every counter, and the bandwidth statistic — same pattern as PR 1's
//! 1632-run pin of the zero-allocation slot loop.
//!
//! Since the incremental-snapshot change, the same grid also pins the
//! **incremental vs. full-rebuild snapshot paths** against each other: the
//! SoA engine patches a persistent snapshot buffer from per-worker dirty
//! bits (`WorkerStore::INCREMENTAL_SNAPSHOTS = true`), while the AoS
//! reference opts out and rebuilds every snapshot from scratch, exactly as
//! before the change. A missed dirty bit therefore shows up here as a
//! report divergence (and, in debug builds, as the engine's per-consult
//! incremental-vs-full assertion firing first).
//!
//! The grid deliberately includes runs that hit the slot cap (the p = 1024
//! cells): capped runs exercise crash/cancel/replica churn for the whole
//! horizon and compare every counter, which is a stronger equivalence check
//! than a short happy path.

use vg_core::{HeuristicKind, SharePolicy};
use vg_des::rng::SeedPath;
use vg_markov::availability::AvailabilityChain;
use vg_platform::source::StartPolicy;
use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig};
use vg_sim::{
    AppSpec, PlacementBudget, ReferenceSimulation, SimArena, SimOptions, Simulation, WorkerSoA,
};

/// Paper-style platform: Markov chains with diagonals in `[0.90, 0.99]`,
/// speeds in `[2, 20]`.
fn platform(p: usize, ncom: usize, seed: u64) -> PlatformConfig {
    let mut rng = SeedPath::root(seed).rng();
    PlatformConfig {
        processors: (0..p)
            .map(|_| {
                let chain = AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99);
                let w = rng.u64_range_inclusive(2, 20);
                ProcessorConfig::markov(w, chain, StartPolicy::Up)
            })
            .collect(),
        ncom,
    }
}

/// One grid cell: platform size, tasks, iterations, slot cap, trace seeds.
struct Cell {
    p: usize,
    m: usize,
    iterations: u64,
    max_slots: u64,
    seeds: &'static [u64],
}

/// The equivalence grid. Larger platforms get a tighter slot cap so the
/// whole grid stays affordable in debug builds; the p = 1024 cells cap out
/// by design (see the module docs).
const GRID: &[Cell] = &[
    Cell {
        p: 32,
        m: 48,
        iterations: 2,
        max_slots: 20_000,
        seeds: &[11, 12, 13],
    },
    Cell {
        p: 256,
        m: 256,
        iterations: 1,
        max_slots: 1_500,
        seeds: &[21, 22],
    },
    Cell {
        p: 1024,
        m: 768,
        iterations: 1,
        max_slots: 260,
        seeds: &[31],
    },
    // Platform-scale row: u ≥ SHARD_MIN_UPS forces the sharded selector
    // and the chunked dense-column passes onto their large-p branches, so
    // this cell pins chunked ≡ unchunked and sharded ≡ monolithic (the
    // AoS reference inherits the conservative per-worker defaults for
    // every block-summary query). Few slots keep the debug grid
    // affordable; the debug oracles sample at this size (see
    // `exhaustive_debug_checks`), so the bit-identity check here is the
    // full-platform one.
    Cell {
        p: 16_384,
        m: 2_048,
        iterations: 1,
        max_slots: 12,
        seeds: &[41],
    },
];

#[test]
fn soa_engine_is_bit_identical_to_aos_reference_across_the_grid() {
    let mut runs = 0usize;
    let mut finished = 0usize;
    for cell in GRID {
        let ncom = (cell.p / 10).max(3);
        for &seed in cell.seeds {
            let platform = platform(cell.p, ncom, seed);
            let app = AppConfig {
                tasks_per_iteration: cell.m,
                iterations: cell.iterations,
                t_prog: 10,
                t_data: 2,
            };
            for replication in [false, true] {
                let options = SimOptions {
                    max_slots: cell.max_slots,
                    replication,
                    max_extra_replicas: 2,
                    record_timeline: false,
                    placement_budget: PlacementBudget::Uncapped,
                };
                for kind in HeuristicKind::ALL {
                    let soa = Simulation::<WorkerSoA>::new_seeded(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                        SeedPath::root(seed),
                        options,
                    )
                    .unwrap()
                    .run_multi();
                    let aos = ReferenceSimulation::new_seeded(
                        &platform,
                        &app,
                        kind.build(SeedPath::root(seed ^ 0xbeef).rng()),
                        SeedPath::root(seed),
                        options,
                    )
                    .unwrap()
                    .run_multi();
                    assert_eq!(
                        soa, aos,
                        "SoA/AoS divergence: p={} seed={seed} replication={replication} {kind}",
                        cell.p
                    );
                    // A one-app roster's per-app slice agrees with the
                    // combined report.
                    let (combined, per_app) = (&soa.combined, &soa.apps[0]);
                    assert_eq!(soa.apps.len(), 1);
                    assert_eq!(per_app.completed_iterations, combined.completed_iterations);
                    assert_eq!(per_app.makespan, combined.makespan);
                    assert_eq!(per_app.final_m, cell.m);
                    assert_eq!(per_app.tasks_completed, combined.counters.tasks_completed);
                    assert_eq!(
                        per_app.iteration_completed_at,
                        combined.iteration_completed_at
                    );
                    runs += 2;
                    finished += usize::from(combined.finished());
                }
            }
        }
    }
    assert_eq!(runs, 17 * 2 * 2 * (3 + 2 + 1 + 1), "grid shape drifted");
    // The grid must exercise both completed and capped runs.
    assert!(
        finished > 0,
        "no run finished — grid too tight to mean much"
    );
    assert!(
        finished < runs / 2,
        "every run finished — the capped-run half of the grid is gone"
    );
}

#[test]
fn warmed_arena_matches_cold_engines_of_both_layouts_across_resizes() {
    // PR 2's arena-equality test, extended to the new layout: one arena
    // driven through a grow → shrink → grow platform sequence (dirty
    // buffers from each previous shape) must match a cold SoA engine *and*
    // the cold AoS reference, run for run.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, bool)] = &[
        (8, 12, true),
        (96, 128, false), // grow
        (4, 3, true),     // shrink
        (96, 128, true),  // regrow onto dirty buffers, replicas on
        (8, 12, true),    // original shape again
    ];
    for (round, &(p, m, replication)) in plans.iter().enumerate() {
        let seed = (round * 100 + p) as u64;
        let platform = platform(p, (p / 10).max(2), seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let options = SimOptions {
            max_slots: 50_000,
            replication,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Mct,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run_apps_seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    SharePolicy::default(),
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap()
                .combined;
            let cold = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            let reference = ReferenceSimulation::new_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap()
            .run();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            assert_eq!(cold, reference, "round {round} {kind}: layout divergence");
        }
    }
}

#[test]
fn capped_runs_leave_no_stale_dirty_bits_across_arena_resizes() {
    // Incremental snapshots live off per-worker dirty bits and a persistent
    // snapshot buffer, both retained by the arena across runs. A *capped*
    // run aborts mid-iteration with pipelines full — every bit set, the
    // buffer full of half-finished delays — which is the worst state to
    // inherit. Drive one arena through grow → shrink → grow with tightly
    // capped runs in between and pin each run against cold engines of both
    // layouts: a leaked bit (or a snapshot patched from another platform's
    // buffer) diverges here.
    let mut arena = SimArena::new();
    let plans: &[(usize, usize, u64)] = &[
        (64, 96, 40),     // capped: aborts with every pipeline mid-flight
        (8, 12, 50_000),  // shrink, runs to completion
        (64, 96, 35),     // regrow onto the capped run's dirty buffers
        (256, 256, 60),   // grow past every previous high-water mark
        (64, 96, 50_000), // the capped shape again, now to completion
    ];
    let mut capped = 0usize;
    for (round, &(p, m, max_slots)) in plans.iter().enumerate() {
        let seed = (round * 1000 + p) as u64;
        let platform = platform(p, (p / 10).max(2), seed);
        let app = AppConfig {
            tasks_per_iteration: m,
            iterations: 2,
            t_prog: 4,
            t_data: 1,
        };
        let options = SimOptions {
            max_slots,
            replication: true,
            max_extra_replicas: 2,
            record_timeline: false,
            placement_budget: PlacementBudget::Uncapped,
        };
        for kind in [
            HeuristicKind::EmctStar,
            HeuristicKind::Ud,
            HeuristicKind::Random2w,
        ] {
            let warm = arena
                .run_apps_seeded(
                    &platform,
                    &[AppSpec::rigid(app)],
                    SharePolicy::default(),
                    kind.build(SeedPath::root(seed).rng()),
                    SeedPath::root(seed + 1),
                    options,
                )
                .unwrap()
                .combined;
            let cold = Simulation::run_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap();
            let reference = ReferenceSimulation::new_seeded(
                &platform,
                &app,
                kind.build(SeedPath::root(seed).rng()),
                SeedPath::root(seed + 1),
                options,
            )
            .unwrap()
            .run();
            assert_eq!(warm.makespan, cold.makespan, "round {round} {kind}");
            assert_eq!(warm.slots_run, cold.slots_run, "round {round} {kind}");
            assert_eq!(
                warm.completed_iterations, cold.completed_iterations,
                "round {round} {kind}"
            );
            assert_eq!(cold, reference, "round {round} {kind}: layout divergence");
            capped += usize::from(!warm.finished());
        }
    }
    assert!(
        capped >= 6,
        "only {capped} capped runs — the caps are too loose to leave dirty state"
    );
}
