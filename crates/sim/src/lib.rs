//! # vg-sim — the volatile-platform master–worker simulator
//!
//! A slot-level discrete-event simulator for the execution model of
//! Casanova, Dufossé, Robert & Vivien (IPDPS 2011), Section 3: iterative
//! master–worker applications on `UP`/`RECLAIMED`/`DOWN` processors with a
//! bounded multi-port master.
//!
//! * [`task`] — tasks, copies (original + ≤ 2 replicas), iteration state;
//! * [`app`] — the application runtime layer: per-app specs and runtimes
//!   ([`app::AppSpec`], [`app::AppRuntime`]), barrier reconfiguration
//!   ([`app::ReconfigPolicy`]) and the task-id namespace that lets several
//!   applications share one worker store;
//! * [`worker`] — the per-worker pipeline (program / data / compute with one
//!   task of look-ahead);
//! * [`store`] — worker storage layouts: the hot/cold [`store::WorkerSoA`]
//!   the engine runs on and the retained [`store::AosWorkers`] oracle;
//! * [`engine`] — the seven-phase slot loop ([`engine::Simulation`], generic
//!   over the layout) and the warmed arena ([`engine::SimArena`]). Every
//!   engine draws its availability from one [`vg_platform::RowSource`] —
//!   boxed per-processor sources, the dense Markov bank, a correlated
//!   model or a shared-recording replay — and every engine, cold or in an
//!   arena, is assembled by the same private function;
//! * [`report`] — makespans and counters ([`report::SimReport`]).
//!
//! ## Warmed arenas for campaign-scale fan-out
//!
//! Campaigns run hundreds of thousands of short simulations; building each
//! [`Simulation`] from scratch pays ~25 allocations
//! (worker runtimes, chain statistics, the whole slot scratch) before the
//! first slot executes. A [`SimArena`] keeps all of those
//! buffers warm across runs — one arena per worker thread. Each run hands
//! them to the same assembly a cold engine goes through, which validates
//! the run before taking any buffer and presizes them exactly as it does
//! for a cold engine; the arena takes them back when the run ends, so a
//! rejected run leaves it as warm as before.
//! [`SimArena::run_apps_seeded`](engine::SimArena::run_apps_seeded) returns
//! lean outcomes (a [`RunOutcome`] plus one [`AppOutcome`] per application,
//! no strings) whose results are **bit-identical** to
//! [`Simulation::run_seeded`](engine::Simulation::run_seeded):
//!
//! ```
//! use vg_core::{HeuristicKind, SharePolicy};
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};
//! use vg_sim::{AppSpec, SimArena, SimOptions, Simulation};
//!
//! let mut rng = SeedPath::root(1).rng();
//! let platform = PlatformConfig {
//!     processors: (0..2)
//!         .map(|_| ProcessorConfig::markov(
//!             2,
//!             AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99),
//!             StartPolicy::Up,
//!         ))
//!         .collect(),
//!     ncom: 1,
//! };
//! let app = AppConfig { tasks_per_iteration: 4, iterations: 2, t_prog: 5, t_data: 1 };
//!
//! let mut arena = SimArena::new();
//! for trial in 0..3 {
//!     // A single application is a one-spec roster.
//!     let outcome = arena.run_apps_seeded(
//!         &platform,
//!         &[AppSpec::rigid(app)],
//!         SharePolicy::default(),
//!         HeuristicKind::Emct.build(SeedPath::root(10 + trial).rng()),
//!         SeedPath::root(20 + trial),
//!         SimOptions::default(),
//!     ).unwrap().combined;
//!     // Same seeds through a cold engine give the same answer, bit for bit.
//!     let cold = Simulation::run_seeded(
//!         &platform,
//!         &app,
//!         HeuristicKind::Emct.build(SeedPath::root(10 + trial).rng()),
//!         SeedPath::root(20 + trial),
//!         SimOptions::default(),
//!     ).unwrap();
//!     assert_eq!(outcome.makespan, cold.makespan);
//!     assert_eq!(outcome.slots_run, cold.slots_run);
//! }
//! ```
//!
//! ```
//! use vg_core::HeuristicKind;
//! use vg_des::rng::SeedPath;
//! use vg_markov::availability::AvailabilityChain;
//! use vg_platform::{AppConfig, PlatformConfig, ProcessorConfig, StartPolicy};
//! use vg_sim::{SimOptions, Simulation};
//!
//! // Two statistically identical volatile processors.
//! let mut rng = SeedPath::root(1).rng();
//! let platform = PlatformConfig {
//!     processors: (0..2)
//!         .map(|_| ProcessorConfig::markov(
//!             2,
//!             AvailabilityChain::sample_paper(&mut rng, 0.90, 0.99),
//!             StartPolicy::Up,
//!         ))
//!         .collect(),
//!     ncom: 1,
//! };
//! let app = AppConfig { tasks_per_iteration: 4, iterations: 2, t_prog: 5, t_data: 1 };
//!
//! let report = Simulation::run_seeded(
//!     &platform,
//!     &app,
//!     HeuristicKind::EmctStar.build(SeedPath::root(2).rng()),
//!     SeedPath::root(3),
//!     SimOptions::default(),
//! ).unwrap();
//! assert!(report.finished());
//! ```

pub mod app;
pub mod engine;
pub mod report;
pub mod store;
pub mod task;
pub mod timeline;
pub mod worker;

pub use app::{AppRuntime, AppSpec, MoldableParams, ReconfigPolicy};
pub use engine::{
    platform_chain_stats, AppOutcome, MultiOutcome, PlacementBudget, ReferenceSimulation,
    RunOutcome, SimArena, SimOptions, Simulation,
};
pub use report::{AppReport, Counters, MultiReport, SimReport};
pub use store::{AosWorkers, WorkerSoA, WorkerStore};
pub use task::{CopyId, TaskId};
pub use timeline::{Activity, Timeline};
