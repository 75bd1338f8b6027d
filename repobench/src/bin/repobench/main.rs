//! Repository benchmark: end-to-end and per-layer metrics over three named
//! workloads (see `repobench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <table1_campaign|platform_scale_64k|cosched_chaos_1k|all> \
//!     [--seed N] [--seconds N] [--trace 0|1] [--out DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload untraced and then traced (the difference is the
//! tracing overhead), runs the layer benches, reports the per-layer ledger,
//! and writes a Chrome trace-event file Perfetto opens. The last line of
//! standard output is always one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vg_core::HeuristicKind;
use vg_des::rng::SeedPath;
use vg_exp::campaign::{run_campaign, InstanceOutcome};
use vg_exp::scenario::{make_scenario, ScenarioParams};
use vg_sim::{MultiReport, SimOptions, Simulation, WorkerSoA};

use check::golden;
use layers::Ledger;
use report::{median, peak_rss_mib, quantile, result_json, Fingerprint, Metrics};
use trace::{chrome_trace_json, self_times, Recorder};
use workloads::{
    campaign_slice, setup_median, table1_config, table1_pass, traced_campaign, traced_single,
    CampaignTrace, Pass, RunArgs, Single, StepTrace, WORKLOADS,
};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 30;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cli {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = num()?,
            "--seconds" => cli.seconds = num()?.max(1),
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => cli.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cli)
}

/// What one workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    /// Extra human-readable lines (self-time table, golden status).
    notes: Vec<String>,
    spans: Vec<trace::Span>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Compares a pass's digest with the committed one for its seed and size.
fn golden_check(workload: &str, seed: u64, pass: &Pass, problems: &mut Vec<String>) -> String {
    match golden(workload, seed, &pass.size) {
        Some(want) if want == pass.digest => format!("golden digest {:016x}: match", pass.digest),
        Some(want) => {
            problems.push(format!(
                "digest {:016x} differs from the committed {want:016x}",
                pass.digest
            ));
            format!(
                "golden digest {:016x}: MISMATCH (want {want:016x})",
                pass.digest
            )
        }
        None => format!(
            "digest {workload} {seed} {} {:016x} (no committed digest for this seed and size)",
            pass.size, pass.digest
        ),
    }
}

/// End-to-end metrics of a measured pass.
fn e2e_metrics(pass: &Pass) -> Metrics {
    let mut m = Metrics::default();
    let wall = pass.wall_s.max(1e-9);
    m.push("instances_per_s", pass.instances as f64 / wall, "1/s");
    m.push("slots_per_s", pass.slots as f64 / wall, "1/s");
    m.push("setup_s", setup_median(pass), "s");
    m.push("rss_p50_mb", median(&mut pass.rss_mib.clone()), "MiB");
    m.push(
        "ok_frac",
        1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
        "ratio",
    );
    m
}

/// The single-run workload named `workload`, if it is one.
fn single(workload: &str) -> Option<Single> {
    [Single::Scale64k, Single::Cosched1k]
        .into_iter()
        .find(|k| k.name() == workload)
}

fn measured(workload: &str, args: &RunArgs) -> Outcome {
    let pass = match single(workload) {
        Some(kind) => kind.pass(args),
        None => table1_pass(args).0,
    };
    let mut problems = pass.problems.clone();
    let note = golden_check(workload, args.seed, &pass, &mut problems);
    let fail_frac = pass.failed as f64 / pass.attempted.max(1) as f64;
    Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: e2e_metrics(&pass),
        notes: vec![
            note,
            format!(
                "fail_frac = {fail_frac} ratio ({} of {} simulations); {} instances, {} slots in {:.3} s",
                pass.failed, pass.attempted, pass.instances, pass.slots, pass.wall_s
            ),
            format!("peak_rss_mb = {} MiB (VmHWM after the workload)", peak_rss_mib()),
        ],
        problems,
        spans: Vec::new(),
    }
}

fn fill_campaign(ledger: &mut Ledger, ct: &CampaignTrace) {
    let mut ms = ct.instance_ms.clone();
    ledger.campaign_instance_ms_p50 = quantile(&mut ms, 0.5);
    ledger.campaign_instance_ms_p90 = quantile(&mut ms, 0.9);
    ledger.campaign_instances = ct.instance_ms.len() as u64;
    ledger.campaign_slots = ct.families.slots.iter().sum();
    ledger.par_busy_frac = ct.busy_frac();
    ledger.par_tail_s = ct.tail_ns as f64 / 1e9;
    ledger.par_threads = ct.threads;
    for (f, ns_per_slot) in ledger.sched_ns_per_slot.iter_mut().enumerate() {
        *ns_per_slot = ct.families.ns[f] as f64 / ct.families.slots[f].max(1) as f64;
    }
}

/// Engine metrics of traced single runs: step-time order statistics,
/// construction time, and the deterministic counters per slot.
fn fill_engine(ledger: &mut Ledger, steps: &StepTrace) {
    let mut us = steps.step_us.clone();
    ledger.step_us_p50 = quantile(&mut us, 0.5);
    ledger.step_us_p99 = quantile(&mut us, 0.99);
    ledger.steps = steps.step_us.len() as u64;
    ledger.construct_ms = median(&mut steps.construct_ms.clone());
    ledger.cap_engagements = steps.cap_engagements;
    let slots: u64 = steps.reports.iter().map(|r| r.combined.slots_run).sum();
    let per_slot = |f: &dyn Fn(&MultiReport) -> u64| {
        steps.reports.iter().map(f).sum::<u64>() as f64 / slots.max(1) as f64
    };
    ledger.tasks_per_slot = per_slot(&|r| r.combined.counters.tasks_completed);
    ledger.replicas_started_per_slot = per_slot(&|r| r.combined.counters.replicas_started);
    ledger.replicas_canceled_per_slot = per_slot(&|r| r.combined.counters.replicas_canceled);
    ledger.channel_slots_per_slot = per_slot(&|r| {
        r.combined.counters.prog_channel_slots + r.combined.counters.data_channel_slots
    });
    let started: u64 = steps
        .reports
        .iter()
        .map(|r| r.combined.counters.replicas_started)
        .sum();
    let canceled: u64 = steps
        .reports
        .iter()
        .map(|r| r.combined.counters.replicas_canceled)
        .sum();
    ledger.replica_waste = if started == 0 {
        0.0
    } else {
        canceled as f64 / started as f64
    };
    ledger.fault_injected = steps
        .reports
        .iter()
        .map(|r| r.combined.counters.injected_faults)
        .sum();
    if let Some(first) = steps.reports.first() {
        for (slot, app) in ledger.final_m.iter_mut().zip(&first.apps) {
            *slot = app.final_m as u64;
        }
    }
}

/// Step p50 (µs) of the 64k engine's first `slots` slots, for the dense
/// source's share of a step on workloads that do not run the 64k engine.
fn step_probe_64k(seed: u64, slots: usize) -> Result<f64, String> {
    let mut built = Single::Scale64k.build(seed, 0, None)?;
    let mut us = Vec::with_capacity(slots);
    for _ in 0..slots {
        let t = Instant::now();
        built.sim.step();
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&mut us))
}

/// Steps fresh engines over Table-1 instances (the heaviest cell, EMCT,
/// with the campaign's seeds) until `min_steps` steps are timed.
fn table1_engine_probe(
    seed: u64,
    min_steps: usize,
    rec: &mut Recorder,
) -> Result<StepTrace, String> {
    let cells = ScenarioParams::table1_grid();
    let cell = cells.len() - 1;
    let scenario = make_scenario(cells[cell], workloads::scenario_seed(seed, cell, 0));
    let kind = HeuristicKind::Emct;
    let h = HeuristicKind::ALL
        .iter()
        .position(|&k| k == kind)
        .unwrap_or(0) as u64;
    let mut steps = StepTrace::default();
    let mut trial = 0u64;
    while steps.step_us.len() < min_steps {
        let (trace, sched) = workloads::instance_seeds(seed, cell, 0, trial);
        let t = Instant::now();
        let sim = Simulation::<WorkerSoA>::new_seeded(
            &scenario.platform,
            &scenario.app,
            kind.build(sched.child(h).rng()),
            trace,
            SimOptions::default(),
        )
        .map_err(|e| e.to_string())?;
        let built = workloads::Built {
            sim,
            construct_s: t.elapsed().as_secs_f64(),
        };
        let report = workloads::traced_drive(built, rec, &mut steps);
        steps.reports.push(report);
        trial += 1;
    }
    Ok(steps)
}

/// Counts instances whose traced outcome differs from the reference.
fn mismatches(traced: &[InstanceOutcome], reference: &[InstanceOutcome]) -> usize {
    if traced.len() != reference.len() {
        return traced.len().max(reference.len());
    }
    traced.iter().zip(reference).filter(|(a, b)| a != b).count()
}

/// The campaign slice on workloads that bypass the campaign layer, checked
/// against `run_campaign` like the full campaign.
fn slice_ledger(
    args: &RunArgs,
    ledger: &mut Ledger,
    rec: &mut Recorder,
    problems: &mut Vec<String>,
) {
    let (cells, cfg) = campaign_slice(args);
    let reference = run_campaign(&cells, &cfg).outcomes.unwrap_or_default();
    let ct = traced_campaign(&cells, &cfg, rec);
    let bad = mismatches(&ct.outcomes, &reference);
    if bad > 0 {
        problems.push(format!(
            "traced campaign slice differs from run_campaign on {bad} instances"
        ));
    }
    fill_campaign(ledger, &ct);
}

fn traced(workload: &str, args: &RunArgs, fp: &Fingerprint) -> Outcome {
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut ledger = Ledger {
        nproc: fp.nproc,
        threads: fp.threads,
        ..Ledger::default()
    };
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let (pass, traced_wall) = match single(workload) {
        None => {
            let (pass, reference) = table1_pass(args);
            let cells = ScenarioParams::table1_grid();
            let ct = traced_campaign(&cells, &table1_config(args), &mut rec);
            let bad = mismatches(&ct.outcomes, &reference);
            notes.push(format!(
                "traced campaign: {} of {} instance makespans equal run_campaign's",
                reference.len() - bad.min(reference.len()),
                reference.len()
            ));
            if bad > 0 {
                problems.push(format!(
                    "traced campaign differs from run_campaign on {bad} instances"
                ));
            }
            fill_campaign(&mut ledger, &ct);
            let layer = rec.begin("ledger.scenario");
            (ledger.scenario_make_us, ledger.markov_chain_stats_us) =
                layers::scenario_bench(&cells, args.seed);
            rec.end(layer);
            let place_cell = cells[cells.len() / 2];
            let platform =
                make_scenario(place_cell, SeedPath::root(args.seed).child_str("ledger")).platform;
            (ledger.sched_place_ns, ledger.sched_place_u) = rec.scope("ledger.place", || {
                layers::place_bench(
                    &platform,
                    &place_cell,
                    HeuristicKind::Emct,
                    place_cell.n_tasks,
                    args.seed,
                )
            });
            match table1_engine_probe(args.seed, 2000, &mut rec) {
                Ok(steps) => fill_engine(&mut ledger, &steps),
                Err(e) => problems.push(format!("engine probe: {e}")),
            }
            (pass, ct.wall_ns as f64 / 1e9)
        }
        Some(kind) => {
            let pass = kind.pass(args);
            let (tpass, steps) = traced_single(kind, args, &mut rec);
            if tpass.digest != pass.digest || !tpass.problems.is_empty() {
                problems.push("traced run differs from the measured run".into());
                problems.extend(tpass.problems.clone());
            }
            fill_engine(&mut ledger, &steps);
            slice_ledger(args, &mut ledger, &mut rec, &mut problems);
            let params = kind.params();
            let layer = rec.begin("ledger.scenario");
            (ledger.scenario_make_us, ledger.markov_chain_stats_us) =
                layers::scenario_bench(&[params], args.seed);
            rec.end(layer);
            let platform = kind.platform(args.seed, 0);
            (ledger.sched_place_ns, ledger.sched_place_u) = rec.scope("ledger.place", || {
                layers::place_bench(
                    &platform,
                    &params,
                    kind.heuristic(),
                    params.n_tasks,
                    args.seed,
                )
            });
            (pass, tpass.wall_s)
        }
    };
    problems.extend(pass.problems.clone());
    notes.push(golden_check(workload, args.seed, &pass, &mut problems));
    if let Err(e) = layers::shared_benches(&mut ledger, args.seed, &mut rec) {
        problems.push(format!("layer benches: {e}"));
    }
    let step_us = if workload == "platform_scale_64k" {
        Ok(ledger.step_us_p50)
    } else {
        rec.scope("ledger.engine.step_probe_64k", || {
            step_probe_64k(args.seed, 150)
        })
    };
    match step_us {
        Ok(us) => {
            let row_ns = ledger.dense_ns_per_worker_slot * workloads::P_64K as f64;
            ledger.source_share_of_step = row_ns / (us * 1e3).max(1e-9);
        }
        Err(e) => problems.push(format!("64k step probe: {e}")),
    }
    ledger.trace_overhead_frac = traced_wall / pass.wall_s.max(1e-9) - 1.0;
    ledger.trace_spans = rec.spans().len() as u64;
    let mut rows: Vec<_> = self_times(rec.spans()).into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    notes.push(format!(
        "untraced {:.3} s, traced {:.3} s; self time by span (top 12):",
        pass.wall_s, traced_wall
    ));
    for (name, t) in rows.iter().take(12) {
        notes.push(format!(
            "  {name:<28} count {:>8}  total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        problems,
        metrics: ledger.metrics(),
        notes,
        spans: rec.into_spans(),
    }
}

/// Writes the results file (and the trace, when there is one) under `out`.
fn write_files(
    cli: &Cli,
    workload: &str,
    o: &Outcome,
    fp: &Fingerprint,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let stem = format!("{workload}-seed{}-trace{}", cli.seed, u8::from(cli.trace));
    let mut written = Vec::new();
    let mut meta: Vec<(&str, String)> = fp.pairs();
    meta.push(("workload", workload.to_string()));
    meta.push(("seed", cli.seed.to_string()));
    meta.push(("seconds", cli.seconds.to_string()));
    let mut body = String::from("{\n");
    for (k, v) in &meta {
        body.push_str(&format!(
            "  \"{}\": \"{}\",\n",
            trace::json_escape(k),
            trace::json_escape(v)
        ));
    }
    body.push_str("  \"notes\": [");
    for (i, n) in o.notes.iter().chain(&o.problems).enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("\"{}\"", trace::json_escape(n)));
    }
    body.push_str("],\n  \"result\": ");
    body.push_str(&result_json(o.correct(), o.attempted, o.failed, &o.metrics));
    body.push_str("\n}\n");
    let path = cli.out.join(format!("{stem}.json"));
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    written.push(path);
    if !o.spans.is_empty() {
        let path = cli
            .out
            .join(format!("{workload}-seed{}.trace.json", cli.seed));
        std::fs::write(&path, chrome_trace_json(&o.spans, &meta))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

fn run_one(cli: &Cli, workload: &str, fp: &Fingerprint) -> Outcome {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        threads: fp.threads,
    };
    println!(
        "workload {workload}: seed {} seconds {} trace {} | box nproc {} threads {} cpu \"{}\" {}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        fp.nproc,
        fp.threads,
        fp.cpu,
        fp.rustc
    );
    let mut o = if cli.trace {
        traced(workload, &args, fp)
    } else {
        measured(workload, &args)
    };
    for m in o.metrics.iter() {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &o.notes {
        println!("  {n}");
    }
    match write_files(cli, workload, &o, fp) {
        Ok(paths) => {
            for p in paths {
                println!("  wrote {}", p.display());
            }
        }
        Err(e) => o.problems.push(format!("writing results: {e}")),
    }
    for p in &o.problems {
        println!("  PROBLEM: {p}");
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let fp = Fingerprint::detect(report::nproc());
    let line = if cli.workload == "all" {
        let mut metrics = Metrics::default();
        let (mut attempted, mut failed, mut correct) = (0, 0, true);
        for w in WORKLOADS {
            let o = run_one(&cli, w, &fp);
            attempted += o.attempted;
            failed += o.failed;
            correct &= o.correct();
            metrics.extend_prefixed(&format!("{w}."), &o.metrics);
        }
        result_json(correct, attempted, failed, &metrics)
    } else {
        let o = run_one(&cli, &cli.workload, &fp);
        result_json(o.correct(), o.attempted, o.failed, &o.metrics)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_parses_the_benchmark_arguments() {
        let cli = parse_cli(&args(
            "--workload cosched_chaos_1k --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cli.workload, "cosched_chaos_1k");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 10, true));
    }
}
