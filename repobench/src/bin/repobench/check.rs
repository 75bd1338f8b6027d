//! Correctness gate: invariants every result must satisfy for any seed,
//! plus `vg_des::det` digests of whole workloads compared against the
//! committed `golden.tsv` where it has an entry for the run's seed and size.

use std::hash::Hasher;

use vg_des::det::DetHasher;
use vg_exp::campaign::InstanceOutcome;
use vg_sim::MultiReport;

/// Committed digests: `workload seed size digest` per line.
const GOLDEN: &str = include_str!("../../../golden.tsv");

/// Accumulates a deterministic digest of a workload's results.
#[derive(Debug, Default, Clone)]
pub struct Digest(DetHasher);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }

    pub fn outcome(&mut self, o: &InstanceOutcome) {
        self.u64(o.cell as u64);
        for (&mk, &done) in o.makespans.iter().zip(&o.completed) {
            self.u64(mk);
            self.u64(u64::from(done));
        }
    }

    pub fn report(&mut self, r: &MultiReport) {
        let c = &r.combined;
        self.u64(c.makespan.map_or(u64::MAX, |m| m));
        self.u64(c.slots_run);
        self.u64(c.completed_iterations);
        for &s in &c.iteration_completed_at {
            self.u64(s);
        }
        let k = &c.counters;
        for v in [
            k.tasks_completed,
            k.copies_completed,
            k.duplicate_results,
            k.copies_lost_to_down,
            k.replicas_started,
            k.replicas_canceled,
            k.programs_delivered,
            k.prog_channel_slots,
            k.data_channel_slots,
            k.state_slots[0],
            k.state_slots[1],
            k.state_slots[2],
            k.injected_faults,
        ] {
            self.u64(v);
        }
        for a in &r.apps {
            self.u64(a.makespan.map_or(u64::MAX, |m| m));
            self.u64(a.completed_iterations);
            self.u64(a.final_m as u64);
            self.u64(a.tasks_completed);
        }
    }
}

/// The committed digest for `(workload, seed, size)`, if any.
pub fn golden(workload: &str, seed: u64, size: &str) -> Option<u64> {
    GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, s, z, d] if *w == workload && s.parse() == Ok(seed) && *z == size => {
                    u64::from_str_radix(d, 16).ok()
                }
                _ => None,
            }
        })
}

/// What an application must have done by the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppExpect {
    /// Fixed `m` tasks per iteration.
    Rigid { m: usize, iterations: u64 },
    /// Re-picked size, clamped to `[min, max]`.
    Moldable {
        min: usize,
        max: usize,
        iterations: u64,
    },
}

/// Checks one engine report against the accounting identities; returns the
/// violations (empty when the report is sound).
///
/// * task conservation per application (exact for finished rigid apps,
///   bracketed by the clamp for moldable ones, by the iteration count for
///   unfinished ones) and across applications;
/// * `replicas_canceled ≤ replicas_started + tasks_completed` — the
///   counter counts every canceled copy, and when a replica wins, the
///   task's original is canceled too, so at most one more than the
///   replicas started per completed task;
/// * `Σ state_slots = p × slots`;
/// * `must_finish` runs finish (no slot cap).
pub fn report_violations(
    r: &MultiReport,
    p: usize,
    expect: &[AppExpect],
    must_finish: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    let c = &r.combined;
    let k = &c.counters;
    if must_finish && c.makespan.is_none() {
        bad.push(format!("hit the slot cap after {} slots", c.slots_run));
    }
    if c.makespan.is_some() != r.apps.iter().all(|a| a.makespan.is_some()) {
        bad.push("combined makespan disagrees with the per-app makespans".into());
    }
    if k.replicas_canceled > k.replicas_started + k.tasks_completed {
        bad.push(format!(
            "{} copies canceled but only {} replicas started for {} tasks",
            k.replicas_canceled, k.replicas_started, k.tasks_completed
        ));
    }
    let observed: u64 = k.state_slots.iter().sum();
    if observed != p as u64 * c.slots_run {
        bad.push(format!(
            "state slots sum to {observed}, expected p × slots = {}",
            p as u64 * c.slots_run
        ));
    }
    if k.copies_completed != k.tasks_completed {
        bad.push("copies completed differ from tasks completed".into());
    }
    let per_app: u64 = r.apps.iter().map(|a| a.tasks_completed).sum();
    if per_app != k.tasks_completed {
        bad.push(format!(
            "apps completed {per_app} tasks, the platform {}",
            k.tasks_completed
        ));
    }
    if r.apps.len() != expect.len() {
        bad.push(format!(
            "{} apps reported, {} run",
            r.apps.len(),
            expect.len()
        ));
        return bad;
    }
    for (i, (a, e)) in r.apps.iter().zip(expect).enumerate() {
        let (lo, hi, iterations) = match *e {
            AppExpect::Rigid { m, iterations } => (m, m, iterations),
            AppExpect::Moldable {
                min,
                max,
                iterations,
            } => (min, max, iterations),
        };
        let done = a.completed_iterations;
        let t = a.tasks_completed;
        if a.makespan.is_some() {
            if done != iterations {
                bad.push(format!(
                    "app {i}: finished after {done}/{iterations} iterations"
                ));
            }
            if t < done * lo as u64 || t > done * hi as u64 {
                bad.push(format!(
                    "app {i}: {t} tasks over {done} iterations of {lo}..={hi} tasks"
                ));
            }
        } else if t < done * lo as u64 || t > (done + 1) * hi as u64 {
            bad.push(format!(
                "app {i}: {t} tasks after {done} finished iterations of {lo}..={hi} tasks"
            ));
        }
        if !(lo..=hi).contains(&a.final_m) {
            bad.push(format!(
                "app {i}: final m = {} outside {lo}..={hi}",
                a.final_m
            ));
        }
    }
    bad
}

/// Checks one campaign instance: every heuristic finished (the Table-1
/// campaign runs uncapped, so a cap is a failure) with a positive makespan.
/// Returns the number of failed simulations.
pub fn outcome_failures(o: &InstanceOutcome) -> u64 {
    o.makespans
        .iter()
        .zip(&o.completed)
        .filter(|&(&mk, &done)| !done || mk == 0)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vg_sim::{AppReport, Counters, SimReport};

    fn report(tasks: u64, slots: u64, p: u64) -> MultiReport {
        let counters = Counters {
            tasks_completed: tasks,
            copies_completed: tasks,
            replicas_started: 5,
            replicas_canceled: 3,
            state_slots: [p * slots - 2, 1, 1],
            ..Counters::default()
        };
        MultiReport {
            combined: SimReport {
                scheduler: "EMCT".into(),
                completed_iterations: 2,
                makespan: Some(slots),
                slots_run: slots,
                iteration_completed_at: vec![slots / 2, slots - 1],
                counters,
                mean_bandwidth_utilization: 0.5,
                timeline: None,
            },
            apps: vec![AppReport {
                completed_iterations: 2,
                makespan: Some(slots),
                final_m: 4,
                tasks_completed: tasks,
                iteration_completed_at: vec![slots / 2, slots - 1],
            }],
        }
    }

    const RIGID: [AppExpect; 1] = [AppExpect::Rigid {
        m: 4,
        iterations: 2,
    }];

    #[test]
    fn sound_report_passes() {
        assert!(report_violations(&report(8, 10, 3), 3, &RIGID, true).is_empty());
    }

    #[test]
    fn each_broken_identity_is_caught() {
        let lost_task = report(7, 10, 3);
        assert!(!report_violations(&lost_task, 3, &RIGID, true).is_empty());

        let mut waste = report(8, 10, 3);
        waste.combined.counters.replicas_canceled = 14;
        assert_eq!(report_violations(&waste, 3, &RIGID, true).len(), 1);

        let mut states = report(8, 10, 3);
        states.combined.counters.state_slots[2] += 1;
        assert_eq!(report_violations(&states, 3, &RIGID, true).len(), 1);

        let mut capped = report(8, 10, 3);
        capped.combined.makespan = None;
        capped.apps[0].makespan = None;
        capped.apps[0].completed_iterations = 1;
        assert!(!report_violations(&capped, 3, &RIGID, true).is_empty());
        // Over a fixed horizon an unfinished run is expected.
        capped.apps[0].tasks_completed = 8;
        assert!(report_violations(&capped, 3, &RIGID, false).is_empty());
    }

    #[test]
    fn capped_campaign_runs_fail() {
        let o = InstanceOutcome {
            cell: 0,
            makespans: vec![10, 20, 30],
            completed: vec![true, false, true],
        };
        assert_eq!(outcome_failures(&o), 1);
    }

    #[test]
    fn digest_sees_every_counter() {
        let a = report(8, 10, 3);
        let mut b = a.clone();
        b.combined.counters.prog_channel_slots += 1;
        let (mut da, mut db) = (Digest::default(), Digest::default());
        da.report(&a);
        db.report(&b);
        assert_ne!(da.finish(), db.finish());
    }

    #[test]
    fn golden_lookup_parses_rows() {
        // Every committed row names a known workload and parses.
        for l in GOLDEN
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 4, "malformed golden row {l}");
            assert!(crate::workloads::WORKLOADS.contains(&f[0]), "{l}");
            let seed: u64 = f[1].parse().expect("seed");
            assert!(golden(f[0], seed, f[2]).is_some());
        }
        assert_eq!(golden("no_such_workload", 1, "x"), None);
    }
}
