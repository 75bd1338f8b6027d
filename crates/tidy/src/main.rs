//! The `vg-tidy` gate binary. See the crate docs and `docs/tidy.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p vg-tidy --release                  # full gate (CI entry)
//! cargo run -p vg-tidy --release -- --root DIR    # scan another tree
//! cargo run -p vg-tidy --release -- --write-baseline
//! ```
//!
//! Exit status: `0` clean, `1` findings, `2` the pass itself failed
//! (I/O or config parse error).

use std::path::PathBuf;
use std::process::ExitCode;
use vg_tidy::config::{Baseline, Config};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("vg-tidy: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => {
                println!(
                    "vg-tidy — workspace static-analysis gate\n\n\
                     \t--root DIR         scan DIR instead of the workspace root\n\
                     \t--write-baseline   regenerate tidy_baseline.toml from current counts\n\n\
                     Rules and waiver syntax: docs/tidy.md"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("vg-tidy: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // The binary lives at crates/tidy; the workspace root is two levels up.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });

    let config_path = root.join("tidy.toml");
    let config = match std::fs::read_to_string(&config_path) {
        Ok(text) => match Config::parse_str(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vg-tidy: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!("vg-tidy: {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        return match vg_tidy::run_workspace(&root, &config, None) {
            Ok(report) => {
                let baseline = Baseline {
                    panic_surface: report.panic_counts.clone(),
                };
                let path = root.join("tidy_baseline.toml");
                if let Err(e) = std::fs::write(&path, baseline.render()) {
                    eprintln!("vg-tidy: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!(
                    "vg-tidy: wrote {} ({} crates)",
                    path.display(),
                    report.panic_counts.len()
                );
                // Other findings still gate: the baseline only covers the
                // panic ratchet.
                finish(report)
            }
            Err(e) => {
                eprintln!("vg-tidy: {e}");
                ExitCode::from(2)
            }
        };
    }

    match vg_tidy::run_from_root(&root) {
        Ok(report) => finish(report),
        Err(e) => {
            eprintln!("vg-tidy: {e}");
            ExitCode::from(2)
        }
    }
}

fn finish(report: vg_tidy::WorkspaceReport) -> ExitCode {
    for f in &report.findings {
        println!("{f}");
    }
    let per_crate = |counts: &std::collections::BTreeMap<String, u64>| {
        let listed: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if listed.is_empty() {
            "none".to_string()
        } else {
            listed.join(" ")
        }
    };
    println!(
        "vg-tidy: {} file(s) scanned, {} finding(s); panic surface: {}; library code lines: {}",
        report.files_scanned,
        report.findings.len(),
        per_crate(&report.panic_counts),
        per_crate(&report.code_lines)
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
