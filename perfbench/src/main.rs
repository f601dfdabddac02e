//! XSP's benchmark: four workloads, each an in-process replay of one XSP
//! command through the public entry points the CLI calls.
//!
//! ```text
//! perfbench --workload <profile_cold|convert_offline|serving_trace|daemon_sessions>
//!           [--seed N] [--seconds S] [--trace 0|1] [--commit C] [--rustc V]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that records a span around every call into a layer and reports the
//! per-layer metrics. The last line of stdout is the result object. Run it
//! from the repository root: working files and the traced run's spans go to
//! `perfbench/out`. See
//! `README.md` beside this crate for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod alloc;
mod rec;
mod report;
mod run_loop;
mod workloads;

use run_loop::{closed_loop, Outcome, RunCfg};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The default workload seed; [`HELD_OUT_SEED`] is kept for checking
/// claims on inputs a change was not tuned on.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 1009;

/// Where runs keep working files and the traced run's spans, relative to
/// the repository root.
const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 4] = [
    "profile_cold",
    "convert_offline",
    "serving_trace",
    "daemon_sessions",
];

struct Args {
    workload: String,
    cfg: RunCfg,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for --{key}"))?;
        flags.insert(key.to_owned(), value);
    }
    let num = |key: &str, default: f64| -> Result<f64, String> {
        flags
            .get(key)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad --{key} '{v}'")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let workload = flags.get("workload").cloned().ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seed = flags
        .get("seed")
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad --seed '{v}'")))
        .transpose()?
        .unwrap_or(DEFAULT_SEED);
    let seconds = num("seconds", 20.0)?;
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    let work_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed,
            seconds,
            traced,
            work_dir,
        },
        commit: flags
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
        rustc: flags
            .get("rustc")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

/// Runs one workload; returns its outcome and its derived per-layer values.
fn run(workload: &str, cfg: &RunCfg) -> (Outcome, HashMap<&'static str, f64>) {
    use workloads::*;
    match workload {
        "profile_cold" => {
            let seed = cfg.seed;
            let out = closed_loop(cfg, || profile_cold::ProfileCold::setup(seed));
            let derived = profile_cold::derived(&out);
            (out, derived)
        }
        "convert_offline" => {
            let seed = cfg.seed;
            let out = closed_loop(cfg, || convert_offline::ConvertOffline::setup(seed));
            (out, HashMap::new())
        }
        "serving_trace" => {
            let n = std::cell::Cell::new(0);
            let out = closed_loop(cfg, || {
                n.set(n.get() + 1);
                serving_trace::ServingTrace::setup(cfg.seed, &cfg.work_dir, n.get())
            });
            let derived = serving_trace::derived(&out);
            (out, derived)
        }
        "daemon_sessions" => {
            let out = closed_loop(cfg, || {
                daemon_sessions::DaemonSessions::setup(cfg.seed, &cfg.work_dir)
            });
            let derived = daemon_sessions::derived(&out);
            (out, derived)
        }
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.cfg.work_dir) {
        eprintln!("error: cannot create {}: {e}", args.cfg.work_dir.display());
        return ExitCode::FAILURE;
    }
    let (out, derived) = run(&args.workload, &args.cfg);
    let _ = std::fs::remove_dir_all(&args.cfg.work_dir);

    let header = format!(
        "# perfbench workload={} seed={} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) \
         trace={} seconds={} nproc={} engine_workers={} commit={} rustc=\"{}\"",
        args.workload,
        args.cfg.seed,
        args.cfg.traced as u8,
        args.cfg.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::profile_cold::WORKERS,
        args.commit,
        args.rustc,
    );
    let metrics: Vec<(String, f64, &'static str)> = if args.cfg.traced {
        let metrics = report::per_layer(&out, &derived);
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload, args.cfg.seed
        ));
        match report::write_chrome(&path, &header, &out.spans) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        metrics
    } else {
        let e2e = report::end_to_end(&out);
        report::END_TO_END
            .iter()
            .map(|(name, unit)| ((*name).to_owned(), e2e[name], *unit))
            .collect()
    };
    let correct = out.failed == 0;
    report::print(&header, &out, &metrics, correct);
    ExitCode::SUCCESS
}
