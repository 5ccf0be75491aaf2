//! `argobench`: the repository's benchmark. See `benchmark/README.md`.

use argobench::cli::{self, Command, Common};
use argobench::compare;
use argobench::json::{self, Value};
use argobench::probe::{self, ProbeBudget};
use argobench::run::{self, write_file, RunOptions};
use argobench::workload::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traces and set files go: `benchmark/out/`, inside the checkout
/// the binary was built from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(
    workload: Workload,
    traced: bool,
    common: &Common,
    json_out: Option<PathBuf>,
) -> Result<(), String> {
    let opts = RunOptions {
        workload,
        seed: common.seed,
        seconds: common.seconds,
        scale: common.scale,
    };
    let result = if traced {
        let trace = out_dir().join(format!("trace_{}.json", workload.name()));
        let result = run::per_layer(opts, Some(trace.clone()));
        println!("# spans written to {}", trace.display());
        result
    } else {
        run::end_to_end(opts)
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# host parallelism: {cores}; cluster: 2 nodes x 1 thread");
    print!("{}", result.table());
    if let Some(path) = json_out {
        write_file(&path, &result.detail_json().to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    // The result line comes last.
    println!("{}", result.driver_json());
    Ok(())
}

/// Run every workload's end-to-end run, each in a process of its own so
/// that peak memory is per workload, and collect the detailed results.
fn run_all(common: &Common, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        let part = out_dir().join(format!("part_{}_{}.json", std::process::id(), w.name()));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", w.name(), "--trace", "0"])
            .args(["--seed", &common.seed.to_string()])
            .args(["--seconds", &common.seconds.to_string()])
            .arg("--json-out")
            .arg(&part);
        if common.scale == Scale::Quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("starting the {} run: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("the {} run ended with {status}", w.name()));
        }
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("reading {}: {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        runs.push(json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?);
    }
    let set = Value::obj()
        .with("seed", common.seed)
        .with("seconds", common.seconds)
        .with("runs", Value::Arr(runs));
    write_file(out, &set.to_string()).map_err(|e| format!("writing {}: {e}", out.display()))
}

fn read_set(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two set files; `Ok(true)` if nothing got worse.
fn compare_sets(base: &Path, new: &Path) -> Result<bool, String> {
    let rows = compare::compare(&read_set(base)?, &read_set(new)?)?;
    print!("{}", compare::render(&rows));
    Ok(!compare::any_worse(&rows))
}

fn execute(command: Command) -> Result<bool, String> {
    match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            Ok(true)
        }
        Command::Run {
            workload,
            traced,
            common,
            json_out,
        } => run_one(workload, traced, &common, json_out).map(|()| true),
        Command::Probe { scale } => {
            let budget = match scale {
                Scale::Full => ProbeBudget::FULL,
                Scale::Quick => ProbeBudget::QUICK,
            };
            for (name, value) in probe::run_all(budget) {
                println!("{name:<34} {value:>16.3}");
            }
            Ok(true)
        }
        Command::All { common, out } => run_all(&common, &out).map(|()| true),
        Command::Compare { base, new } => compare_sets(&base, &new),
        Command::Selfcheck { common } => {
            let (a, b) = (
                out_dir().join("selfcheck_a.json"),
                out_dir().join("selfcheck_b.json"),
            );
            run_all(&common, &a)?;
            run_all(&common, &b)?;
            compare_sets(&a, &b)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("argobench: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match execute(command) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("argobench: {e}");
            ExitCode::from(1)
        }
    }
}
