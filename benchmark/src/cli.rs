//! Command-line parsing. Input from outside the program is checked here
//! and converted to checked types; nothing below parses strings.

use crate::workload::{Scale, Workload};
use std::path::PathBuf;

/// The seed used when none is given. Numbers quoted in the README were
/// taken with it.
pub const DEFAULT_SEED: u64 = 20150615;
/// A seed never used while the benchmark was written: claims must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 7741;
/// Seconds measured when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Longest `--seconds` accepted.
const MAX_SECONDS: f64 = 3600.0;

/// Options shared by every command that runs workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Common {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// One run of one workload (the form the driver calls); `traced`
    /// selects the per-layer run. `json_out` also writes the detailed
    /// result there.
    Run {
        workload: Workload,
        traced: bool,
        common: Common,
        json_out: Option<PathBuf>,
    },
    /// The unit-cost probes alone.
    Probe {
        scale: Scale,
    },
    /// An end-to-end run of every workload, each in a process of its own,
    /// collected into one set file.
    All {
        common: Common,
        out: PathBuf,
    },
    /// Compare two set files.
    Compare {
        base: PathBuf,
        new: PathBuf,
    },
    /// Two sets of the same build, compared.
    Selfcheck {
        common: Common,
    },
    Help,
}

pub const USAGE: &str = "\
argobench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--json-out FILE]
argobench trace <name> [--seed N] [--seconds S] [--quick]
argobench probe [--quick]
argobench all --out FILE [--seed N] [--seconds S] [--quick]
argobench compare A.json B.json
argobench selfcheck [--seed N] [--seconds S] [--quick]

workloads: matmul_ro sor_stencil prioq_hqdl mixed_pyxis sor_chaos
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to benchmark/out/trace_<name>.json). The last line
of standard output is the result as one JSON object.";

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut common = Common {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        scale: Scale::Full,
    };
    let (mut name, mut traced, mut json_out, mut out) = (None, false, None, None);
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg {
            "--workload" => name = Some(workload(value(arg)?)?),
            "--seed" => {
                let v = value(arg)?;
                common.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value(arg)?;
                common.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= MAX_SECONDS => s,
                    _ => return Err(format!("--seconds {v:?} is not in (0, {MAX_SECONDS}]")),
                };
            }
            "--trace" => {
                traced = match value(arg)? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                }
            }
            "--quick" => common.scale = Scale::Quick,
            "--json-out" => json_out = Some(PathBuf::from(value(arg)?)),
            "--out" => out = Some(PathBuf::from(value(arg)?)),
            "-h" | "--help" | "help" => return Ok(Command::Help),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            word => positional.push(word),
        }
    }
    let run = |workload, traced| Command::Run {
        workload,
        traced,
        common: common.clone(),
        json_out: json_out.clone(),
    };
    match (positional.as_slice(), name) {
        ([], Some(w)) => Ok(run(w, traced)),
        (["trace", w], None) => Ok(run(workload(w)?, true)),
        (["probe"], None) => Ok(Command::Probe {
            scale: common.scale,
        }),
        (["all"], None) => Ok(Command::All {
            common,
            out: out.ok_or("all needs --out FILE")?,
        }),
        (["compare", a, b], None) => Ok(Command::Compare {
            base: PathBuf::from(a),
            new: PathBuf::from(b),
        }),
        (["selfcheck"], None) => Ok(Command::Selfcheck { common }),
        ([], None) => Err("no command".to_string()),
        _ => Err(format!("cannot make sense of {:?}", args.join(" "))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_the_driver_form() {
        let c = parse_str("--workload sor_chaos --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            c,
            Command::Run {
                workload: Workload::SorChaos,
                traced: true,
                common: Common {
                    seed: 9,
                    seconds: 10.0,
                    scale: Scale::Full
                },
                json_out: None,
            }
        );
        match parse_str("--workload matmul_ro").unwrap() {
            Command::Run { traced, common, .. } => {
                assert!(!traced);
                assert_eq!(common.seed, DEFAULT_SEED);
                assert_eq!(common.seconds, DEFAULT_SECONDS);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_subcommands() {
        assert!(matches!(
            parse_str("trace prioq_hqdl --quick").unwrap(),
            Command::Run {
                workload: Workload::PrioqHqdl,
                traced: true,
                ..
            }
        ));
        assert_eq!(
            parse_str("probe --quick").unwrap(),
            Command::Probe {
                scale: Scale::Quick
            }
        );
        assert_eq!(
            parse_str("compare a.json b.json").unwrap(),
            Command::Compare {
                base: "a.json".into(),
                new: "b.json".into()
            }
        );
        assert!(matches!(
            parse_str("selfcheck").unwrap(),
            Command::Selfcheck { .. }
        ));
        assert!(matches!(
            parse_str("all --out x.json").unwrap(),
            Command::All { .. }
        ));
        assert_eq!(parse_str("--help").unwrap(), Command::Help);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload matmul_ro --seed -1",
            "--workload matmul_ro --seed x",
            "--workload matmul_ro --seconds 0",
            "--workload matmul_ro --seconds nan",
            "--workload matmul_ro --seconds 1e9",
            "--workload matmul_ro --trace 2",
            "--workload matmul_ro --frobnicate",
            "trace",
            "trace nope",
            "all",
            "compare a.json",
            "probe extra",
            "trace matmul_ro --workload matmul_ro",
        ] {
            assert!(parse_str(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn default_seconds_is_the_declared_run_length() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(crate::json::Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }
}
