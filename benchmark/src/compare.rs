//! `argobench compare A.json B.json`: apply each end-to-end metric's bound
//! per workload to two sets of runs (A is the base). One row per
//! (workload, metric): unchanged, worse, better, or unresolved when the
//! spread of the reps is wider than the bound or than the move. Every ratio
//! is given with its base.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "WORSE",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub new: f64,
    pub bound: f64,
    /// The wider of the two sets' quartile distances, as a share of its
    /// median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge `new` against `base`. A median that moved past the bound is
/// worse or better only if it moved by more than the quartile distance of
/// either side's own reps; a smaller move is noise the runs cannot
/// resolve. Within the bound the metric is unchanged if the spread is no
/// wider than the bound, and unresolved otherwise.
pub fn judge(better: Better, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    let worsening = match better {
        Better::Lower => new.median - base.median,
        Better::Higher => base.median - new.median,
    };
    let noise = (base.q3 - base.q1).max(new.q3 - new.q1);
    if worsening.abs() > bound * base.median.abs() {
        if worsening.abs() <= noise {
            Verdict::Unresolved
        } else if worsening > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if base.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

fn summary_of(metric: &Value) -> Option<Summary> {
    let median = metric.get("value")?.as_f64()?;
    let num = |key: &str, default: f64| metric.get(key).and_then(Value::as_f64).unwrap_or(default);
    Some(Summary {
        median,
        q1: num("q1", median),
        q3: num("q3", median),
        n: num("n", 1.0) as usize,
    })
}

fn runs_of(set: &Value) -> Result<&[Value], String> {
    set.get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a set of runs: no \"runs\" list".to_string())
}

fn run_named<'a>(runs: &'a [Value], workload: &str) -> Option<&'a Value> {
    runs.iter()
        .find(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
}

/// Compare set `b` against base set `a`. Every workload of the base must
/// be in `b`; failed reps may not increase.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let b_runs = runs_of(b)?;
    for base_run in runs_of(a)? {
        let workload = base_run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run without a workload name")?;
        let new_run = run_named(b_runs, workload)
            .ok_or_else(|| format!("{workload} is missing from the second set"))?;
        let failed = |run: &Value| run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let (base_failed, new_failed) = (failed(base_run), failed(new_run));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed".to_string(),
            unit: "count".to_string(),
            base: base_failed,
            new: new_failed,
            bound: 0.0,
            spread: 0.0,
            verdict: if new_failed > base_failed {
                Verdict::Worse
            } else if new_failed < base_failed {
                Verdict::Better
            } else {
                Verdict::Unchanged
            },
        });
        for m in END_TO_END {
            let find = |run: &Value| {
                run.get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(summary_of)
                    .ok_or_else(|| format!("{workload}: no metric {}", m.name))
            };
            let (base, new) = (find(base_run)?, find(new_run)?);
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name.to_string(),
                unit: m.unit.to_string(),
                base: base.median,
                new: new.median,
                bound: m.bound,
                spread: base.spread().max(new.spread()),
                verdict: judge(m.better, m.bound, &base, &new),
            });
        }
    }
    Ok(rows)
}

pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

/// One line per row: the verdict, both medians, and the ratio with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let ratio = if r.base != 0.0 {
            format!("{:.4}x of base {:.6}", r.new / r.base, r.base)
        } else {
            format!("base {:.6}", r.base)
        };
        out.push_str(&format!(
            "{:<12} {:<14} {:<11} new {:.6} {} = {} (bound {:.1}%, spread {:.2}%)\n",
            r.workload,
            r.metric,
            r.verdict.name(),
            r.new,
            r.unit,
            ratio,
            100.0 * r.bound,
            100.0 * r.spread
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} rows: {} unchanged, {} worse, {} better, {} unresolved\n",
        rows.len(),
        count(Verdict::Unchanged),
        count(Verdict::Worse),
        count(Verdict::Better),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v * 0.999,
            q3: v * 1.001,
            n: 5,
        }
    }

    #[test]
    fn judges_by_bound_and_spread() {
        let base = tight(100.0);
        assert_eq!(
            judge(Better::Lower, 0.02, &base, &tight(101.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Lower, 0.02, &base, &tight(103.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.02, &base, &tight(97.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, 0.02, &base, &tight(97.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Higher, 0.02, &base, &tight(103.0)),
            Verdict::Better
        );
        let noisy = Summary {
            median: 100.5,
            q1: 95.0,
            q3: 106.0,
            n: 5,
        };
        assert_eq!(
            judge(Better::Lower, 0.02, &base, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.02, &noisy, &base),
            Verdict::Unresolved
        );
    }

    fn set(sim_cycles: f64, failed: u64) -> Value {
        let mut metrics = Value::obj();
        for m in END_TO_END {
            let v = if m.name == "sim_cycles" {
                sim_cycles
            } else {
                10.0
            };
            metrics.set(
                m.name,
                Value::obj()
                    .with("value", v)
                    .with("unit", m.unit)
                    .with("q1", v)
                    .with("q3", v)
                    .with("n", 5u64),
            );
        }
        let run = Value::obj()
            .with("workload", "matmul_ro")
            .with("failed", failed)
            .with("metrics", metrics);
        Value::obj().with("runs", Value::Arr(vec![run]))
    }

    #[test]
    fn compares_sets_row_by_row() {
        let rows = compare(&set(1000.0, 0), &set(1000.0, 0)).unwrap();
        assert_eq!(rows.len(), 1 + END_TO_END.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert!(!any_worse(&rows));

        let rows = compare(&set(1000.0, 0), &set(1100.0, 0)).unwrap();
        let worse: Vec<&str> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Worse)
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(worse, ["sim_cycles"]);
        assert!(any_worse(&rows));
        let text = render(&rows);
        assert!(text.contains("1.1000x of base 1000.000000"), "{text}");
        assert!(text.contains("1 worse"));

        // More failed reps is worse whatever the metrics say.
        assert!(any_worse(
            &compare(&set(1000.0, 0), &set(900.0, 1)).unwrap()
        ));
    }

    #[test]
    fn rejects_sets_that_do_not_line_up() {
        assert!(compare(&Value::obj(), &set(1.0, 0)).is_err());
        let empty = Value::obj().with("runs", Value::Arr(Vec::new()));
        assert!(compare(&set(1.0, 0), &empty).is_err());
        assert_eq!(compare(&empty, &set(1.0, 0)).unwrap().len(), 0);
    }
}
