//! # bench — the paper's tables and figures as checked data
//!
//! One binary, `figures`, regenerates every table and figure of the paper
//! (see `DESIGN.md` §6 for the index) from the simulated cluster:
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all --check
//! cargo run --release -p bench --bin figures -- fig13c --full
//! ```
//!
//! Each figure is a sweep (the workloads, parameters, shapes and policies
//! it runs; `--full` the paper's inputs on ≤ 8 nodes, the default a reduced
//! sweep of the same shape) whose rows are the tables it prints, and the
//! paper's claims about those rows as named predicates. A predicate states
//! a direction or an ordering, never a host-ordered number. `figures`
//! prints each table and then one verdict per claim; with `--check` it
//! exits non-zero when a claim fails that [`FINDINGS`] does not list.

use std::fmt;

mod ablation;
mod coherence;
mod locks;
mod paper;
mod prioq;
mod six;
mod speedup;

/// Claims that fail, or whose verdict changes run to run, on the reduced
/// sweep. Each entry is a claim's id and what runs of `figures all` on a
/// 2-vCPU host measured when the claim was written (31 runs; 71 for the
/// two that first flipped later). `--check` reports them without failing
/// on them; a claim leaves this list once it holds on every run.
pub const FINDINGS: &[(&str, &str)] = &[
    ("fig08.naive_ps_no_better_than_s", "11 of 31 fail: geomean P/S 0.927-1.055 of S"),
    ("fig09.tiny_buffer_slower", "24 of 31 fail: MM 1 vs 8 192 pages 324-524 k vs 304-509 k cycles"),
    ("fig09.large_buffers_cost_more", "31 of 31 fail: 1 024 vs 8 192 pages differ either way"),
    ("fig11v.cohort_above_mutex", "1 of 71 fails: at 8 threads Cohort 2.35 vs Mutex 3.53 ops/us"),
    ("fig12.hqdl_drops_going_distributed", "1 of 31 fails: HQDL 3.96 -> 4.30 from 1 to 2 nodes"),
    ("fig12.hqdl_flat_after_two_nodes", "5 of 31 fail: e.g. HQDL 3.96, 3.35, 1.82, 2.39 at 1-8 nodes"),
    ("fig13a.argo_beats_pthreads", "31 of 31 fail: Argo at most 4.00-4.11 vs Pthreads 5.19"),
    ("fig13a.argo_gains_to_8_nodes", "22 of 31 fail: Argo 4.00-4.11 at 4 nodes, 3.96-4.11 at 8"),
    ("fig13b.argo_meets_mpi", "31 of 31 fail: 8 nodes Argo 29.91-30.10 vs MPI 30.30-30.42"),
    ("fig13d.large_both_scale", "31 of 31 fail: large-input MPI 25.83 at 4 nodes, 18.38-21.60 at 8"),
    ("fig13d.large_mpi_lead_persists", "31 of 31 fail: 8 nodes Argo 24.74-26.26 vs MPI 18.38-21.60"),
    ("fig13f.argo_keeps_scaling", "31 of 31 fail: Argo 3.07, 2.55-2.75, 1.74-1.86, 1.28-1.35"),
    ("passive_dir.active_never_faster", "18 of 31 fail: MM active/passive 0.52-1.68, CG 0.97-1.11"),
    ("passive_dir.gap_grows_with_handlers", "14 of 31 fail: top-handler run 0.60-1.47 vs EP 1.00-1.11"),
    ("prefetch.streaming_gains", "31 of 31 fail: Blackscholes 16-page/1-page 1.040-1.088"),
    ("prefetch.cg_gains_least", "27 of 31 fail: CG 0.947-1.106 vs Blackscholes 1.040-1.088"),
    ("cohort_fencing.delegation_beats_hierarchical", "3 of 31 fail: 4 nodes HQDL 1.49-1.85 vs 1.86-2.34"),
    ("coherence.pyxis_mixed_beats_both", "1 of 71 fails: pyxis 1 390 269 vs sisd 1 344 400 cycles"),
    ("coherence.pyxis_sor_within_10pct", "3 of 31 fail: pyxis 698 269-760 357 vs sisd 627 438-629 992"),
    ("coherence.pyxis_steady_read_mostly_within_10pct", "6 of 31 fail: pyxis 8 806-11 110 vs tardis 7 429-9 154"),
];

/// One figure: a sweep that returns the tables it prints, and the paper's
/// claims about them.
pub struct Figure {
    pub name: &'static str,
    pub sweep: fn(bool) -> Vec<Table>,
    pub claims: &'static [Claim],
}

/// One of the paper's claims, as a predicate over a figure's tables.
pub struct Claim {
    pub id: &'static str,
    pub says: &'static str,
    pub test: fn(&[Table]) -> Check,
}

/// A claim's verdict on one run: holds, fails, or cannot be checked on
/// this host (`None`), with the values it compared.
#[derive(Debug)]
pub struct Check {
    pub holds: Option<bool>,
    pub values: String,
}

/// A checkable verdict.
pub fn check(holds: bool, values: String) -> Check {
    Check { holds: Some(holds), values }
}

/// Every figure, in the paper's order, then the ablations.
pub const ALL: [Figure; 23] = [
    paper::FIG01, paper::TABLE1, paper::FIG07, six::FIG08, six::FIG09_10,
    locks::FIG11, locks::FIG11V, locks::FIG12,
    speedup::FIG13A, speedup::FIG13B, speedup::FIG13C, speedup::FIG13D, speedup::FIG13E, speedup::FIG13F,
    six::PASSIVE_DIR, locks::HQDL_BATCH, six::PREFETCH, locks::COHORT_FENCING,
    ablation::ADAPTIVE, ablation::DISTRIBUTION, speedup::SOR, ablation::TRAFFIC, coherence::COHERENCE,
];

/// The verdict of one claim, as `figures` prints it.
pub fn verdict(id: &str, c: &Check, findings: &[(&str, &str)]) -> &'static str {
    let listed = findings.iter().any(|(f, _)| *f == id);
    match (c.holds, listed) {
        (Some(true), false) => "holds",
        (Some(true), true) => "holds (finding)",
        (Some(false), false) => "FAILS",
        (Some(false), true) => "FAILS (finding)",
        (None, _) => "not checkable",
    }
}

/// The `--check` gate: the ids of failing claims `findings` does not list.
pub fn gate<'a>(verdicts: &[(&'a str, Check)], findings: &[(&str, &str)]) -> Vec<&'a str> {
    let listed = |id: &str| findings.iter().any(|(f, _)| *f == id);
    verdicts.iter().filter(|(id, c)| c.holds == Some(false) && !listed(id)).map(|(id, _)| *id).collect()
}

/// A titled table of labelled rows of numbers, each column printed with
/// its own number of decimals. It is both what a figure prints and the
/// rows its claims read.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    head: &'static str,
    cols: Vec<(String, usize)>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    pub(crate) fn new<S: AsRef<str>>(title: impl Into<String>, head: &'static str, cols: &[(S, usize)]) -> Self {
        let cols = cols.iter().map(|(c, d)| (c.as_ref().to_string(), *d)).collect();
        Table { title: title.into(), head, cols, rows: Vec::new() }
    }

    pub(crate) fn row(&mut self, label: impl ToString, values: Vec<f64>) {
        assert_eq!(values.len(), self.cols.len(), "{}: row width", self.title);
        self.rows.push((label.to_string(), values));
    }

    pub(crate) fn rows(&self) -> &[(String, Vec<f64>)] {
        &self.rows
    }

    fn index(&self, col: &str) -> usize {
        let i = self.cols.iter().position(|(c, _)| c == col);
        i.unwrap_or_else(|| panic!("{}: no column {col}", self.title))
    }

    /// The cell of row `label`, column `col`.
    pub(crate) fn get(&self, label: &str, col: &str) -> f64 {
        let row = self.rows.iter().find(|(l, _)| l == label);
        row.unwrap_or_else(|| panic!("{}: no row {label}", self.title)).1[self.index(col)]
    }

    /// Column `col` of the rows whose label starts with `prefix`.
    pub(crate) fn series(&self, prefix: &str, col: &str) -> Vec<f64> {
        let i = self.index(col);
        self.rows.iter().filter(|(l, _)| l.starts_with(prefix)).map(|(_, v)| v[i]).collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.rows.iter().map(|(l, _)| l.len()).chain([self.head.len(), 12]).max();
        let w = w.unwrap_or(12);
        let head: Vec<String> = self.cols.iter().map(|(c, _)| format!("{c:>14}")).collect();
        let head = format!("{:>w$} {}", self.head, head.join(" "));
        writeln!(f, "\n== {} ==\n{head}\n{}", self.title, "-".repeat(head.chars().count()))?;
        for (label, values) in &self.rows {
            let cells: Vec<String> =
                values.iter().zip(&self.cols).map(|(v, (_, d))| format!("{v:>14.d$}")).collect();
            writeln!(f, "{label:>w$} {}", cells.join(" "))?;
        }
        Ok(())
    }
}

/// Geometric mean of positive values.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Every value strictly above the one before it.
pub(crate) fn rising(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[1] > w[0])
}

/// `a → b → c`, to three significant places of the largest.
pub(crate) fn arrow(values: &[f64]) -> String {
    let top = values.iter().fold(0.0, |m: f64, v| m.max(v.abs()));
    let d = if top < 10.0 { 3 } else if top < 1e3 { 2 } else { 0 };
    values.iter().map(|v| format!("{v:.d$}")).collect::<Vec<_>>().join(" → ")
}

/// Node-count sweep for a scaling figure: the paper's doubling range up to
/// `paper_max`, stopped at 8 nodes — 120 simulated threads at `--full`'s
/// 15 per node, each an OS thread (`simnet::MAX_THREADS`).
pub(crate) fn node_sweep(paper_max: usize) -> Vec<usize> {
    (0..).map(|i| 1 << i).take_while(|&n| n <= paper_max.min(8)).collect()
}

/// Threads per node for cluster runs: the paper's 15, or 4 reduced.
pub(crate) fn threads_per_node(full: bool) -> usize {
    if full {
        15
    } else {
        4
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A synthetic table: `cols` at three decimals, one row per label.
    pub fn table(cols: &[&str], rows: &[(&str, &[f64])]) -> Table {
        let mut t = Table::new("", "", &cols.iter().map(|c| (*c, 3)).collect::<Vec<_>>());
        rows.iter().for_each(|(l, v)| t.row(l, v.to_vec()));
        t
    }

    /// Each claim of `fig` accepts its case's `good` tables and rejects
    /// its `bad` ones, and every claim has a case: a vacuous predicate, or
    /// one without a case, fails here.
    pub fn discriminates(fig: &Figure, cases: &[(&str, Vec<Table>, Vec<Table>)]) {
        for c in fig.claims {
            let case = cases.iter().find(|(id, _, _)| *id == c.id);
            let (_, good, bad) = case.unwrap_or_else(|| panic!("claim {} has no test case", c.id));
            let (g, b) = ((c.test)(good), (c.test)(bad));
            assert_eq!(g.holds, Some(true), "{} rejects its good rows: {}", c.id, g.values);
            assert_eq!(b.holds, Some(false), "{} accepts its bad rows: {}", c.id, b.values);
        }
        assert_eq!(fig.claims.len(), cases.len(), "a case names no claim of {}", fig.name);
    }

    #[test]
    fn geomean_of_identical_is_identity() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn node_sweep_doubles_up_to_its_cap() {
        assert_eq!(node_sweep(32), [1, 2, 4, 8], "stopped at 8 nodes, with or without --full");
        assert_eq!(node_sweep(4), [1, 2, 4]);
        assert!(8 * threads_per_node(true) <= simnet::MAX_THREADS);
    }

    #[test]
    fn a_table_reads_back_what_it_prints() {
        let rows: [(&str, &[f64]); 3] = [("Argo 1n", &[1.0, 2.0]), ("Argo 2n", &[3.0, 4.5]), ("MPI 1n", &[5.0, 6.0])];
        let t = table(&["x", "y"], &rows);
        assert_eq!(t.get("Argo 2n", "y"), 4.5);
        assert_eq!(t.series("Argo", "x"), [1.0, 3.0]);
        assert!(t.to_string().contains("Argo 2n          3.000          4.500"), "{t}");
    }

    #[test]
    fn check_fails_only_on_an_unlisted_failing_claim() {
        let fails = check(false, "1 vs 2".into());
        let verdicts = [("a.fails", fails), ("b.holds", check(true, String::new()))];
        assert_eq!(gate(&verdicts, &[]), ["a.fails"]);
        assert!(gate(&verdicts, &[("a.fails", "1 vs 2 at the parent")]).is_empty());
        let uncheckable = Check { holds: None, values: String::new() };
        assert!(gate(&[("c", uncheckable)], &[]).is_empty());
    }

    #[test]
    fn every_finding_names_one_claim_and_figure_names_are_unique() {
        let ids: Vec<&str> = ALL.iter().flat_map(|f| f.claims.iter().map(|c| c.id)).collect();
        for (i, (id, values)) in FINDINGS.iter().enumerate() {
            assert!(ids.contains(id), "finding {id} names no claim");
            assert!(!values.is_empty(), "finding {id} records no values");
            assert!(FINDINGS[..i].iter().all(|(f, _)| f != id), "{id} listed twice");
        }
        for (i, f) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|g| g.name != f.name), "two figures named {}", f.name);
        }
    }

    /// EXPERIMENTS.md's claims table: every claim of [`ALL`] in order, with
    /// its [`FINDINGS`] note, or the CI gate's verdict.
    fn claims_table() -> String {
        let mut table = String::from("| claim | the paper says | measured |\n|---|---|---|\n");
        for c in ALL.iter().flat_map(|f| f.claims) {
            let note = FINDINGS.iter().find(|(id, _)| *id == c.id).map_or("holds (CI gate)", |(_, n)| n);
            table += &format!("| `{}` | {} | {note} |\n", c.id, c.says);
        }
        table
    }

    /// EXPERIMENTS.md is derived: its claims table is [`claims_table`], and
    /// its notes name every figure (`figures <name>`) in [`ALL`]'s order.
    #[test]
    fn experiments_renders_every_claim_and_names_every_figure_in_order() {
        let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"));
        let doc = doc.expect("read EXPERIMENTS.md");
        let (begin, end) = ("<!-- claims table: begin -->\n", "<!-- claims table: end -->");
        let start = doc.find(begin).expect("EXPERIMENTS.md has no claims table") + begin.len();
        let committed = &doc[start..start + doc[start..].find(end).expect("the claims table is not closed")];
        let table = claims_table();
        assert!(committed == table, "EXPERIMENTS.md's claims table is stale; the rendering is:\n{table}");
        let mut at = 0;
        for f in &ALL {
            let name = format!("`figures {}`", f.name);
            let i = doc.find(&name).unwrap_or_else(|| panic!("EXPERIMENTS.md never names {name}"));
            assert!(i > at, "EXPERIMENTS.md names {name} before the figure ahead of it in ALL");
            at = i;
        }
    }
}
