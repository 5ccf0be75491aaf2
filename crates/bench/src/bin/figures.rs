//! `figures <name>|all [--full] [--check]`: regenerate the paper's tables
//! and figures, each followed by the verdicts of its claims. `--full`
//! runs the paper's inputs on at most 8 nodes; `--check` exits 1 when a
//! claim fails that `bench::FINDINGS` does not list.

use bench::{gate, verdict, ALL, FINDINGS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, names): (Vec<&str>, Vec<&str>) = args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    let known = |n: &str| n == "all" || ALL.iter().any(|f| f.name == n);
    if names.len() != 1 || !known(names[0]) || flags.iter().any(|f| !matches!(*f, "--full" | "--check")) {
        let list: Vec<&str> = ALL.iter().map(|f| f.name).collect();
        eprintln!("usage: figures <name>|all [--full] [--check]\nnames: {}", list.join(" "));
        std::process::exit(2);
    }
    let mut verdicts = Vec::new();
    for fig in ALL.iter().filter(|f| names[0] == "all" || f.name == names[0]) {
        let tables = (fig.sweep)(flags.contains(&"--full"));
        tables.iter().for_each(|t| print!("{t}"));
        println!();
        for claim in fig.claims {
            let c = (claim.test)(&tables);
            println!("{:<15} {}: {} [{}]", verdict(claim.id, &c, FINDINGS), claim.id, claim.says, c.values);
            verdicts.push((claim.id, c));
        }
    }
    let failed = gate(&verdicts, FINDINGS);
    let count = |w: &str| verdicts.iter().filter(|(id, c)| verdict(id, c, FINDINGS).starts_with(w)).count();
    let (holds, fails) = (count("holds"), count("FAILS"));
    let findings = fails - failed.len();
    println!("\n{} claims: {holds} hold, {fails} fail ({findings} of them findings), {} not checkable here", verdicts.len(), count("not"));
    if flags.contains(&"--check") && !failed.is_empty() {
        eprintln!("claims failing outside FINDINGS: {}", failed.join(", "));
        std::process::exit(1);
    }
}
