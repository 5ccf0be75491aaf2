//! Table 1: the three classification schemes and which pages self-
//! invalidate (SI) / self-downgrade (SD) under each — printed directly
//! from the protocol's decision logic, so the table *is* the code.

use bench::{cell, print_header, print_row};
use carina::classification::{node_bit, ClassificationMode, DirView};

fn views() -> Vec<(&'static str, DirView, u16)> {
    // (label, directory view, observing node)
    vec![
        ("P (mine)", DirView { readers: node_bit(0), writers: node_bit(0) }, 0),
        ("S, NW", DirView { readers: node_bit(0) | node_bit(1), writers: 0 }, 0),
        (
            "S, SW (me)",
            DirView { readers: node_bit(0) | node_bit(1), writers: node_bit(0) },
            0,
        ),
        (
            "S, SW (other)",
            DirView { readers: node_bit(0) | node_bit(1), writers: node_bit(1) },
            0,
        ),
        (
            "S, MW",
            DirView {
                readers: node_bit(0) | node_bit(1),
                writers: node_bit(0) | node_bit(1),
            },
            0,
        ),
    ]
}

fn tick(b: bool) -> &'static str {
    if b {
        "SI/SD"
    } else {
        "-"
    }
}

fn main() {
    for (mode, name) in [
        (ClassificationMode::AllShared, "S: no classification"),
        (ClassificationMode::PsNaive, "P/S: simple classification (naive)"),
        (ClassificationMode::Ps3, "P/S3: full P/S + writer classification"),
    ] {
        print_header(name, &["state", "SI", "SD"]);
        for (label, view, me) in views() {
            print_row(&[
                cell(label),
                cell(tick(view.must_self_invalidate(mode, me)).replace("SI/SD", "SI")),
                cell(tick(view.must_self_downgrade(mode)).replace("SI/SD", "SD")),
            ]);
        }
    }
    println!("\nNotes (paper Table 1):");
    println!("- P/S3 self-downgrades private pages (\"SD to avoid P->S forced downgrade\").");
    println!("- In P/S3 the single writer of a shared page does not SI; other nodes do.");
    println!("- Naive P/S exempts private pages from SD and pays with checkpointing.");
}
