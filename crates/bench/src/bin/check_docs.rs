//! CI doc-rot gate: intra-repo links, `file:line` anchors and the cargo
//! targets of documented commands must resolve against the checkout.
//!
//! Scans the audited docs (README, ARCHITECTURE, PERFORMANCE, BENCHMARKING,
//! ROADMAP, the verify skill and the CI workflow) for markdown links to repo
//! paths, backticked `path.rs:123` anchors and `--bin` / `--example` /
//! `--test` / `-p` operands, and fails when a link target does not exist, an
//! anchor points past the end of its file, or a command names a target or
//! package that is not on disk.  Usage:
//!
//! ```sh
//! cargo run --release -p dd-bench --bin check_docs [--root <repo-root>]
//! ```
//!
//! The default root is the current directory (CI runs from the checkout
//! root).  Docs that do not exist yet are skipped, not failed — the list is
//! a superset so new docs join the audit by being created.

use dd_bench::docs::{check_doc, AUDITED_DOCS};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("check_docs: --root expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("check_docs: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut violations = Vec::new();
    let mut checked = 0usize;
    for doc in AUDITED_DOCS {
        let path = root.join(doc);
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // not every audited doc exists in every checkout
        };
        checked += 1;
        violations.extend(check_doc(&root, doc, &text));
    }
    if checked == 0 {
        eprintln!(
            "check_docs: no audited docs found under {} — wrong --root?",
            root.display()
        );
        return ExitCode::FAILURE;
    }
    if violations.is_empty() {
        println!("check_docs: {checked} docs audited, all links, anchors and targets resolve");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("check_docs: FAIL {violation}");
        }
        ExitCode::FAILURE
    }
}
