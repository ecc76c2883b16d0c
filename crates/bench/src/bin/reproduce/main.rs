//! Regenerate one table or figure of the paper's evaluation
//! (`ARCHITECTURE.md` §4 has the index of figures and the claims they check).
//!
//! Usage: `cargo run --release -p dd-bench --bin reproduce -- <figure>`, where
//! `<figure>` is one of the names in [`FIGURES`] or `all` (every figure, in
//! table order).  Each figure is one module exposing `run()`, which prints
//! markdown tables and a "Paper shape" note to stdout; seeds and scales are
//! fixed, so every non-timing column repeats run to run.

mod fig10;
mod fig11;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod fig17;
mod fig5;
mod fig6;
mod fig7;
mod fig9;
mod grounding;

use dd_grounding::standard_udfs;
use dd_workloads::{KbcSystem, RuleTemplate};
use deepdive::{DeepDive, EngineConfig, ExecutionMode};
use std::process::ExitCode;

/// Every figure by the name that selects it, in the order `all` runs them.
const FIGURES: [(&str, fn()); 12] = [
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("grounding", grounding::run),
];

/// A fresh engine over `system`'s program and corpus.
fn engine_for(system: &KbcSystem) -> DeepDive {
    DeepDive::builder()
        .program(system.program.clone())
        .database(system.corpus.database.clone())
        .udfs(standard_udfs())
        .config(EngineConfig::fast())
        .build()
        .expect("engine builds")
}

/// An engine that has executed the FE1 + S1 iterations by Rerun, so that
/// every later rule template operates on a trained system.
fn trained(system: &KbcSystem) -> DeepDive {
    let mut engine = engine_for(system);
    for template in [RuleTemplate::FE1, RuleTemplate::S1] {
        engine
            .run_update(&system.template_update(template), ExecutionMode::Rerun)
            .expect("template applies");
    }
    engine
}

/// A [`trained`] engine with its materialization built: the state an
/// incremental update starts from.
fn prepared(system: &KbcSystem) -> DeepDive {
    let mut engine = trained(system);
    engine.materialize().expect("materializes");
    engine
}

/// The figures `name` selects, or the usage text when it selects none.
fn select(name: &str) -> Result<Vec<fn()>, String> {
    let selected: Vec<fn()> = FIGURES
        .iter()
        .filter(|(figure, _)| name == "all" || name == *figure)
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|&(figure, _)| figure).collect();
        return Err(format!(
            "reproduce: unknown figure {name:?}\nusage: reproduce <{}|all>",
            names.join("|")
        ));
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.as_slice() {
        [name] => name.as_str(),
        _ => "",
    };
    match select(name) {
        Ok(figures) => {
            for run in figures {
                run();
            }
            ExitCode::SUCCESS
        }
        Err(usage) => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_table_names_are_unique_and_all_covers_them() {
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert_ne!(*name, "all", "`all` is reserved");
            assert!(
                FIGURES[..i].iter().all(|(earlier, _)| earlier != name),
                "{name} is listed twice"
            );
            assert_eq!(select(name).expect("a listed name resolves").len(), 1);
        }
        assert_eq!(select("all").expect("all resolves").len(), FIGURES.len());

        // An unknown name (or none) selects nothing and gets the whole list
        // back; `main` prints it and exits 2.
        for unknown in ["fig8", "FIG9", ""] {
            let usage = select(unknown).expect_err("not a figure");
            for (name, _) in FIGURES {
                assert!(usage.contains(name), "usage omits {name}: {usage}");
            }
            assert!(usage.contains("|all>"));
        }
    }
}
