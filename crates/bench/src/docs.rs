//! Mechanical doc-rot detection: intra-repo links, `file:line` anchors and
//! the cargo targets that documented commands name.
//!
//! The top-level docs cite code as `path/to/file.rs:123`, link to each
//! other with ordinary markdown links, and quote the commands that build and
//! drive the repo.  All three rot silently as the code moves; this module
//! extracts every such reference and checks it against the repository on
//! disk — links must resolve to existing files, `file:line` anchors must
//! point inside a file that is at least that long, and every `--bin`,
//! `--example`, `--test` and `-p` operand must name a target or package that
//! exists.  The `check_docs` binary runs it over every audited doc and the
//! CI docs job gates on the result, so a refactor that breaks an anchor or
//! retires a binary fails the build instead of shipping a stale citation.
//!
//! Line-existence is a necessary, not sufficient, check — it cannot prove
//! the *named symbol* still lives at that line.  It is still the floor worth
//! gating: every stale anchor found in the PR-9 audit was stale because the
//! file had shrunk or the path had vanished, and those are exactly the cases
//! this catches.

use std::path::{Path, PathBuf};

/// The docs whose references are audited by `check_docs`: the top-level
/// docs, and the two files that exist to be copied into a shell.
pub const AUDITED_DOCS: [&str; 7] = [
    "README.md",
    "ARCHITECTURE.md",
    "PERFORMANCE.md",
    "BENCHMARKING.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// One reference extracted from a doc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocRef {
    /// A markdown link target: `[text](target)`, already stripped of any
    /// `#fragment`.  External schemes are filtered out before this is built.
    Link { target: String },
    /// A backticked `path:line` anchor.
    Anchor { path: String, line: usize },
    /// The operand of a cargo target-selection flag: `--bin reproduce`,
    /// `--example quickstart`, `--test router`, `-p dd-bench`.
    Target { flag: &'static str, name: String },
}

/// The cargo flags whose operand [`extract_refs`] resolves.
const TARGET_FLAGS: [&str; 4] = ["--bin", "--example", "--test", "-p"];

/// Extract checkable references from markdown `text`.
///
/// Links: every `](target)` occurrence, skipping `http://`, `https://`,
/// `mailto:` and pure-fragment (`#...`) targets.  Anchors: every backtick
/// span of the shape `path.ext:123` (optionally `path.ext:123-456`) where
/// `ext` is a source-ish extension.  Targets: the word after `--bin`,
/// `--example`, `--test` or `-p` when it is a plain name (placeholders such
/// as `<name>` are skipped); `-p` is only read on a line that mentions
/// `cargo`, since `mkdir -p` is not naming a package.
pub(crate) fn extract_refs(text: &str) -> Vec<DocRef> {
    let mut refs = Vec::new();
    // Markdown link targets.
    let mut i = 0;
    while let Some(pos) = text[i..].find("](") {
        let start = i + pos + 2;
        let Some(len) = text[start..].find(')') else {
            break;
        };
        let target = &text[start..start + len];
        i = start + len;
        if target.starts_with("http://")
            || target.starts_with("https://")
            || target.starts_with("mailto:")
            || target.starts_with('#')
            || target.is_empty()
        {
            continue;
        }
        let target = target.split('#').next().unwrap_or(target);
        if !target.is_empty() {
            refs.push(DocRef::Link {
                target: target.to_string(),
            });
        }
    }
    // Backticked path:line anchors.
    for span in text.split('`').skip(1).step_by(2) {
        if let Some((path, line)) = parse_anchor(span) {
            refs.push(DocRef::Anchor { path, line });
        }
    }
    // Operands of cargo's target-selection flags.
    for line in text.lines() {
        let mut words = line
            .split(|c: char| c.is_whitespace() || c == '`')
            .filter(|word| !word.is_empty());
        while let Some(word) = words.next() {
            let Some(&flag) = TARGET_FLAGS.iter().find(|&&flag| flag == word) else {
                continue;
            };
            if flag == "-p" && !line.contains("cargo") {
                continue;
            }
            let Some(operand) = words.next() else {
                break;
            };
            let name = operand.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
            let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-');
            if !name.is_empty() && name.chars().all(plain) {
                refs.push(DocRef::Target {
                    flag,
                    name: name.to_string(),
                });
            }
        }
    }
    refs
}

/// Parse one backtick span as a `path.ext:line[-line]` anchor.
fn parse_anchor(span: &str) -> Option<(String, usize)> {
    let (path, rest) = span.split_once(':')?;
    let extension = Path::new(path).extension()?.to_str()?;
    if !matches!(extension, "rs" | "md" | "toml" | "json" | "js" | "yml") {
        return None;
    }
    if !path
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '/' | '.' | '_' | '-'))
    {
        return None;
    }
    // `file.rs:12` or `file.rs:12-34`; anything else is not an anchor.
    let first = rest.split('-').next()?;
    let line: usize = first.parse().ok()?;
    (line > 0).then(|| (path.to_string(), line))
}

/// The package directories of the workspace at `root`: the root package and
/// every directory under `crates/` and `vendor/`.
fn package_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        let Ok(entries) = std::fs::read_dir(root.join(group)) else {
            continue;
        };
        dirs.extend(entries.flatten().map(|entry| entry.path()));
    }
    dirs
}

/// Whether one of `packages` (see [`package_dirs`]) has what `flag name`
/// selects: a package of that name for `-p`, otherwise an auto-discovered
/// target (`<dir>/name.rs` or `<dir>/name/main.rs` under `src/bin`,
/// `examples` or `tests`).
fn target_exists(packages: &[PathBuf], flag: &str, name: &str) -> bool {
    let target_dir = match flag {
        "--bin" => "src/bin",
        "--example" => "examples",
        "--test" => "tests",
        _ => {
            let declares = format!("name = \"{name}\"");
            return packages.iter().any(|package| {
                std::fs::read_to_string(package.join("Cargo.toml"))
                    .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == declares))
            });
        }
    };
    packages.iter().any(|package| {
        let dir = package.join(target_dir);
        dir.join(format!("{name}.rs")).is_file() || dir.join(name).join("main.rs").is_file()
    })
}

/// Check every reference of one doc against the repo at `root`, returning a
/// violation message per broken link, out-of-range anchor or missing target.
pub fn check_doc(root: &Path, doc: &str, text: &str) -> Vec<String> {
    let mut violations = Vec::new();
    let packages = package_dirs(root);
    for reference in extract_refs(text) {
        match reference {
            DocRef::Link { target } => {
                if !root.join(&target).exists() {
                    violations.push(format!("{doc}: broken link to {target}"));
                }
            }
            DocRef::Anchor { path, line } => {
                let full = root.join(&path);
                match std::fs::read_to_string(&full) {
                    Err(_) => {
                        violations.push(format!("{doc}: anchor {path}:{line} — no such file"))
                    }
                    Ok(content) => {
                        let lines = content.lines().count();
                        if line > lines {
                            violations.push(format!(
                                "{doc}: anchor {path}:{line} points past the end ({lines} lines)"
                            ));
                        }
                    }
                }
            }
            DocRef::Target { flag, name } => {
                if !target_exists(&packages, flag, &name) {
                    violations.push(format!("{doc}: `{flag} {name}` names nothing on disk"));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_links_and_skips_external() {
        let refs = extract_refs(
            "See [the roadmap](ROADMAP.md) and [section](ARCHITECTURE.md#eval) but not \
             [the paper](https://example.invalid/p.pdf) or [here](#local).",
        );
        assert_eq!(
            refs,
            vec![
                DocRef::Link {
                    target: "ROADMAP.md".into()
                },
                DocRef::Link {
                    target: "ARCHITECTURE.md".into()
                },
            ]
        );
    }

    #[test]
    fn extracts_anchors_with_ranges_and_rejects_non_anchors() {
        let refs = extract_refs(
            "Pinning happens in `crates/server/src/server.rs:137` and \
             `crates/wire/src/json.rs:89-120`; `cargo test -q` and \
             `127.0.0.1:8080` and `Vec<u64>` are not anchors.",
        );
        assert_eq!(
            refs,
            vec![
                DocRef::Anchor {
                    path: "crates/server/src/server.rs".into(),
                    line: 137
                },
                DocRef::Anchor {
                    path: "crates/wire/src/json.rs".into(),
                    line: 89
                },
            ]
        );
    }

    #[test]
    fn check_doc_flags_missing_and_out_of_range() {
        let dir = std::env::temp_dir().join(format!("dd-docs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("short.rs"), "one\ntwo\n").unwrap();
        let text = "ok `short.rs:2`, bad `short.rs:99`, gone `missing.rs:1`, \
                    [ok](short.rs), [bad](nope.md)";
        let violations = check_doc(&dir, "DOC.md", text);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(violations.len(), 3, "{violations:?}");
        // Links are checked first, then anchors in document order.
        assert!(violations[0].contains("nope.md"));
        assert!(violations[1].contains("short.rs:99"));
        assert!(violations[2].contains("missing.rs:1"));
    }

    #[test]
    fn check_doc_resolves_the_targets_commands_name() {
        let dir = std::env::temp_dir().join(format!("dd-docs-targets-{}", std::process::id()));
        for sub in ["crates/bench/src/bin/reproduce", "examples", "tests"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        let write = |path: &str, content: &str| std::fs::write(dir.join(path), content).unwrap();
        write("Cargo.toml", "[package]\nname = \"umbrella\"\n");
        write(
            "crates/bench/Cargo.toml",
            "[package]\nname = \"dd-bench\"\n",
        );
        write("crates/bench/src/bin/check_docs.rs", "");
        write("crates/bench/src/bin/reproduce/main.rs", "");
        write("examples/quickstart.rs", "");
        write("tests/router.rs", "");
        let text = "```sh\n\
                    cargo run --release -p dd-bench --bin reproduce -- fig9\n\
                    cargo run -p dd-bench --bin check_docs && cargo run --example quickstart\n\
                    cargo test -p umbrella --test router\n\
                    mkdir -p out\n\
                    cargo run -p dd-bench --bin retired_harness -- --smoke\n\
                    cargo test -p dd-gone --test <name>\n\
                    ```\n\
                    Prose too: `--example serving`, and `--test router`.";
        let violations = check_doc(&dir, "DOC.md", text);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(violations.len(), 3, "{violations:?}");
        assert!(violations[0].contains("--bin retired_harness"));
        assert!(violations[1].contains("-p dd-gone"));
        assert!(violations[2].contains("--example serving"));
    }
}
