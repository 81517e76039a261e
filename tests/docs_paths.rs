//! The living docs name only things that exist: every `results/<file>`,
//! `crates/<...>.rs` and `--bin <name>` they mention resolves in the
//! tree. CHANGES.md and ROADMAP.md are history and exempt.

use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(repo-relative name, text)` of every scanned doc.
fn docs() -> Vec<(String, String)> {
    let mut names: Vec<String> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "results/README.md", "crates/bench/README.md"]
            .map(String::from)
            .to_vec();
    for entry in std::fs::read_dir(root().join("docs")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".md") {
            names.push(format!("docs/{name}"));
        }
    }
    names
        .into_iter()
        .map(|name| {
            let text = std::fs::read_to_string(root().join(&name)).unwrap();
            (name, text)
        })
        .collect()
}

/// `(doc:line, path)` for every path-shaped token of every doc that
/// `as_path(doc, token)` maps to a repo-relative path.
fn path_mentions(as_path: impl Fn(&str, &str) -> Option<String>) -> Vec<(String, String)> {
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_-./*".contains(c);
    let mut mentions = Vec::new();
    for (doc, text) in docs() {
        for (i, line) in text.lines().enumerate() {
            for token in line.split(|c| !is_path_char(c)) {
                if let Some(path) = as_path(&doc, token.trim_end_matches('.')) {
                    mentions.push((format!("{doc}:{}", i + 1), path));
                }
            }
        }
    }
    mentions
}

/// Asserts every `(where, repo-relative path)` mention resolves, and that
/// the scan still finds mentions at all.
fn assert_all_exist(mentions: &[(String, String)], at_least: usize) {
    assert!(
        mentions.len() >= at_least,
        "the scan found only {} mentions; is it still matching?",
        mentions.len()
    );
    let missing: Vec<String> = mentions
        .iter()
        .filter(|(_, path)| !root().join(path).exists())
        .map(|(at, path)| format!("{at}: {path}"))
        .collect();
    assert!(missing.is_empty(), "docs name things that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn results_files_named_in_docs_exist() {
    let mentions = path_mentions(|doc, token| {
        if token.starts_with("results/") {
            Some(token.to_string())
        } else if doc == "results/README.md" && token.ends_with(".txt") {
            // results/README.md lists its own directory by bare name.
            Some(format!("results/{token}"))
        } else {
            None
        }
    });
    assert_all_exist(&mentions, 20);
}

#[test]
fn crate_sources_named_in_docs_exist() {
    let mentions = path_mentions(|_, token| {
        (token.starts_with("crates/") && token.ends_with(".rs")).then(|| token.to_string())
    });
    assert_all_exist(&mentions, 5);
}

#[test]
fn binaries_named_in_docs_exist() {
    let mut mentions = Vec::new();
    for (doc, text) in docs() {
        // Over the whole text, not per line: a wrapped paragraph may break
        // between `--bin` and the name.
        let mut words = text.split_whitespace();
        while let Some(word) = words.next() {
            if !word.ends_with("--bin") {
                continue;
            }
            let name: String = words
                .next()
                .unwrap_or("")
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let source = match name.as_str() {
                "" => continue, // a placeholder such as `--bin <name>`
                "scc" => "src/bin/scc.rs".to_string(),
                _ => format!("crates/bench/src/bin/{name}.rs"),
            };
            mentions.push((format!("{doc}: --bin {name}"), source));
        }
    }
    assert_all_exist(&mentions, 20);
}
