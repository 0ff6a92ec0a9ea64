//! Keeps the public surface free of dead items.
//!
//! Every `pub fn` and `pub mod` under `crates/*/src` must be named in at
//! least one *other* production file: `crates/*/src` (binaries included),
//! `src/`, `examples/` or `crowdbench/src`. An item that is not is dead
//! surface. It is deleted, made private, or listed with a reason in
//! `tests/public_surface.allow`. The test fails by name on a dead item
//! that the allowlist does not name, and on an allowlist entry that now
//! has a caller or no longer exists.
//!
//! The scan is name-based, not a resolver:
//! - A caller is any word match of the item's name outside comments and
//!   `#[cfg(test)]` items. String literals count.
//! - `use` statements do not count for a `pub fn`: a re-export or an
//!   import is not a call. They do count for a `pub mod`, because module
//!   paths are mostly named in `use` statements.
//! - Names are not qualified by type or crate. Two items that share a
//!   name (`new`, `len`, `get`) keep each other alive, so a dead item
//!   whose name collides with a live one is not found.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// One line of a source file after comments are removed.
#[derive(Default)]
struct Line {
    code: String,
    opens: usize,
    closes: usize,
}

/// Splits `src` into lines with comments removed. Braces are counted
/// outside string and character literals.
fn lex(src: &str) -> Vec<Line> {
    enum State {
        Code,
        Str,
        Raw(usize),
        Block(usize),
    }
    let chars: Vec<char> = src.chars().collect();
    let at = |i: usize| chars.get(i).copied().unwrap_or('\0');
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let prev = if i == 0 { ' ' } else { chars[i - 1] };
                if c == '/' && at(i + 1) == '/' {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && at(i + 1) == '*' {
                    state = State::Block(1);
                    i += 2;
                    continue;
                }
                if c == 'r' && !prev.is_alphanumeric() && prev != '_' || c == 'r' && prev == 'b' {
                    let mut j = i + 1;
                    while at(j) == '#' {
                        j += 1;
                    }
                    if at(j) == '"' {
                        line.code.extend(&chars[i..=j]);
                        state = State::Raw(j - i - 1);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    state = State::Str;
                } else if c == '\'' {
                    let end = if at(i + 1) == '\\' {
                        (i + 2..chars.len()).find(|&j| chars[j] == '\'')
                    } else if at(i + 2) == '\'' {
                        Some(i + 2)
                    } else {
                        None
                    };
                    if let Some(end) = end {
                        line.code.extend(&chars[i..=end]);
                        i = end + 1;
                        continue;
                    }
                } else if c == '{' {
                    line.opens += 1;
                } else if c == '}' {
                    line.closes += 1;
                }
                line.code.push(c);
                i += 1;
            }
            State::Str => {
                line.code.push(c);
                if c == '\\' && at(i + 1) != '\n' {
                    line.code.push(at(i + 1));
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                }
                i += 1;
            }
            State::Raw(hashes) => {
                line.code.push(c);
                i += 1;
                if c == '"' && (0..hashes).all(|k| at(i + k) == '#') {
                    line.code.extend(&chars[i..i + hashes]);
                    i += hashes;
                    state = State::Code;
                }
            }
            State::Block(depth) => {
                if c == '*' && at(i + 1) == '/' {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && at(i + 1) == '*' {
                    state = State::Block(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
    }
    lines.push(line);
    lines
}

/// A production file reduced to what the scan reads.
#[derive(Default)]
struct Scanned {
    /// `(kind, name)` of each `pub fn` / `pub mod` declared in the file.
    items: Vec<(&'static str, String)>,
    /// Lines outside `use` statements.
    code: Vec<String>,
    /// Lines of `use` statements.
    uses: Vec<String>,
}

/// Reads one file, dropping comments and `#[cfg(test)]` items.
fn scan_file(src: &str) -> Scanned {
    let mut out = Scanned::default();
    let mut cfg_test = false;
    // Inside a `#[cfg(test)]` item: brace depth, and whether its body opened.
    let mut skipping: Option<(usize, bool)> = None;
    let mut in_use = false;
    for line in lex(src) {
        let t = line.code.trim();
        if cfg_test && !t.is_empty() && !t.starts_with("#[") {
            cfg_test = false;
            skipping = Some((0, false));
        }
        if let Some((depth, opened)) = skipping.as_mut() {
            *depth = (*depth + line.opens).saturating_sub(line.closes);
            *opened |= line.opens > 0;
            if (*opened && *depth == 0) || (!*opened && t.ends_with(';')) {
                skipping = None;
            }
            continue;
        }
        if t.starts_with("#[cfg(test)]") {
            cfg_test = true;
            continue;
        }
        let starts_use = ["use ", "pub use ", "pub(crate) use ", "pub(super) use "]
            .iter()
            .any(|p| t.starts_with(p));
        if starts_use || in_use {
            in_use = !t.ends_with(';');
            out.uses.push(t.to_string());
            continue;
        }
        for (prefix, kind) in [("pub fn ", "fn"), ("pub mod ", "mod")] {
            if let Some(rest) = t.strip_prefix(prefix) {
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                out.items.push((kind, name));
            }
        }
        out.code.push(t.to_string());
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `"<file> <fn|mod> <name>"` for every dead public item.
fn dead_items(root: &Path) -> BTreeSet<String> {
    let mut files = Vec::new();
    for dir in fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&dir.unwrap().path().join("src"), &mut files);
    }
    for dir in ["src", "examples", "crowdbench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut scanned = Vec::new();
    // word -> files that name it outside `use`, and in `use` statements.
    let mut in_code: HashMap<String, BTreeSet<usize>> = HashMap::new();
    let mut in_uses: HashMap<String, BTreeSet<usize>> = HashMap::new();
    for (f, path) in files.iter().enumerate() {
        let s = scan_file(&fs::read_to_string(path).unwrap());
        for (lines, index) in [(&s.code, &mut in_code), (&s.uses, &mut in_uses)] {
            for w in lines.iter().flat_map(|l| words(l)) {
                index.entry(w.to_string()).or_default().insert(f);
            }
        }
        scanned.push(s);
    }
    let named_elsewhere = |index: &HashMap<String, BTreeSet<usize>>, name: &str, f: usize| {
        index.get(name).is_some_and(|fs| fs.iter().any(|&g| g != f))
    };
    let mut dead = BTreeSet::new();
    for (f, s) in scanned.iter().enumerate() {
        let rel = files[f].strip_prefix(root).unwrap().to_string_lossy();
        if !rel.starts_with("crates/") {
            continue;
        }
        for (kind, name) in &s.items {
            let called = named_elsewhere(&in_code, name, f)
                || (*kind == "mod" && named_elsewhere(&in_uses, name, f));
            if !called {
                dead.insert(format!("{rel} {kind} {name}"));
            }
        }
    }
    dead
}

#[test]
fn every_public_item_has_a_production_caller_or_an_allowlist_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dead = dead_items(root);
    let allow_text = fs::read_to_string(root.join("tests/public_surface.allow")).unwrap();
    let mut allowed = BTreeMap::new();
    for line in allow_text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.splitn(4, ' ').collect();
        assert!(
            fields.len() == 4 && !fields[3].trim().is_empty(),
            "allowlist entry without a reason: `{line}`"
        );
        let key = fields[..3].join(" ");
        assert!(
            allowed.insert(key, fields[3]).is_none(),
            "duplicate allowlist entry: `{line}`"
        );
    }
    let mut problems = Vec::new();
    for item in &dead {
        if !allowed.contains_key(item) {
            problems.push(format!(
                "dead public item `{item}`: no other production file names it; \
                 delete it, make it private, or allowlist it with a reason"
            ));
        }
    }
    for item in allowed.keys() {
        if !dead.contains(item) {
            problems.push(format!(
                "stale allowlist entry `{item}`: it has a production caller or no longer exists"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}
