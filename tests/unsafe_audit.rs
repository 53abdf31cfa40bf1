//! Unsafe-code audit: every `unsafe` site in the workspace's own code must
//! carry its proof obligation next to it.
//!
//! The rule this test enforces (over `crates/` and `vendor/crossbeam-epoch/`):
//!
//! * an `unsafe {` block must have a `// SAFETY:` comment on the same line
//!   or within the few lines directly above it,
//! * an `unsafe fn` must document its contract — a `/// # Safety` doc
//!   section on the declaration (or an adjacent `// SAFETY:` comment for
//!   private helpers),
//! * an `unsafe impl` must justify itself with an adjacent `// SAFETY:`
//!   comment.
//!
//! On top of that, `crates/skiphash/src`, `crates/stm/src` and
//! `vendor/crossbeam-epoch` each have a **ceiling** on how many sites they
//! may hold at all ([`SITE_CEILINGS`]): the skip hash's borrowed-handle
//! dereferences live in the traversal module and the hash-chain walk, the
//! STM's raw blocks in one recycler, the epoch crate's in its one
//! retirement path, and a copy of any of them made elsewhere would bring
//! its own.
//!
//! This is a lexical scan, not a parser: it reads lines, skips comments and
//! doc text, and looks a bounded window upward for the justification.  That
//! is deliberate — the point is a cheap, dependency-free tripwire that makes
//! "add the SAFETY comment" part of adding the unsafe block, with the deep
//! checking left to Miri/TSan/the model checker (see docs/VERIFICATION.md).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How far above an `unsafe` site a justification may sit (comment lines,
/// attributes, and doc lines in between do not break adjacency).
const WINDOW: usize = 12;

/// The number of `unsafe` sites under a source directory (unit tests
/// included), as this scan counts them, and where a new one belongs instead.
/// Lower a ceiling when a site goes away; raising it needs the argument for
/// why the new site cannot live behind the modules that hold the existing
/// ones.
const SITE_CEILINGS: [(&str, usize, &str); 3] = [
    (
        "crates/skiphash/src",
        35,
        "a skip-list traversal belongs in traverse.rs, a hash-chain walk in hashmap.rs, \
         a block layout in node.rs; 33 since links stopped counting: a node is freed \
         once, by the owner node.rs names, and no handle is upgraded to a counted one; \
         34 since a full pinned scan walks segments with interleaved cursors, each of \
         which dereferences its own handles, in traverse.rs; 35 since every range walks \
         them and a segment stages its handles untyped, in a buffer its thread reuses, \
         dereferenced again when the segment is flushed, in traverse.rs",
    ),
    (
        "crates/stm/src",
        84,
        "raw blocks belong in arena.rs, typed payload glue in slab.rs and tcell.rs; \
         84 since memory from the system comes through arena.rs alone: its huge-page \
         advice is a foreign call, and the bucket table is an arena `Table` (its element \
         writes, slice, drop, `Send` and `Sync`) so that no other crate holds a raw table",
    ),
    (
        "vendor/crossbeam-epoch",
        19,
        "a retirement is a word plus its glue, handed to `defer_with` or a `Bag`; \
         the collector is the only code that runs the glue",
    ),
];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR of the umbrella crate *is* the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip line comments and (non-doc) string contents so `unsafe` inside a
/// message or a comment does not count as a site, while `// SAFETY:` text is
/// still recognizable on the raw line.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_comment_or_doc(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")
}

fn has_safety_marker(line: &str) -> bool {
    let t = line.trim_start();
    t.contains("// SAFETY:") || t.contains("//! SAFETY:")
}

fn has_safety_doc(line: &str) -> bool {
    let t = line.trim_start();
    (t.starts_with("///") || t.starts_with("//!")) && t.contains("# Safety")
}

/// True when `idx` has a justification in its adjacency window: same line,
/// or up to `WINDOW` lines above consisting only of comments / attributes /
/// doc text, at least one of which carries the marker.
fn justified(lines: &[&str], idx: usize, allow_safety_doc: bool) -> bool {
    if has_safety_marker(lines[idx]) {
        return true;
    }
    let mut steps = 0;
    let mut i = idx;
    while i > 0 && steps < WINDOW {
        i -= 1;
        steps += 1;
        let line = lines[i];
        if has_safety_marker(line) || (allow_safety_doc && has_safety_doc(line)) {
            return true;
        }
        // A code line breaks adjacency — unless it is itself part of the
        // same contiguous unsafe cluster (multi-line conditions chaining
        // several `unsafe` operand lines under one comment).
        if !is_comment_or_doc(line)
            && !line.trim().is_empty()
            && !code_part(line).contains("unsafe")
        {
            return false;
        }
    }
    false
}

#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    kind: &'static str,
    text: String,
}

/// Audit one file; returns how many `unsafe` sites it holds.
fn audit_file(path: &Path, violations: &mut Vec<Violation>) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("unreadable source file {}: {e}", path.display()));
    let lines: Vec<&str> = text.lines().collect();
    let mut sites = 0;
    for (idx, raw) in lines.iter().enumerate() {
        if is_comment_or_doc(raw) {
            continue;
        }
        let code = code_part(raw);
        if !code.contains("unsafe") {
            continue;
        }
        // Classify the site.  `unsafe_op_in_unsafe_fn`-style lint names and
        // `forbid(unsafe_code)` never reach here (attribute lines are
        // skipped above; lint names don't contain the bare token with a
        // following brace/keyword).
        let (kind, allow_safety_doc) = if let Some(at) = code.find("unsafe fn") {
            // `unsafe fn` in *type* position (`: unsafe fn(..)`,
            // `-> unsafe fn(..)`) declares no body and carries no proof
            // obligation of its own; only definitions do.
            let before = code[..at].trim_end();
            if before.ends_with([':', '>', '(', ',', '=']) {
                continue;
            }
            ("unsafe fn", true)
        } else if code.contains("unsafe impl") || code.contains("unsafe trait") {
            ("unsafe impl", false)
        } else if code.contains("unsafe {") || code.contains("unsafe{") {
            ("unsafe block", false)
        } else {
            continue; // e.g. `unsafe` in a string literal split across tokens
        };
        sites += 1;
        if !justified(&lines, idx, allow_safety_doc) {
            violations.push(Violation {
                file: path.to_path_buf(),
                line: idx + 1,
                kind,
                text: raw.trim().to_string(),
            });
        }
    }
    sites
}

#[test]
fn every_unsafe_site_carries_its_proof() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    rust_sources(&root.join("vendor").join("crossbeam-epoch"), &mut files);
    files.sort();
    assert!(
        !files.is_empty(),
        "audit found no sources — is the test running from the workspace root?"
    );

    let mut sites_under = [0; SITE_CEILINGS.len()];
    let mut violations = Vec::new();
    for file in &files {
        let sites = audit_file(file, &mut violations);
        for (total, (dir, _, _)) in sites_under.iter_mut().zip(SITE_CEILINGS) {
            if file.starts_with(root.join(dir)) {
                *total += sites;
            }
        }
    }
    for (sites, (dir, ceiling, instead)) in sites_under.into_iter().zip(SITE_CEILINGS) {
        assert!(
            sites <= ceiling,
            "{dir} holds {sites} unsafe sites, over its ceiling of {ceiling}: {instead} \
             (see SITE_CEILINGS)"
        );
    }

    if !violations.is_empty() {
        let mut msg = format!(
            "{} unsafe site(s) without an adjacent justification \
             (`// SAFETY:` comment, or `# Safety` doc section for unsafe fns):\n",
            violations.len()
        );
        for v in &violations {
            let rel = v.file.strip_prefix(&root).unwrap_or(&v.file);
            let _ = writeln!(
                msg,
                "  {}:{} [{}] {}",
                rel.display(),
                v.line,
                v.kind,
                v.text
            );
        }
        panic!("{msg}");
    }
}
