//! Workspace-wide `unsafe` hygiene audit.
//!
//! Scans every crate under `crates/*/src` and enforces the repo's
//! discipline around the `unsafe` keyword:
//!
//! * every `unsafe {` block and `unsafe impl` carries a `// SAFETY:`
//!   comment on the same line or within the few lines above it,
//!   discharging the obligation at the site;
//! * every `unsafe fn` declaration either documents its contract with a
//!   `# Safety` doc section or is a `#[target_feature]` instantiation
//!   (where the only obligation — ISA availability — is discharged with
//!   a `SAFETY` comment at the dispatch call);
//! * every crate containing `unsafe` code opts into
//!   `#![deny(unsafe_op_in_unsafe_fn)]` in its `lib.rs`, so an unsafe
//!   fn's body cannot silently absorb new unsafe operations without a
//!   visible (and auditable) inner `unsafe` block;
//! * every crate with no `unsafe` site carries `#![forbid(unsafe_code)]`
//!   in its `lib.rs`, so the compiler keeps it that way and this
//!   syntactic audit only has to police the crates that opted in.
//!
//! The audit is syntactic by design — cheap, dependency-free, and run as
//! a tier-1 test so a new undocumented `unsafe` fails CI, not review.

use std::path::{Path, PathBuf};

/// How far above an `unsafe` site a `SAFETY` comment may sit.
const SAFETY_WINDOW: usize = 8;
/// How far above an `unsafe fn` its `# Safety` doc or `target_feature`
/// attribute may sit (doc sections are longer than site comments).
const FN_WINDOW: usize = 14;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The code portion of a line: empty for pure comment lines, otherwise
/// the text before any trailing `//` comment. (Naive about `//` inside
/// string literals, which the audited sources do not produce in
/// `unsafe`-bearing lines.)
fn code_part(line: &str) -> &str {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does any of `lines[lo..=at]` mention a safety discharge?
fn window_has(lines: &[&str], at: usize, window: usize, needles: &[&str]) -> bool {
    let lo = at.saturating_sub(window);
    lines[lo..=at].iter().any(|l| needles.iter().any(|n| l.contains(n)))
}

#[test]
fn every_unsafe_site_is_documented_and_linted() {
    let crates_dir = workspace_root().join("crates");
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).expect("read crates/") {
        let krate = entry.expect("dir entry").path();
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        files.sort();
        let mut crate_has_unsafe = false;
        for file in &files {
            let text = std::fs::read_to_string(file).expect("read source file");
            let lines: Vec<&str> = text.lines().collect();
            let rel = file.strip_prefix(&crates_dir).unwrap_or(file).display().to_string();
            for (i, line) in lines.iter().enumerate() {
                let code = code_part(line);
                if !code.contains("unsafe") {
                    continue;
                }
                let site = code.contains("unsafe {")
                    || code.contains("unsafe{")
                    || code.contains("unsafe impl");
                let decl = code.contains("unsafe fn");
                if site {
                    crate_has_unsafe = true;
                    if !window_has(&lines, i, SAFETY_WINDOW, &["SAFETY"]) {
                        violations.push(format!(
                            "{rel}:{}: `unsafe` block/impl without a SAFETY comment \
                             within {SAFETY_WINDOW} lines",
                            i + 1
                        ));
                    }
                }
                if decl {
                    crate_has_unsafe = true;
                    if !window_has(
                        &lines,
                        i,
                        FN_WINDOW,
                        &["# Safety", "#[target_feature", "SAFETY"],
                    ) {
                        violations.push(format!(
                            "{rel}:{}: `unsafe fn` without a `# Safety` doc section or \
                             `#[target_feature]` attribute within {FN_WINDOW} lines",
                            i + 1
                        ));
                    }
                }
            }
        }
        let lib_text = std::fs::read_to_string(src.join("lib.rs")).expect("read lib.rs");
        let name = krate.file_name().unwrap().to_string_lossy().into_owned();
        if crate_has_unsafe && !lib_text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
            violations.push(format!(
                "{name}: contains `unsafe` code but lib.rs lacks #![deny(unsafe_op_in_unsafe_fn)]"
            ));
        }
        if !crate_has_unsafe && !lib_text.contains("#![forbid(unsafe_code)]") {
            violations.push(format!(
                "{name}: has no `unsafe` site but lib.rs lacks #![forbid(unsafe_code)]"
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "unsafe hygiene violations:\n  {}",
        violations.join("\n  ")
    );
}
