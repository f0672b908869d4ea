//! Structured results of static analysis: findings, fallbacks, reports.
//!
//! Static diagnostics reuse the dynamic sanitizer's [`Checker`] taxonomy
//! so a static finding and the dynamic finding for the same bug carry
//! the same checker / phase / buffer attribution — the fixture-parity
//! gate compares exactly those three fields.

use enprop_sanitize::report::{AccessKind, Checker, MemSpace};
use serde::Serialize;
use std::fmt;

/// One statically-derived diagnostic.
///
/// Unlike the dynamic sanitizer's findings (which name the concrete
/// access that tripped a checker), a static finding names a *witness*
/// derived from the affine summaries: concrete thread/cell coordinates
/// that realize the proven hazard.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StaticFinding {
    /// The checker taxonomy entry this finding maps to.
    pub checker: Checker,
    /// Phase attribution (the first phase the offending summary occupies).
    pub phase: Option<usize>,
    /// Memory space of the offending access.
    pub space: Option<MemSpace>,
    /// Registered buffer name (global memory only).
    pub buffer: Option<String>,
    /// Canonical one-line rendering.
    pub message: String,
}

impl fmt::Display for StaticFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Why a summary could not be proven — the typed reasons the analyzer
/// falls back to dynamic sanitizing instead of claiming a proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FallbackKind {
    /// The recorded accesses do not fit an affine form (e.g. the FFT's
    /// bit-reversed indexing), or fit one that later probes refute.
    NonAffine,
    /// The accesses are affine but outside the fragment the analytic
    /// checks can decide (e.g. occurrence-varying shared addresses).
    Unsupported,
    /// The affine forms' addresses, or the solver's intermediate values,
    /// leave the `i64` range the checks compute in.
    Overflow,
}

impl FallbackKind {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackKind::NonAffine => "non-affine",
            FallbackKind::Unsupported => "unsupported",
            FallbackKind::Overflow => "overflow",
        }
    }
}

/// A typed fallback: the launch (or one summary of it) must be checked
/// dynamically because static analysis cannot decide it.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fallback {
    /// Why the analyzer gave up.
    pub kind: FallbackKind,
    /// Phase attribution when known.
    pub phase: Option<usize>,
    /// Memory space when known.
    pub space: Option<MemSpace>,
    /// Buffer name when known.
    pub buffer: Option<String>,
    /// Human-readable explanation.
    pub detail: String,
}

impl Fallback {
    /// A fallback with full attribution.
    pub fn new(
        kind: FallbackKind,
        phase: Option<usize>,
        space: Option<MemSpace>,
        buffer: Option<&str>,
        detail: String,
    ) -> Self {
        Fallback { kind, phase, space, buffer: buffer.map(str::to_owned), detail }
    }

    /// A launch-level fallback (no phase/space attribution).
    pub fn launch(kind: FallbackKind, detail: String) -> Self {
        Fallback { kind, phase: None, space: None, buffer: None, detail }
    }
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "static fallback ({}): {}", self.kind.as_str(), self.detail)
    }
}

/// Static analysis result for one launch (or one lattice entry).
#[derive(Debug, Clone, Default, Serialize)]
pub struct StaticReport {
    /// What was analyzed (kernel label or config rendering).
    pub label: String,
    /// Proven hazards.
    pub findings: Vec<StaticFinding>,
    /// Summaries that must fall back to dynamic sanitizing.
    pub fallbacks: Vec<Fallback>,
}

impl StaticReport {
    /// An empty report for `label`.
    pub fn new(label: impl Into<String>) -> Self {
        StaticReport { label: label.into(), findings: Vec::new(), fallbacks: Vec::new() }
    }

    /// `true` when the launch is *proven* clean: no findings and nothing
    /// left undecided.
    pub fn proven_clean(&self) -> bool {
        self.findings.is_empty() && self.fallbacks.is_empty()
    }
}

/// `"write-write"` when both access kinds store, `"read-write"` otherwise.
pub(crate) fn hazard_label(a: AccessKind, b: AccessKind) -> &'static str {
    if a == AccessKind::Write && b == AccessKind::Write {
        "write-write"
    } else {
        "read-write"
    }
}
