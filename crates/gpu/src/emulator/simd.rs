//! Runtime SIMD dispatch for the tiled DGEMM's batched phase bodies.
//!
//! The batched SoA phase bodies of [`crate::emulator::EmuDgemm`] exist in
//! three explicit tiers — AVX-512, AVX2, and the portable scalar loop
//! (which on x86-64 compiles against the SSE2 baseline). The tier is
//! chosen **once, at kernel construction**, with
//! `is_x86_feature_detected!`, and carried as plain data ([`SimdPath`])
//! rather than global state, so equivalence tests can pin any
//! *supported* tier explicitly and run paths side-by-side without races.
//!
//! The row FFT ([`crate::emulator::EmuRowFft`]) has only the portable
//! body: computing the twiddle factors dominates its stages, so vector
//! bodies were slower at n ≤ 32 and won only at n ≥ 128, where FFT
//! launches are a negligible share of a sanitize sweep (DESIGN.md).
//!
//! # Bitwise-identity contract
//!
//! Every tier must produce bit-identical `f64` results and identical
//! flushed event-counter totals. This holds by construction, not by
//! tolerance:
//!
//! - vector lanes map across *threads* (or across butterflies), never
//!   across one thread's sequential accumulation chain, so each emulated
//!   thread performs its floating-point operations in exactly the scalar
//!   program order;
//! - the vector bodies use separate multiply and add instructions, never
//!   FMA — the scalar interpreter rounds after each operation, and a
//!   fused multiply-add would skip the intermediate rounding;
//! - rustc does not reassociate or contract floating-point expressions,
//!   so the scalar fallback is itself a faithful oracle.
//!
//! `SimdPath::pin` clamps a requested tier to what the host supports:
//! pinning *down* (forced fallback) is always honoured, pinning up to an
//! unsupported tier silently degrades instead of hitting illegal
//! instructions.

/// The instruction-set tier a kernel's batched phase bodies run on.
///
/// Ordered by capability: `ScalarSse2 < Avx2 < Avx512`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdPath {
    /// Portable scalar bodies (the x86-64 SSE2 baseline); the
    /// always-available fallback and bitwise-equivalence oracle.
    ScalarSse2,
    /// 256-bit `core::arch` bodies (4 × f64 lanes).
    Avx2,
    /// 512-bit `core::arch` bodies (8 × f64 lanes).
    Avx512,
}

impl SimdPath {
    /// The widest tier this host can execute, detected at runtime.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdPath::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdPath::Avx2;
            }
        }
        SimdPath::ScalarSse2
    }

    /// Clamps a requested tier to host support: the forced-fallback tests
    /// pin down freely, while a pin *above* the host's capability quietly
    /// degrades to the widest executable tier.
    pub fn pin(self) -> Self {
        self.min(Self::detect())
    }

    /// Every tier this host can execute, narrowest first. The
    /// forced-fallback equivalence suite iterates this.
    pub fn available() -> Vec<Self> {
        let widest = Self::detect();
        [SimdPath::ScalarSse2, SimdPath::Avx2, SimdPath::Avx512]
            .into_iter()
            .filter(|p| *p <= widest)
            .collect()
    }

    /// Stable identifier for bench-json (`avx512` / `avx2` /
    /// `scalar-sse2`), so BENCH files from different hosts are comparable.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdPath::Avx512 => "avx512",
            SimdPath::Avx2 => "avx2",
            SimdPath::ScalarSse2 => "scalar-sse2",
        }
    }
}

impl std::fmt::Display for SimdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_are_ordered_by_capability() {
        assert!(SimdPath::ScalarSse2 < SimdPath::Avx2);
        assert!(SimdPath::Avx2 < SimdPath::Avx512);
    }

    #[test]
    fn pin_never_exceeds_detection() {
        for p in [SimdPath::ScalarSse2, SimdPath::Avx2, SimdPath::Avx512] {
            assert!(p.pin() <= SimdPath::detect());
        }
        assert_eq!(SimdPath::ScalarSse2.pin(), SimdPath::ScalarSse2);
    }

    #[test]
    fn available_starts_scalar_and_ends_at_detection() {
        let avail = SimdPath::available();
        assert_eq!(avail.first(), Some(&SimdPath::ScalarSse2));
        assert_eq!(avail.last(), Some(&SimdPath::detect()));
        assert!(avail.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SimdPath::Avx512.as_str(), "avx512");
        assert_eq!(SimdPath::Avx2.as_str(), "avx2");
        assert_eq!(SimdPath::ScalarSse2.as_str(), "scalar-sse2");
        assert_eq!(SimdPath::Avx2.to_string(), "avx2");
    }
}
