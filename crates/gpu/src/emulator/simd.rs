//! A label for the host's widest x86-64 vector extension.
//!
//! [`SimdPath::detect`] names what the host supports (`avx512`, `avx2`
//! or `scalar-sse2`) so that timings from differently provisioned hosts
//! can be told apart. It is a label only and selects no code: the
//! emulator's kernels each have one portable batched body, compiled for
//! the baseline target, whose loops the compiler vectorizes across
//! emulated threads (see [`crate::emulator::tiled_dgemm`]).

/// The widest vector extension the host supports, as a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPath {
    /// Neither AVX2 nor AVX-512F (the x86-64 SSE2 baseline, or another
    /// architecture).
    ScalarSse2,
    /// AVX2 without AVX-512F.
    Avx2,
    /// AVX-512F.
    Avx512,
}

impl SimdPath {
    /// The widest extension this host supports, detected at runtime.
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

    /// Stable identifier (`avx512` / `avx2` / `scalar-sse2`), so benchmark
    /// records from different hosts are comparable.
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
    fn labels_are_stable() {
        assert_eq!(SimdPath::Avx512.as_str(), "avx512");
        assert_eq!(SimdPath::Avx2.as_str(), "avx2");
        assert_eq!(SimdPath::ScalarSse2.as_str(), "scalar-sse2");
        assert_eq!(SimdPath::Avx2.to_string(), "avx2");
    }
}
