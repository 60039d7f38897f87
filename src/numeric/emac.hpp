#pragma once

#include <cstddef>

namespace rpbcm::numeric::emac {

/// The process-wide SIMD dispatch choice of the C_emac datapath — the
/// FFT→eMAC→IFFT pipeline's pixel-lane kernels (core/conv_lanes.hpp, and
/// the dense nn/conv2d_lanes.hpp) — plus its bin counter.
///
/// Each lane-kernel family is compiled twice, portable and AVX2 (-mavx2
/// -mfma -ffp-contract=off, only with RPBCM_SIMD=ON on x86-64), and picks
/// the copy by active_path(). Both copies are bitwise identical, to the
/// committed golden vectors and across thread counts (docs/simd.md has
/// the determinism argument).

/// Which kernel copy the process dispatched to.
enum class Path { kScalar, kAvx2 };

/// "scalar" / "avx2" — the value exported on rpbcm.numeric.emac.dispatch.
const char* path_name(Path p);

/// True when this CPU reports AVX2 and FMA (false on non-x86 builds).
bool avx2_supported();

/// True when the AVX2 kernel copies were compiled into this binary
/// (RPBCM_SIMD=ON on an x86-64 target — see src/numeric/CMakeLists.txt).
bool avx2_compiled();

/// The path resolved on first use: AVX2 iff compiled in AND supported by
/// the CPU, overridable with RPBCM_SIMD=off|avx2. Sticky for the process
/// lifetime, so concurrent callers always agree.
Path active_path();

/// Adds `bins` to the rpbcm.numeric.emac.bins counter. Call once per
/// parallel chunk with the chunk's accumulated bin count — not per block —
/// to keep the counter atomics off the innermost loop.
void note_bins(std::size_t bins);

}  // namespace rpbcm::numeric::emac
