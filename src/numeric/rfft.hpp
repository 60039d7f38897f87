#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numeric/fft.hpp"

namespace rpbcm::numeric {

/// Half-spectrum (real-FFT) kernels. A real length-n signal has a
/// conjugate-symmetric spectrum, so only n/2+1 bins are non-redundant —
/// the packing the paper's eMAC PE exploits ("BS-size computation consists
/// of only BS/2+1 MAC operations", Section IV-B). The forward transform is
/// the standard packed algorithm: the n real samples are folded into an
/// n/2-point complex FFT (adjacent even/odd samples become real/imaginary
/// parts) followed by an O(n) untangling stage, which halves the butterfly
/// work relative to running a full n-point complex FFT on real data.
///
/// The SoA kernels below are the hot path of the BCM layers: spectra stay
/// as separate re/im float arrays, so the eMAC inner loops are plain float
/// arithmetic with no std::complex marshalling.

/// Number of non-redundant bins of a real length-n signal: n/2+1.
constexpr std::size_t half_bins(std::size_t n) { return n / 2 + 1; }

/// Packed real FFT, SoA out: transforms the n = rom.size() real samples at
/// `x` into the n/2+1 half-spectrum bins at (re, im), for n one of the
/// transform sizes (is_fft_size; CheckError otherwise). im[0] and im[n/2]
/// are exactly zero (DC and Nyquist bins of a real signal are real). Runs
/// the size-n codelet (numeric/rfft_codelet.hpp); on NaN/Inf inputs only
/// some non-finite output is promised (docs/simd.md).
void rfft_soa(const float* x, float* re, float* im, const TwiddleRom& rom);

/// Hermitian inverse of rfft_soa: reconstructs the n = rom.size() real
/// samples at `x` from the n/2+1 half-spectrum bins at (re, im). Conjugate
/// symmetry of the implied full spectrum is assumed, so a Hermitian
/// accumulation (any product/sum of real-signal spectra) inverts exactly.
/// im[0] and im[n/2] are not read.
void irfft_soa(const float* re, const float* im, float* x,
               const TwiddleRom& rom);

/// Real FFT returning only the n/2+1 non-redundant bins; the remaining
/// bins are the conjugate mirror (convenience AoS wrapper of rfft_soa).
std::vector<cfloat> rfft(std::span<const float> x);

/// Inverse of rfft: reconstructs the length-n real signal from the n/2+1
/// half-spectrum (conjugate symmetry is assumed).
std::vector<float> irfft(std::span<const cfloat> half, std::size_t n);

}  // namespace rpbcm::numeric
