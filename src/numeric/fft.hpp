#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace rpbcm::numeric {

using cfloat = std::complex<float>;

/// True iff n is a nonzero power of two. BCM block sizes and FFT sizes must
/// satisfy this (Section II-B2 of the paper: "BS should be 2^n").
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// log2 of a power of two; throws CheckError otherwise.
std::size_t log2_exact(std::size_t n);

/// The transform sizes: every power of two from kMinFftSize to kMaxFftSize.
/// The FFTs are compiled once per size (numeric/rfft_codelet.hpp), and
/// BcmLayout accepts exactly these block sizes; the paper's run 4–16.
inline constexpr std::size_t kMinFftSize = 2;
inline constexpr std::size_t kMaxFftSize = 64;

/// True iff n is one of the transform sizes.
constexpr bool is_fft_size(std::size_t n) {
  return is_pow2(n) && n >= kMinFftSize && n <= kMaxFftSize;
}

/// Throws CheckError for a transform size n that is not one of them.
[[noreturn]] void reject_fft_size(std::size_t n);

/// Pre-computed twiddle factors. Mirrors the twiddle ROM the accelerator
/// stores on chip ("essential data for the FFT, such as the twiddle factor,
/// are pre-stored in the ROM", Section IV-A). A ROM built for size n also
/// serves every FFT size dividing n (W_m^k == W_n^{k*(n/m)}), which is how
/// the packed real FFT (numeric/rfft.hpp) runs its n/2-point inner
/// transform off the same ROM the accelerator stores for size n.
class TwiddleRom {
 public:
  /// Builds the ROM for FFT size `n` (power of two).
  explicit TwiddleRom(std::size_t n);

  std::size_t size() const { return n_; }

  /// The n/2 forward twiddles W_n^k = exp(-2*pi*i*k/n), k in [0, n/2),
  /// unchecked: the transforms read them through this one pointer.
  const cfloat* table() const { return w_.data(); }

 private:
  std::size_t n_ = 0;
  std::vector<cfloat> w_;
};

/// Process-wide, thread-safe twiddle-ROM cache: returns the lazily built
/// ROM for size `n` (power of two). References stay valid for the life of
/// the process, so hot paths never construct ROMs per call — the software
/// analogue of the accelerator's one pre-loaded on-chip ROM. Hit/miss
/// counts are exported as rpbcm.numeric.rom_cache.{hits,misses}.
const TwiddleRom& twiddle_rom(std::size_t n);

/// In-place radix-2 Cooley-Tukey FFT of one of the transform sizes
/// (is_fft_size; CheckError otherwise). The inverse transform applies the
/// 1/n scaling (the hardware implements this as a log2(BS)-bit shift,
/// Section IV-B). Twiddles come from the process-wide ROM cache.
void fft_inplace(std::span<cfloat> data, bool inverse = false);

/// Out-of-place complex FFT of a real signal (full n-bin spectrum). For
/// analysis paths only (spectra, singular values); compute paths use the
/// half-spectrum kernels in numeric/rfft.hpp, which do half the butterfly
/// work on real data.
std::vector<cfloat> fft_real(std::span<const float> x);

/// Number of real-MAC-equivalent butterfly operations of a radix-2 FFT of
/// size n: (n/2)*log2(n) butterflies. Used by the FLOPs model and by the
/// FFT PE timing model.
std::size_t fft_butterfly_count(std::size_t n);

}  // namespace rpbcm::numeric
