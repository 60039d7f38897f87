#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace rpbcm::numeric {

using cfloat = std::complex<float>;

/// True iff n is a nonzero power of two. BCM block sizes and FFT sizes must
/// satisfy this (Section II-B2 of the paper: "BS should be 2^n").
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// log2 of a power of two; throws CheckError otherwise.
std::size_t log2_exact(std::size_t n);

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

  /// Forward twiddle W_n^k = exp(-2*pi*i*k/n), k in [0, n/2).
  cfloat forward(std::size_t k) const;

  /// Inverse twiddle conj(W_n^k).
  cfloat inverse(std::size_t k) const;

  std::size_t size() const { return n_; }

  /// The rom_words() forward twiddles W_n^0 .. W_n^{n/2-1}, unchecked: the
  /// transform kernels read them through this one pointer after checking
  /// their sizes once per call.
  const cfloat* table() const { return w_.data(); }

  /// Number of complex words stored (n/2) — used by the BRAM model.
  std::size_t rom_words() const { return w_.size(); }

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

/// Bit-reversal permutation of a power-of-two-length sequence, in place:
/// the load order of the radix-2 transforms (fft_inplace and the Q7.8 FFT
/// PE, hw::FftPe).
template <class T>
void bit_reverse_permute(std::span<T> data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

/// In-place iterative radix-2 Cooley-Tukey FFT. `data.size()` must be a
/// power of two. The inverse transform applies the 1/n scaling (the hardware
/// implements this as a log2(BS)-bit shift, Section IV-B). Twiddles come
/// from the process-wide ROM cache.
void fft_inplace(std::span<cfloat> data, bool inverse = false);

/// Same, reusing a caller-owned twiddle ROM (avoids per-call sin/cos).
/// `rom.size()` must be a power-of-two multiple of `data.size()`: a larger
/// ROM is indexed at a coarser stride, so one ROM serves all smaller sizes.
void fft_inplace(std::span<cfloat> data, const TwiddleRom& rom,
                 bool inverse = false);

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
