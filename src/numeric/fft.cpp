#include "numeric/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <numbers>

#include "base/check.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/macros.hpp"

namespace rpbcm::numeric {

namespace {

/// Process-wide twiddle-ROM cache (one lazily built ROM per FFT size).
/// The map is the only guarded state: a TwiddleRom is immutable after
/// construction, so handing out references outside the lock is safe.
struct RomCache {
  base::Mutex mu;
  std::map<std::size_t, std::unique_ptr<TwiddleRom>> roms
      RPBCM_GUARDED_BY(mu);
};

RomCache& rom_cache() {
  static RomCache* cache = new RomCache();  // leaked: outlives all users
  return *cache;
}

}  // namespace

std::size_t log2_exact(std::size_t n) {
  RPBCM_CHECK_MSG(is_pow2(n), "log2_exact requires a power of two, got " << n);
  std::size_t l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

TwiddleRom::TwiddleRom(std::size_t n) : n_(n) {
  RPBCM_CHECK_MSG(is_pow2(n), "FFT size must be a power of two, got " << n);
  w_.resize(n / 2);
  for (std::size_t k = 0; k < w_.size(); ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(n);
    w_[k] = cfloat(static_cast<float>(std::cos(ang)),
                   static_cast<float>(std::sin(ang)));
  }
  if (n == 1) w_.assign(1, cfloat(1.0F, 0.0F));
}

cfloat TwiddleRom::forward(std::size_t k) const {
  RPBCM_CHECK(k < n_ / 2 || (n_ == 1 && k == 0));
  return w_[k];
}

cfloat TwiddleRom::inverse(std::size_t k) const {
  return std::conj(forward(k));
}

void fft_inplace(std::span<cfloat> data, const TwiddleRom& rom, bool inverse) {
  const std::size_t n = data.size();
  RPBCM_CHECK_MSG(n != 0 && rom.size() % n == 0,
                  "twiddle ROM size " << rom.size()
                                      << " is not a multiple of FFT size "
                                      << n);
  if (n <= 1) return;
  bit_reverse_permute(data);
  // k * stride < rom.size() / 2 below, so the size check above covers every
  // twiddle read.
  const cfloat* table = rom.table();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    // Twiddle index step at this stage. W_len^k lives at k * rom.size()/len
    // in a ROM of any power-of-two multiple size, so one ROM serves n and
    // all its divisors (the packed rfft runs its n/2-point inner FFT here).
    const std::size_t stride = rom.size() / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cfloat w = inverse ? std::conj(table[k * stride])
                                 : table[k * stride];
        const cfloat u = data[i + k];
        const cfloat v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    // Hardware divides by BS with a log2(BS) shift; here the float analogue.
    const float inv_n = 1.0F / static_cast<float>(n);
    for (auto& x : data) x *= inv_n;
  }
}

const TwiddleRom& twiddle_rom(std::size_t n) {
  RomCache& cache = rom_cache();
  const TwiddleRom* rom = nullptr;
  bool miss = false;
  {
    const base::MutexLock lock(cache.mu);
    auto& slot = cache.roms[n];
    if (!slot) {
      slot = std::make_unique<TwiddleRom>(n);  // throws on non-pow2: slot
      miss = true;                             // stays empty, retried later
    }
    rom = slot.get();
  }
  if (miss) {
    RPBCM_OBS_COUNT("rpbcm.numeric.rom_cache.misses", 1);
  } else {
    RPBCM_OBS_COUNT("rpbcm.numeric.rom_cache.hits", 1);
  }
  return *rom;
}

void fft_inplace(std::span<cfloat> data, bool inverse) {
  fft_inplace(data, twiddle_rom(data.size()), inverse);
}

std::vector<cfloat> fft_real(std::span<const float> x) {
  std::vector<cfloat> d(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) d[i] = cfloat(x[i], 0.0F);
  fft_inplace(d);
  return d;
}

std::size_t fft_butterfly_count(std::size_t n) {
  if (n <= 1) return 0;
  return (n / 2) * log2_exact(n);
}

}  // namespace rpbcm::numeric
