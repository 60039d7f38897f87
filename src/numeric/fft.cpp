#include "numeric/fft.hpp"

#include <cmath>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>

#include "base/check.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "numeric/rfft_codelet.hpp"
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

void reject_fft_size(std::size_t n) {
  std::ostringstream os;
  os << "transform size " << n << " is not a power of two in ["
     << kMinFftSize << ", " << kMaxFftSize << "]";
  detail::check_failed("is_fft_size(n)", __FILE__, __LINE__, os.str());
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
  codelet::with_size(data.size(), [&](auto n) {
    // Interleaved (re, im) floats, the std::complex array layout.
    auto* z = reinterpret_cast<float*>(data.data());
    const auto* w = reinterpret_cast<const float*>(twiddle_rom(n).table());
    if (inverse) {
      codelet::fft<n, true>(z, z + 1, 2, w);
      // Hardware divides by BS with a log2(BS) shift; here the float
      // analogue.
      constexpr float inv_n = 1.0F / static_cast<float>(n);
      for (auto& x : data) x *= inv_n;
    } else {
      codelet::fft<n, false>(z, z + 1, 2, w);
    }
  });
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
