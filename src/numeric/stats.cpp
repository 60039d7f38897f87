#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>

#include "base/check.hpp"

namespace rpbcm::numeric {

double mean(std::span<const float> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

double stddev(std::span<const float> v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double s = 0.0;
  for (float x : v) {
    const double d = static_cast<double>(x) - m;
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(v.size()));
}

double min_value(std::span<const float> v) {
  RPBCM_CHECK(!v.empty());
  return *std::min_element(v.begin(), v.end());
}

double max_value(std::span<const float> v) {
  RPBCM_CHECK(!v.empty());
  return *std::max_element(v.begin(), v.end());
}

std::vector<float> normalize_by_max(std::span<const float> sv) {
  RPBCM_CHECK(!sv.empty());
  const float mx = *std::max_element(sv.begin(), sv.end());
  std::vector<float> out(sv.begin(), sv.end());
  if (mx > 0.0F)
    for (auto& x : out) x /= mx;
  return out;
}

bool poor_rank_condition(std::span<const float> sv, double threshold,
                         double fraction) {
  RPBCM_CHECK(!sv.empty());
  const double mx = max_value(sv);
  if (mx == 0.0) return true;  // zero matrix: no representation at all
  std::size_t small = 0;
  for (float s : sv)
    if (static_cast<double>(s) < threshold * mx) ++small;
  return static_cast<double>(small) >
         fraction * static_cast<double>(sv.size());
}

double effective_rank(std::span<const float> sv) {
  RPBCM_CHECK(!sv.empty());
  double total = 0.0;
  for (float s : sv) total += static_cast<double>(std::abs(s));
  if (total == 0.0) return 0.0;
  double h = 0.0;
  for (float s : sv) {
    const double p = static_cast<double>(std::abs(s)) / total;
    if (p > 0.0) h -= p * std::log(p);
  }
  return std::exp(h);
}

double log_decay_slope(std::span<const float> sv, double floor) {
  RPBCM_CHECK(!sv.empty());
  const double mx = max_value(sv);
  if (mx <= 0.0) return 0.0;
  // Fit log(sv_k/mx) = a + b*k over entries above the relative floor.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  std::size_t n = 0;
  for (std::size_t k = 0; k < sv.size(); ++k) {
    const double rel = static_cast<double>(sv[k]) / mx;
    if (rel < floor) continue;
    const double x = static_cast<double>(k);
    const double y = std::log(rel);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace rpbcm::numeric
