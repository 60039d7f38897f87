#pragma once

#include <span>
#include <vector>

namespace rpbcm::numeric {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const float> v);

/// Population standard deviation; 0 for fewer than two samples.
double stddev(std::span<const float> v);

double min_value(std::span<const float> v);
double max_value(std::span<const float> v);

/// Normalizes a descending singular-value vector by its largest entry so
/// decay curves from different matrices are comparable (Figs. 2 and 9a).
std::vector<float> normalize_by_max(std::span<const float> sv);

/// The paper's poor-rank-condition test: true when more than `fraction` of
/// the singular values are below `threshold` times the largest one
/// ("more than 50% singular values whose magnitude is less than 5% of the
/// largest value", Section II-B1).
bool poor_rank_condition(std::span<const float> sv, double threshold = 0.05,
                         double fraction = 0.5);

/// Effective rank of Roy & Vetterli [14]: exp(entropy of the normalized
/// singular-value distribution).
double effective_rank(std::span<const float> sv);

/// Least-squares slope of log(sv_k / sv_0) vs k over the entries above
/// `floor` (relative). More negative = faster (more exponential) decay;
/// used to summarise decay curves quantitatively.
double log_decay_slope(std::span<const float> sv, double floor = 1e-7);

}  // namespace rpbcm::numeric
