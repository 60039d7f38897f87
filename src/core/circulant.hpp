#pragma once

#include <complex>
#include <vector>

#include "numeric/fft.hpp"
#include "tensor/tensor.hpp"

namespace rpbcm::core {

using numeric::cfloat;

/// Circulant matrix represented by its defining (first-column) vector `w`:
///   C[i][j] = w[(i - j) mod n].
/// Every row then holds the same elements, each row rotated one step — the
/// structure of Fig. 1a. Matrix-vector product equals circular convolution,
/// so `C x = IFFT(FFT(w) ⊙ FFT(x))`, the "FFT–eMAC–IFFT" substitution the
/// whole paper builds on. This type is for analysis (dense realization,
/// spectra, singular values); BcmConv2d is the one compute path.
class Circulant {
 public:
  /// Builds from the first column (the defining vector used everywhere).
  static Circulant from_first_column(std::vector<float> w);

  std::size_t size() const { return w_.size(); }
  const std::vector<float>& defining() const { return w_; }

  /// Dense n x n realization (row-major) — used by the rank analysis and by
  /// equivalence tests.
  tensor::Tensor dense() const;

  /// Hadamard product with another circulant of the same size. The result
  /// is circulant with defining vector w_a ⊙ w_b — the identity hadaBCM
  /// exploits (Section III-A).
  Circulant hadamard(const Circulant& other) const;

  /// Full-size spectrum of the defining vector (FFT(w)).
  std::vector<cfloat> spectrum() const;

  /// Half spectrum (n/2+1 bins) — the conjugate-symmetric packing the
  /// accelerator stores.
  std::vector<cfloat> half_spectrum() const;

  /// Singular values (descending) of the dense realization. For a circulant
  /// these equal |FFT(w)| up to ordering; computed both ways in tests.
  std::vector<float> singular_values() const;

 private:
  explicit Circulant(std::vector<float> w) : w_(std::move(w)) {}
  std::vector<float> w_;  // first column
};

}  // namespace rpbcm::core
