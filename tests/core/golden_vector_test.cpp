// Golden-vector regression: fixed-seed activation spectra, logits and
// one backward pass (grad-input and every param grad) for one BcmLinear
// and one BcmConv2d, plus the Q7.8 functional model's output for the conv
// case, committed as exact float bit patterns (8-hex-digit words) under
// tests/data/golden/. Any bit drift in the FFT–eMAC–IFFT kernels —
// reordered accumulation, a changed twiddle path, an accidental fast-math
// flag — fails here even when the result is still "numerically close".
//
// Regeneration (after an INTENDED numeric change, see docs/testing.md):
//   RPBCM_GOLDEN_REGEN=1 ./core_golden_vector_test
// rewrites the files in the source tree; commit them with the change.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/activation_spectra.hpp"
#include "core/bcm_conv.hpp"
#include "core/bcm_linear.hpp"
#include "core/frequency_weights.hpp"
#include "hw/functional.hpp"
#include "numeric/random.hpp"
#include "test_util.hpp"

#ifndef RPBCM_GOLDEN_DIR
#error "RPBCM_GOLDEN_DIR must point at tests/data/golden"
#endif

namespace rpbcm {
namespace {

std::string hex_word(float f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", bits);
  return buf;
}

std::string golden_path(const std::string& name) {
  return std::string(RPBCM_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  return std::getenv("RPBCM_GOLDEN_REGEN") != nullptr;
}

void save_golden(const std::string& name, std::span<const float> values) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out) << "cannot write " << golden_path(name);
  for (std::size_t i = 0; i < values.size(); ++i)
    out << hex_word(values[i]) << (i % 8 == 7 ? '\n' : ' ');
  if (values.size() % 8 != 0) out << '\n';
}

std::vector<std::uint32_t> load_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in) << "missing golden file " << golden_path(name)
                  << " — regenerate with RPBCM_GOLDEN_REGEN=1 "
                     "(docs/testing.md)";
  std::vector<std::uint32_t> words;
  std::string w;
  while (in >> w)
    words.push_back(
        static_cast<std::uint32_t>(std::strtoul(w.c_str(), nullptr, 16)));
  return words;
}

// Compares actual float bits against the committed golden words; with
// RPBCM_GOLDEN_REGEN set, rewrites the file instead.
void check_golden(const std::string& name, std::span<const float> actual) {
  if (regen_requested()) {
    save_golden(name, actual);
    return;
  }
  const std::vector<std::uint32_t> expect = load_golden(name);
  ASSERT_EQ(expect.size(), actual.size()) << name << " size drift";
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &actual[i], sizeof bits);
    if (bits != expect[i] && ++mismatches <= 4) {
      char want[16];
      std::snprintf(want, sizeof want, "%08x", expect[i]);
      ADD_FAILURE() << name << "[" << i << "]: got " << hex_word(actual[i])
                    << " want " << want
                    << " — bit drift in the kernel output; if intended, "
                       "regenerate per docs/testing.md";
    }
  }
  EXPECT_EQ(mismatches, 0U) << name << ": " << mismatches << " of "
                            << actual.size() << " words drifted";
}

// One training step's gradients: forward(x), then backward of a fixed-seed
// upstream gradient. Pins grad-input and every param grad under `prefix`.
void check_backward_golden(nn::Layer& layer, const tensor::Tensor& x,
                           std::uint64_t gy_seed, const std::string& prefix) {
  const tensor::Tensor y = layer.forward(x, /*train=*/true);
  const tensor::Tensor gy = testutil::random_tensor(y.shape(), gy_seed);
  nn::zero_grads(layer.params());
  const tensor::Tensor gx = layer.backward(gy);
  check_golden(prefix + "_grad_x.hex", gx.span());
  for (nn::Param* p : layer.params()) {
    // "bcm.A" / "bcmfc.B" -> "_grad_a" / "_grad_b"
    const char tag = static_cast<char>(std::tolower(p->name.back()));
    check_golden(prefix + "_grad_" + tag + ".hex", p->grad.span());
  }
}

// One spectrum plane of an ActivationSpectra permuted from its lane layout
// [sample][row][in-block][bin][column] (core/activation_spectra.hpp) into
// the canonical (sample, pixel, in-block, bin) order the .hex files hold.
std::vector<float> canonical_order(const core::ActivationSpectra& spec,
                                   const numeric::AlignedVec<float>& plane,
                                   std::size_t in_blocks, std::size_t hb) {
  const std::size_t h = spec.height, w = spec.width;
  std::vector<float> out(plane.size());
  std::size_t i = 0;
  for (std::size_t ni = 0; ni < spec.samples; ++ni)
    for (std::size_t ih = 0; ih < h; ++ih)
      for (std::size_t iw = 0; iw < w; ++iw)
        for (std::size_t bi = 0; bi < in_blocks; ++bi)
          for (std::size_t kb = 0; kb < hb; ++kb)
            out[i++] = plane[(((ni * h + ih) * in_blocks + bi) * hb + kb) * w +
                             iw];
  return out;
}

// Compares both spectrum planes against `<prefix>_spec_{re,im}.hex`.
void check_spectra_golden(const std::string& prefix,
                          const core::ActivationSpectra& spec,
                          const core::BcmLayout& layout) {
  const std::size_t nbi = layout.in_blocks();
  const std::size_t hb = layout.block_size / 2 + 1;
  check_golden(prefix + "_spec_re.hex",
               canonical_order(spec, spec.re, nbi, hb));
  check_golden(prefix + "_spec_im.hex",
               canonical_order(spec, spec.im, nbi, hb));
}

// The golden BcmLinear case: 32 -> 32, BS 8, hadaBCM, blocks 1 and 6
// pruned, a 2-sample batch.
core::BcmLinear golden_linear() {
  numeric::Rng rng(42);
  core::BcmLinear layer(32, 32, /*block_size=*/8, /*hadamard=*/true, rng);
  layer.prune_block(1);
  layer.prune_block(6);
  return layer;
}

// The golden BcmConv2d case: 16 -> 16, 3x3, pad 1, BS 8, hadaBCM, blocks 2
// and 9 pruned, one 6x6 sample.
core::BcmConv2d golden_conv() {
  numeric::Rng rng(43);
  nn::ConvSpec cs;
  cs.in_channels = 16;
  cs.out_channels = 16;
  cs.kernel = 3;
  cs.stride = 1;
  cs.pad = 1;
  core::BcmConv2d layer(cs, /*block_size=*/8,
                        core::BcmParameterization::kHadamard, rng);
  layer.prune_block(2);
  layer.prune_block(9);
  return layer;
}

TEST(GoldenVectors, BcmLinearSpectraAndLogits) {
  core::BcmLinear layer = golden_linear();
  const tensor::Tensor x = testutil::random_tensor({2, 32}, /*seed=*/7);
  layer.prepare_inference();
  core::ActivationSpectra spec;
  layer.infer_rfft(x, spec);
  const tensor::Tensor y = layer.infer_emac_irfft(spec);

  check_spectra_golden("linear", spec, layer.layout());
  check_golden("linear_logits.hex", y.span());
}

TEST(GoldenVectors, BcmConv2dSpectraAndLogits) {
  core::BcmConv2d layer = golden_conv();
  const tensor::Tensor x = testutil::random_tensor({1, 16, 6, 6}, /*seed=*/9);
  layer.prepare_inference();
  core::ActivationSpectra spec;
  layer.infer_rfft(x, spec);
  const tensor::Tensor y = layer.infer_emac_irfft(spec);

  check_spectra_golden("conv", spec, layer.layout());
  check_golden("conv_logits.hex", y.span());
}

TEST(GoldenVectors, BcmLinearBackward) {
  core::BcmLinear layer = golden_linear();
  check_backward_golden(layer, testutil::random_tensor({2, 32}, /*seed=*/7),
                        /*gy_seed=*/11, "linear");
}

TEST(GoldenVectors, BcmConv2dBackward) {
  core::BcmConv2d layer = golden_conv();
  check_backward_golden(
      layer, testutil::random_tensor({1, 16, 6, 6}, /*seed=*/9),
      /*gy_seed=*/13, "conv");
}

// The Q7.8 functional model on the golden conv case: pins the fixed-point
// datapath's bits, not just its distance from the float reference.
TEST(GoldenVectors, BcmConv2dFixedPoint) {
  const core::BcmConv2d layer = golden_conv();
  const tensor::Tensor x = testutil::random_tensor({1, 16, 6, 6}, /*seed=*/9);
  const tensor::Tensor y = hw::bcm_conv_fixed_point(
      x, core::export_frequency_weights(layer), layer.spec());
  check_golden("conv_q78.hex", y.span());
}

// The staged path and the training forward() must produce identical bits —
// the goldens pin both at once.
TEST(GoldenVectors, StagedPathMatchesForward) {
  core::BcmLinear layer = golden_linear();
  const tensor::Tensor x = testutil::random_tensor({2, 32}, /*seed=*/7);
  const tensor::Tensor staged = layer.infer(x);
  const tensor::Tensor fwd = layer.forward(x, /*train=*/false);
  ASSERT_TRUE(staged.same_shape(fwd));
  EXPECT_EQ(std::memcmp(staged.data(), fwd.data(),
                        staged.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace rpbcm
