// Micro-benchmarks (google-benchmark) of the computational kernels behind
// the paper's complexity claims: the FFT and packed real FFT, the eMAC
// inner loop, the fixed-point PE datapath, and dense vs BCM-compressed
// convolution forward passes.

// Observability:  --trace-out= / --metrics-out= are stripped before
// google-benchmark sees argv; kernel timings recorded by the harness are
// exported through the shared obs registry.
//
// Parallel runtime: --threads=N sets base::set_num_threads before any
// benchmark runs; --kernels-json[=PATH] additionally writes a
// serial-vs-threaded baseline (default PATH: BENCH_kernels.json) so the
// runtime's speedup can be tracked across commits.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "base/parallel.hpp"
#include "core/bcm_conv.hpp"
#include "core/conv_lanes.hpp"
#include "core/frequency_weights.hpp"
#include "hw/fft_pe.hpp"
#include "hw/functional.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/pool.hpp"
#include "numeric/aligned.hpp"
#include "numeric/emac.hpp"
#include "numeric/fft.hpp"
#include "numeric/random.hpp"
#include "numeric/rfft.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/macros.hpp"
#include "tensor/init.hpp"

using namespace rpbcm;

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  numeric::Rng rng(seed);
  return rng.gaussian_vector(n);
}

void BM_FftComplex(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(n);
  std::vector<numeric::cfloat> data(n);
  numeric::Rng rng(n);
  for (auto& v : data) v = {rng.gaussian(), rng.gaussian()};
  for (auto _ : state) {
    auto copy = data;
    numeric::fft_inplace(std::span<numeric::cfloat>(copy), rom, false);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftComplex)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(256);

// Packed real FFT of a real signal: an n/2-point complex FFT plus O(n)
// untangling — the transform the BCM layers run.
void BM_RfftReal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(n);
  const auto x = random_vec(n, n);
  const std::size_t hb = numeric::half_bins(n);
  std::vector<float> re(hb), im(hb);
  std::vector<numeric::cfloat> scratch(numeric::rfft_scratch_size(n));
  for (auto _ : state) {
    numeric::rfft_soa(x.data(), re.data(), im.data(), rom, scratch);
    benchmark::DoNotOptimize(re.data());
    benchmark::DoNotOptimize(im.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RfftReal)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(256);

// Its Hermitian inverse: re-tangling plus an n/2-point inverse FFT. Sizes 4,
// 8 and 16 run the straight-line codelets, the rest the generic loop.
void BM_IrfftReal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numeric::TwiddleRom& rom = numeric::twiddle_rom(n);
  const auto x = random_vec(n, n);
  const std::size_t hb = numeric::half_bins(n);
  std::vector<float> re(hb), im(hb), out(n);
  std::vector<numeric::cfloat> scratch(numeric::rfft_scratch_size(n));
  numeric::rfft_soa(x.data(), re.data(), im.data(), rom, scratch);
  for (auto _ : state) {
    numeric::irfft_soa(re.data(), im.data(), out.data(), rom, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IrfftReal)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(256);

void BM_FixedPointFftPe(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const hw::FftPe pe(n);
  std::vector<hw::Fix16> x(n);
  numeric::Rng rng(3);
  for (auto& v : x) v = hw::Fix16::from_float(rng.uniform(-1, 1));
  for (auto _ : state) {
    auto spec = pe.forward_real(x);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_FixedPointFftPe)->Arg(8)->Arg(16)->Arg(32);

nn::ConvSpec conv_spec(std::size_t c) {
  nn::ConvSpec s;
  s.in_channels = c;
  s.out_channels = c;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

// Args: {Cin, Cout, map side, batch}. The last row is the VGG proxy's stem
// (3->32, 16x16, batch 16).
nn::ConvSpec dense_spec(const benchmark::State& state) {
  nn::ConvSpec s = conv_spec(static_cast<std::size_t>(state.range(0)));
  s.out_channels = static_cast<std::size_t>(state.range(1));
  return s;
}

tensor::Tensor dense_input(const benchmark::State& state, numeric::Rng& rng) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto hw = static_cast<std::size_t>(state.range(2));
  const auto n = static_cast<std::size_t>(state.range(3));
  tensor::Tensor x({n, c, hw, hw});
  tensor::fill_gaussian(x, rng);
  return x;
}

void BM_DenseConvForward(benchmark::State& state) {
  numeric::Rng rng(5);
  nn::Conv2d conv(dense_spec(state), rng);
  const tensor::Tensor x = dense_input(state, rng);
  for (auto _ : state) {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DenseConvForward)
    ->Args({16, 16, 14, 1})
    ->Args({32, 32, 14, 1})
    ->Args({64, 64, 14, 1})
    ->Args({3, 32, 16, 16});

// Weight and input gradient of one training step (the forward that caches
// the input runs once, outside the timed loop).
void BM_DenseConvBackward(benchmark::State& state) {
  numeric::Rng rng(8);
  nn::Conv2d conv(dense_spec(state), rng);
  const tensor::Tensor x = dense_input(state, rng);
  tensor::Tensor gy = conv.forward(x, true);
  tensor::fill_gaussian(gy, rng);
  for (auto _ : state) {
    auto gx = conv.backward(gy);
    benchmark::DoNotOptimize(gx.data());
    benchmark::DoNotOptimize(conv.weight().grad.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DenseConvBackward)->Args({3, 32, 16, 16});

// One training forward + backward of a mask layer at the VGG proxy's
// first-stage activation shape (16x32x16x16): the ReLU's byte mask, and the
// 2x2 max-pool's in-window argmax.
template <typename LayerT>
void train_mask_step(benchmark::State& state, LayerT& layer) {
  numeric::Rng rng(9);
  tensor::Tensor x({16, 32, 16, 16});
  tensor::fill_gaussian(x, rng);
  tensor::Tensor gy = layer.forward(x, true);
  tensor::fill_gaussian(gy, rng);
  // The outputs live until the next step's replace them, as in a training
  // loop; freeing both at once would return them to the OS every step.
  tensor::Tensor y, gx;
  for (auto _ : state) {
    y = layer.forward(x, true);
    gx = layer.backward(gy);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(gx.data());
  }
}

void BM_ReluTrain(benchmark::State& state) {
  nn::ReLU relu;
  train_mask_step(state, relu);
}
BENCHMARK(BM_ReluTrain);

void BM_MaxPoolTrain(benchmark::State& state) {
  nn::MaxPool2d pool(2);
  train_mask_step(state, pool);
}
BENCHMARK(BM_MaxPoolTrain);

void BM_BcmConvForward(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  numeric::Rng rng(6);
  core::BcmConv2d conv(conv_spec(c), 8,
                       core::BcmParameterization::kHadamard, rng);
  tensor::Tensor x({1, c, 14, 14});
  tensor::fill_gaussian(x, rng);
  for (auto _ : state) {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BcmConvForward)->Arg(16)->Arg(32)->Arg(64);

void BM_BcmConvForwardPruned(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  numeric::Rng rng(7);
  core::BcmConv2d conv(conv_spec(c), 8,
                       core::BcmParameterization::kHadamard, rng);
  // Prune half the blocks: the software skip path mirrors the PE's.
  for (std::size_t b = 0; b < conv.layout().total_blocks(); b += 2)
    conv.prune_block(b);
  tensor::Tensor x({1, c, 14, 14});
  tensor::fill_gaussian(x, rng);
  for (auto _ : state) {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_BcmConvForwardPruned)->Arg(16)->Arg(32)->Arg(64);

// The pixel-lane eMAC+IFFT stage alone, one sample, at two VGG-16 proxy
// shapes (BS 8, hadaBCM): channels c -> c on a map x map input, with
// alpha_pct % of the blocks pruned (21 of every 25 at 84).
void BM_EmacIrfftLanes(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const auto map = static_cast<std::size_t>(state.range(1));
  const auto alpha_pct = static_cast<std::size_t>(state.range(2));
  numeric::Rng rng(8);
  core::BcmConv2d conv(conv_spec(c), 8,
                       core::BcmParameterization::kHadamard, rng);
  for (std::size_t b = 0; b < conv.layout().total_blocks(); ++b)
    if (b % 25 < alpha_pct / 4) conv.prune_block(b);
  tensor::Tensor x({1, c, map, map});
  tensor::fill_gaussian(x, rng);
  conv.prepare_inference();
  core::ActivationSpectra spec;
  conv.infer_rfft(x, spec);
  for (auto _ : state) {
    auto y = conv.infer_emac_irfft(spec);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_EmacIrfftLanes)
    ->ArgNames({"c", "map", "alpha"})
    ->Args({32, 16, 0})    // bcm0
    ->Args({32, 16, 84})
    ->Args({128, 4, 0})    // bcm4
    ->Args({128, 4, 84});

// The Q7.8 functional model (the lane nest on Fix16 words at one pixel per
// lane) over bcm0's shape: 32 -> 32, 3x3, 16x16 input, BS 8, hadaBCM,
// every other block pruned (alpha 0.5), batch 16, on `threads` pool
// threads.
void BM_FixedPointConv(benchmark::State& state) {
  const std::size_t saved = base::num_threads();
  base::set_num_threads(static_cast<std::size_t>(state.range(0)));
  numeric::Rng rng(9);
  core::BcmConv2d conv(conv_spec(32), 8,
                       core::BcmParameterization::kHadamard, rng);
  for (std::size_t b = 0; b < conv.layout().total_blocks(); b += 2)
    conv.prune_block(b);
  tensor::Tensor x({16, 32, 16, 16});
  tensor::fill_gaussian(x, rng, 0.3F);
  const core::FrequencyLayerWeights fw = core::export_frequency_weights(conv);
  for (auto _ : state) {
    auto y = hw::bcm_conv_fixed_point(x, fw, conv.spec());
    benchmark::DoNotOptimize(y.data());
  }
  base::set_num_threads(saved);
}
BENCHMARK(BM_FixedPointConv)->ArgName("threads")->Arg(1)->Arg(3)->UseRealTime();

// One base::parallel_for of `chunks` chunks (grain 1) on `threads` pool
// threads, each chunk running `work` steps of a dependent float chain
// (≈2 µs at 700 steps on a 4-vCPU AVX2 host; 0 = an empty chunk). Times the
// pool's dispatch: the empty rows are pure fan-out and wake-up cost, and
// the work rows at 3 threads against 1 show whether the fan-out pays.
void BM_ParallelForDispatch(benchmark::State& state) {
  const std::size_t saved = base::num_threads();
  base::set_num_threads(static_cast<std::size_t>(state.range(0)));
  const auto chunks = static_cast<std::size_t>(state.range(1));
  const auto work = static_cast<std::size_t>(state.range(2));
  std::vector<float> sink(chunks);
  for (auto _ : state) {
    base::parallel_for(0, chunks, 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t c = b; c < e; ++c) {
        float v = static_cast<float>(c);
        for (std::size_t i = 0; i < work; ++i) v = v * 0.999F + 1.0F;
        sink[c] = v;
      }
    });
    benchmark::DoNotOptimize(sink.data());
    benchmark::ClobberMemory();
  }
  base::set_num_threads(saved);
}
BENCHMARK(BM_ParallelForDispatch)
    ->ArgNames({"threads", "chunks", "work"})
    ->Args({3, 16, 0})
    ->Args({3, 170, 0})
    ->Args({3, 16, 700})
    ->Args({1, 16, 0})
    ->Args({1, 16, 700})
    ->UseRealTime();

// Wall-clock of `reps` invocations of fn(), in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Best single-invocation wall-clock over `reps` tries, in milliseconds.
// The minimum is the noise-robust estimator for before/after comparisons:
// scheduler preemption and cache pollution only ever add time, so the
// fastest rep is the closest observation of the kernel's true cost.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

struct KernelBaseline {
  std::string name;
  double serial_ms = 0.0;
  double threaded_ms = 0.0;
};

// Row of the emac_simd section: a baseline vs an optimized path plus an
// optional self-declared absolute speedup floor the perf gate enforces
// (written only when the host can realize the win — see below).
struct EmacSimdRow {
  std::string name;
  double baseline_ms = 0.0;
  double optimized_ms = 0.0;
  double min_speedup = 0.0;  // 0 = no floor
};

// Times one kernel at num_threads()==1 and at `threads`, restoring the
// configured parallelism afterwards.
template <typename Fn>
KernelBaseline baseline(const std::string& name, std::size_t threads,
                        int reps, Fn&& fn) {
  KernelBaseline b;
  b.name = name;
  fn();  // warm-up (spectra caches, allocator)
  base::set_num_threads(1);
  b.serial_ms = time_ms(reps, fn);
  base::set_num_threads(threads);
  b.threaded_ms = time_ms(reps, fn);
  return b;
}

// Serial-vs-threaded snapshot of the BCM conv forward (FFT + eMAC + IFFT
// per block), plus the serial emac_simd rows.
void write_kernels_json(const std::string& path, std::size_t threads) {
  std::vector<KernelBaseline> rows;

  numeric::Rng rng(6);
  core::BcmConv2d conv(conv_spec(32), 16,
                       core::BcmParameterization::kHadamard, rng);
  tensor::Tensor x({2, 32, 14, 14});
  tensor::fill_gaussian(x, rng);
  rows.push_back(baseline("bcm_conv_forward", threads, 20, [&] {
    auto y = conv.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }));

  base::set_num_threads(1);
  // Lane eMAC dispatch + compacted pruned-block schedules, all serial.
  //
  // Rows 1-3: the pixel-lane eMAC+IFFT nest, portable copy vs AVX2 copy
  // (lanes::portable_kernels() vs lanes::avx2_kernels()), over every tile
  // of one sample, BS 8, hadaBCM, α = 0: at BM_EmacIrfftLanes' bcm0 (32->32,
  // 16x16) and bcm4 (128->128, 4x4) shapes, and at the backward's gX call
  // of a 64->64 3x3 stride-2 conv on an 8x8 map (ResNet's downsampling
  // shape). That call is this nest over the transposed layer (64->64, 3x3,
  // stride 1, pad 1) reading gy's spectra +0-dilated onto the 8x8 input
  // map, so the row runs such a layer on such an input; weight values do
  // not change the work. The floors are declared only when the dispatcher
  // picked AVX2 — elsewhere both sides run the portable copy.
  //
  // Rows 4-5: dense vs pruned infer_emac_irfft at α=0.5 / α=0.84 — the
  // compacted schedule must turn the skip index into wall-clock the way
  // the accelerator's skip datapath turns it into cycles. The α=0.84 row
  // carries the paper-motivated 2x floor unconditionally: schedule
  // compaction does not depend on SIMD.
  std::vector<EmacSimdRow> emac_rows;
  const auto lane_row = [&](const std::string& name, std::size_t c,
                            std::size_t map, bool dilated,
                            double floor_if_avx2) {
    numeric::Rng lrng(11 + c);
    core::BcmConv2d layer(conv_spec(c), 8,
                          core::BcmParameterization::kHadamard, lrng);
    tensor::Tensor x({1, c, map, map});
    tensor::fill_gaussian(x, lrng);
    if (dilated)  // gy of the stride-2 conv lands on even rows and columns
      for (std::size_t ch = 0; ch < c; ++ch)
        for (std::size_t ih = 0; ih < map; ++ih)
          for (std::size_t iw = 0; iw < map; ++iw)
            if (ih % 2 != 0 || iw % 2 != 0) x.at(0, ch, ih, iw) = 0.0F;
    layer.prepare_inference();
    core::ActivationSpectra spec;
    layer.infer_rfft(x, spec);
    const core::BcmLayout& lay = layer.layout();
    const std::size_t hb = numeric::half_bins(8);
    const numeric::TwiddleRom& rom = numeric::twiddle_rom(8);
    std::vector<numeric::cfloat> rscratch(numeric::rfft_scratch_size(8));
    numeric::AlignedVec<float> w_re(lay.total_blocks() * hb);
    numeric::AlignedVec<float> w_im(lay.total_blocks() * hb);
    for (std::size_t b = 0; b < lay.total_blocks(); ++b)
      numeric::rfft_soa(layer.effective_defining(b).data(), &w_re[b * hb],
                        &w_im[b * hb], rom, rscratch);
    const core::BlockSchedule sched =
        core::conv_row_schedule(lay, layer.skip_index());
    core::lanes::ConvGeometry g;
    g.bs = 8;
    g.hb = hb;
    g.nbi = g.nbo = c / 8;
    g.cin = g.cout = c;
    g.k = 3;
    g.stride = g.pad = 1;
    g.h = g.w = g.ho = g.wo = map;
    g.rom = &rom;
    core::lanes::EmacInputs in;
    in.w_re = w_re.data();
    in.w_im = w_im.data();
    in.offsets = sched.offsets.data();
    in.entries = sched.entries.data();
    in.x_re = spec.re.data();
    in.x_im = spec.im.data();
    in.x_size = spec.re.size();
    tensor::Tensor y({1, c, map, map});
    std::vector<float> scratch(core::lanes::emac_scratch_words(g));
    const std::size_t tiles = core::lanes::tiles_per_sample(map, map);
    const auto run = [&](const core::lanes::Kernels& k) {
      k.emac_irfft_tiles(g, in, y.data(), 0, tiles, scratch.data());
      benchmark::DoNotOptimize(y.data());
    };
    const bool avx2 =
        numeric::emac::active_path() == numeric::emac::Path::kAvx2;
    const core::lanes::Kernels portable = core::lanes::portable_kernels();
    const core::lanes::Kernels optimized =
        avx2 ? core::lanes::avx2_kernels() : portable;
    // Alternating single reps, so host noise hits both sides alike.
    EmacSimdRow r;
    r.name = name;
    r.baseline_ms = r.optimized_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 300; ++rep) {
      r.baseline_ms =
          std::min(r.baseline_ms, best_ms(1, [&] { run(portable); }));
      r.optimized_ms =
          std::min(r.optimized_ms, best_ms(1, [&] { run(optimized); }));
    }
    if (avx2) r.min_speedup = floor_if_avx2;
    return r;
  };
  // Floors: about 0.9x the minimum of 16 runs on a 4-vCPU AVX2 host
  // (1.67x, 1.44x, 1.81x).
  emac_rows.push_back(lane_row("emac_irfft_lanes_bcm0", 32, 16, false, 1.5));
  emac_rows.push_back(lane_row("emac_irfft_lanes_bcm4", 128, 4, false, 1.3));
  emac_rows.push_back(lane_row("emac_irfft_lanes_gx_s2", 64, 8, true, 1.6));
  {
    // 256 channels / BS=16: 16x16 block grid, so the eMAC stage dominates
    // the per-pixel IFFTs the way it does in the paper's VGG-scale layers
    // and the schedule win is visible in wall-clock.
    numeric::Rng prng(10);
    core::BcmConv2d pconv(conv_spec(256), 16,
                          core::BcmParameterization::kHadamard, prng);
    tensor::Tensor px({1, 256, 7, 7});
    tensor::fill_gaussian(px, prng);
    pconv.prepare_inference();
    core::ActivationSpectra spec;
    pconv.infer_rfft(px, spec);
    const auto dense_ms = best_ms(20, [&] {
      auto y = pconv.infer_emac_irfft(spec);
      benchmark::DoNotOptimize(y.data());
    });
    const auto pruned_ms = [&](std::size_t keep_mod, std::size_t keep_lim) {
      std::vector<std::uint8_t> skip(pconv.layout().total_blocks());
      for (std::size_t b = 0; b < skip.size(); ++b)
        skip[b] = (b % keep_mod) < keep_lim ? 1 : 0;
      pconv.set_skip_index(std::move(skip));
      pconv.prepare_inference();
      return best_ms(20, [&] {
        auto y = pconv.infer_emac_irfft(spec);
        benchmark::DoNotOptimize(y.data());
      });
    };
    EmacSimdRow r50;
    r50.name = "emac_irfft_pruned_alpha50";
    r50.baseline_ms = dense_ms;
    r50.optimized_ms = pruned_ms(2, 1);  // keep every other block
    emac_rows.push_back(r50);
    EmacSimdRow r84;
    r84.name = "emac_irfft_pruned_alpha84";
    r84.baseline_ms = dense_ms;
    r84.optimized_ms = pruned_ms(25, 4);  // keep 4/25 = 16% of blocks
    r84.min_speedup = 2.0;
    emac_rows.push_back(r84);
    pconv.reset_pruning();
  }
  base::set_num_threads(threads);

  std::ofstream os(path);
  os << "{\n  \"threads\": " << threads << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << "    {\"name\": ";
    obs::write_json_string(os, r.name);
    os << ", \"serial_ms\": ";
    obs::write_json_number(os, r.serial_ms);
    os << ", \"threaded_ms\": ";
    obs::write_json_number(os, r.threaded_ms);
    os << ", \"speedup\": ";
    obs::write_json_number(os, r.threaded_ms > 0.0
                                   ? r.serial_ms / r.threaded_ms
                                   : 0.0);
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"emac_simd\": [\n";
  for (std::size_t i = 0; i < emac_rows.size(); ++i) {
    const auto& r = emac_rows[i];
    os << "    {\"name\": ";
    obs::write_json_string(os, r.name);
    os << ", \"baseline_ms\": ";
    obs::write_json_number(os, r.baseline_ms);
    os << ", \"optimized_ms\": ";
    obs::write_json_number(os, r.optimized_ms);
    os << ", \"speedup\": ";
    obs::write_json_number(
        os, r.optimized_ms > 0.0 ? r.baseline_ms / r.optimized_ms : 0.0);
    if (r.min_speedup > 0.0) {
      os << ", \"min_speedup\": ";
      obs::write_json_number(os, r.min_speedup);
    }
    os << "}" << (i + 1 < emac_rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// Strips --threads=N and --kernels-json[=PATH] from argv (before
// google-benchmark parses it). Returns false on a malformed value.
bool parse_parallel_flags(int& argc, char** argv, std::size_t& threads,
                          bool& want_json, std::string& json_path) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(arg.c_str() + 10, &end, 10);
      if (end == nullptr || *end != '\0' || v == 0) return false;
      threads = static_cast<std::size_t>(v);
    } else if (arg == "--kernels-json") {
      want_json = true;
    } else if (arg.rfind("--kernels-json=", 0) == 0) {
      want_json = true;
      json_path = arg.substr(std::strlen("--kernels-json="));
      if (json_path.empty()) return false;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::CliOptions obs_opts = obs::parse_cli(argc, argv);  // strips obs flags
  std::size_t threads = 0;  // 0: leave the RPBCM_THREADS / hardware default
  bool want_json = false;
  std::string json_path = "BENCH_kernels.json";
  if (!parse_parallel_flags(argc, argv, threads, want_json, json_path)) {
    RPBCM_LOG_ERROR("bench", "usage: --threads=N (N>=1), "
                             "--kernels-json[=PATH]");
    return 1;
  }
  if (threads != 0) base::set_num_threads(threads);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    RPBCM_OBS_TRACE_SCOPE("bench", "micro_kernels");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (want_json) {
    write_kernels_json(json_path,
                       threads != 0 ? threads : base::num_threads());
  }
  obs::dump_outputs(obs_opts);
  return 0;
}
