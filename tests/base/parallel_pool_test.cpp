#include "base/parallel.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/macros.hpp"
#include "obs/registry.hpp"

namespace rpbcm::base {
namespace {

// Restores the configured parallelism when a test tweaks it.
struct ThreadGuard {
  std::size_t saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

TEST(ParallelPoolTest, SetAndQueryThreadCount) {
  ThreadGuard guard;
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1u);
  set_num_threads(0);  // restore the RPBCM_THREADS / hardware default
  EXPECT_GE(num_threads(), 1u);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelPoolTest, EmptyRangeNeverInvokes) {
  ThreadGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    set_num_threads(threads);
    std::atomic<int> calls{0};
    parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
    parallel_for(9, 2, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelPoolTest, SubGrainRangeIsOneChunk) {
  ThreadGuard guard;
  set_num_threads(8);
  std::atomic<int> calls{0};
  parallel_for(0, 3, 100, [&](std::size_t b, std::size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 3u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelPoolTest, SerialSectionForcesInlineWithSameChunks) {
  ThreadGuard guard;
  set_num_threads(8);
  EXPECT_FALSE(in_serial_section());

  // Record the (chunk, thread) schedule inside a SerialSection: every chunk
  // must run on the calling thread, in ascending order, with the same
  // boundaries compute_chunks() reports — the serial reference path.
  const auto expected = compute_chunks(0, 100, 8);
  std::vector<ChunkRange> seen;
  {
    const SerialSection section;
    EXPECT_TRUE(in_serial_section());
    {
      const SerialSection nested;  // nestable: depth-counted
      EXPECT_TRUE(in_serial_section());
    }
    EXPECT_TRUE(in_serial_section());
    const std::thread::id caller = std::this_thread::get_id();
    parallel_for(0, 100, 8, [&](std::size_t b, std::size_t e) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      seen.push_back(ChunkRange{b, e});  // safe: single-threaded by contract
    });
  }
  EXPECT_FALSE(in_serial_section());
  EXPECT_EQ(seen, expected);
}

TEST(ParallelPoolTest, NestedParallelForCompletes) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<std::size_t> visited{0};
  parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
    // Nested calls (from pool workers) run inline; from the caller thread
    // they may fork again — either way every index must be visited once.
    parallel_for(0, 100, 8, [&](std::size_t b, std::size_t e) {
      visited.fetch_add(e - b, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(visited.load(), 400u);
}

TEST(ParallelPoolTest, WorkerExceptionSurfacesWithOriginalMessage) {
  ThreadGuard guard;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_num_threads(threads);
    std::atomic<std::size_t> completed{0};
    bool caught = false;
    try {
      parallel_for(0, 16, 1, [&](std::size_t b, std::size_t) {
        if (b >= 3) throw std::runtime_error("chunk " + std::to_string(b) +
                                             " failed");
        completed.fetch_add(1, std::memory_order_relaxed);
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      // Deterministic propagation: the lowest-indexed throwing chunk wins,
      // with its message intact, at every thread count.
      EXPECT_STREQ(e.what(), "chunk 3 failed");
    }
    EXPECT_TRUE(caught) << "at " << threads << " threads";
    EXPECT_EQ(completed.load(), 3u);
  }
}

TEST(ParallelPoolTest, ObsCountersTrackExecutionMode) {
#if !RPBCM_OBS_ENABLED
  GTEST_SKIP() << "pool counters compile out with RPBCM_OBS=OFF";
#endif
  ThreadGuard guard;
  auto& inline_c =
      obs::Registry::global().counter("rpbcm.base.pool.tasks_inline");
  auto& submitted =
      obs::Registry::global().counter("rpbcm.base.pool.tasks_submitted");
  set_num_threads(1);
  const auto inline_before = inline_c.value();
  parallel_for(0, 8, 1, [](std::size_t, std::size_t) {});
  EXPECT_GE(inline_c.value(), inline_before + 8);
  set_num_threads(4);
  auto& stolen_c =
      obs::Registry::global().counter("rpbcm.base.pool.tasks_stolen");
  const auto sub_before = submitted.value();
  const auto ran_before = inline_c.value() + stolen_c.value();
  parallel_for(0, 64, 1, [](std::size_t, std::size_t) {});
  EXPECT_GT(submitted.value(), sub_before);
  // Counted once per call, yet exact: every chunk lands in one of the two
  // counters before parallel_for returns.
  EXPECT_EQ(inline_c.value() + stolen_c.value(), ran_before + 64);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Workers poll for kPoolSpinBudget after their last task, then block: an
// idle pool must not keep burning CPU. Over the sleep, two workers that
// never parked would add ~2 sleeps of CPU time; parked ones add at most
// their two polling tails.
TEST(ParallelPoolTest, IdleWorkersPark) {
  ThreadGuard guard;
  set_num_threads(3);
  // Three chunks that each wait for all three threads: both workers have
  // started and run a task before the measurement, so thread start-up
  // (costly under the sanitizers) does not land in it.
  std::atomic<std::size_t> arrived{0};
  parallel_for(0, 3, 1, [&](std::size_t, std::size_t) {
    arrived.fetch_add(1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 3 && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
  });
  ASSERT_EQ(arrived.load(), 3u);
  // The process CPU time of threads running on other cores is brought up
  // to date only at scheduler ticks (up to 10 ms apart), so the sleep spans
  // many ticks, not just the 20 budgets a parked pool needs.
  constexpr auto sleep = std::chrono::milliseconds(100);
  static_assert(sleep >= 20 * kPoolSpinBudget);
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(sleep);
  const double cpu_used = process_cpu_seconds() - cpu_before;
  EXPECT_LT(cpu_used, 0.5 * std::chrono::duration<double>(sleep).count());
}

// Eight external threads hammering the shared pool concurrently; every
// reduction must still come back exact. Labeled san/stress: this is the
// TSan torture target for the runtime.
TEST(ParallelPoolStressTest, ConcurrentSubmitters) {
  ThreadGuard guard;
  set_num_threads(4);
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kN = 20000;
  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kN) * (kN - 1) / 2;
  std::array<std::uint64_t, kSubmitters> totals{};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&totals, t] {
      for (int round = 0; round < 8; ++round) {
        totals[t] = parallel_sum<std::uint64_t>(
            0, kN, 64, [](std::size_t b, std::size_t e) {
              std::uint64_t s = 0;
              for (std::size_t i = b; i < e; ++i) s += i;
              return s;
            });
      }
    });
  }
  for (auto& th : submitters) th.join();
  for (std::size_t t = 0; t < kSubmitters; ++t)
    EXPECT_EQ(totals[t], kExpected) << "submitter " << t;
}

TEST(ParallelPoolStressTest, ShutdownWhileBusy) {
  ThreadGuard guard;
  set_num_threads(4);
  std::atomic<std::size_t> done{0};
  std::thread runner([&] {
    parallel_for(0, 64, 1, [&](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1, std::memory_order_relaxed);
    });
  });
  // Reconfigure (joining the old workers) while the loop above is in
  // flight; the caller claims unclaimed chunks itself, so the loop must
  // still complete every chunk exactly once.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  set_num_threads(2);
  runner.join();
  EXPECT_EQ(done.load(), 64u);
  // The pool restarts lazily after the shutdown.
  std::atomic<std::size_t> after{0};
  parallel_for(0, 32, 1, [&](std::size_t, std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 32u);
}

TEST(ParallelPoolStressTest, RepeatedReconfiguration) {
  ThreadGuard guard;
  for (int round = 0; round < 10; ++round) {
    set_num_threads(static_cast<std::size_t>(1 + round % 4));
    const auto total = parallel_sum<std::uint64_t>(
        0, 1000, 16, [](std::size_t b, std::size_t e) {
          std::uint64_t s = 0;
          for (std::size_t i = b; i < e; ++i) s += i;
          return s;
        });
    EXPECT_EQ(total, 1000u * 999u / 2);
  }
}

}  // namespace
}  // namespace rpbcm::base
