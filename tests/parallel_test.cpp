// Unit tests for the deterministic parallel substrate (src/parallel/):
// chunk-grid math, pool lifecycle (lazy start, shutdown/restart, width
// changes), exception propagation (lowest chunk index wins, matching a
// sequential first-throw), nested-run inline fallback, the determinism
// contract on the primitives themselves, where a quantile pair's two
// models fit, and the one-shot event a daemon ticket resolves through — the
// end-to-end model-level proof lives in parallel_invariance_test.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <ctime>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/region.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/service_thread.hpp"
#include "parallel/sync.hpp"
#include "parallel/thread_pool.hpp"

using namespace vmincqr;

namespace {

/// Every test that changes the pool width restores env/hardware resolution
/// on exit so test order cannot leak a stale override.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

// --- chunk-grid math --------------------------------------------------------

TEST(ChunkGrid, ExplicitGrainIsUsedVerbatim) {
  EXPECT_EQ(parallel::resolve_grain(100, 7), 7u);
  EXPECT_EQ(parallel::chunk_count(100, 7), 15u);  // ceil(100 / 7)
  EXPECT_EQ(parallel::chunk_count(100, 100), 1u);
  EXPECT_EQ(parallel::chunk_count(100, 1000), 1u);
}

TEST(ChunkGrid, AutoGrainTargetsAtMostKAutoMaxChunks) {
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 1000u, 4096u, 100000u}) {
    const std::size_t chunks = parallel::chunk_count(n, 0);
    EXPECT_LE(chunks, parallel::kAutoMaxChunks) << "n=" << n;
    EXPECT_GE(chunks, 1u) << "n=" << n;
  }
  // Small n: one item per chunk, n chunks.
  EXPECT_EQ(parallel::chunk_count(5, 0), 5u);
}

TEST(ChunkGrid, ZeroItemsMeansZeroChunks) {
  EXPECT_EQ(parallel::chunk_count(0, 0), 0u);
  EXPECT_EQ(parallel::chunk_count(0, 8), 0u);
}

TEST(ChunkGrid, ChunkRangesTileTheIndexSpaceExactly) {
  for (std::size_t n : {1u, 2u, 7u, 64u, 65u, 129u}) {
    for (std::size_t grain : {0u, 1u, 2u, 5u, 64u}) {
      const std::size_t chunks = parallel::chunk_count(n, grain);
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto r = parallel::chunk_range(n, grain, c);
        EXPECT_EQ(r.begin, expected_begin) << "n=" << n << " grain=" << grain;
        EXPECT_LT(r.begin, r.end);
        expected_begin = r.end;
      }
      EXPECT_EQ(expected_begin, n) << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ChunkGrid, GridNeverDependsOnThreadCount) {
  ThreadOverrideGuard guard;
  std::vector<std::size_t> reference;
  parallel::for_each_chunk(100, 9, [&](std::size_t c, std::size_t b,
                                       std::size_t e) {
    reference.push_back(c);
    reference.push_back(b);
    reference.push_back(e);
  }, /*use_pool=*/false);
  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    parallel::set_max_threads(threads);
    std::vector<std::vector<std::size_t>> per_chunk(
        parallel::chunk_count(100, 9));
    parallel::for_each_chunk(100, 9, [&](std::size_t c, std::size_t b,
                                         std::size_t e) {
      per_chunk[c] = {c, b, e};
    });
    std::vector<std::size_t> flat;
    for (const auto& triple : per_chunk) {
      flat.insert(flat.end(), triple.begin(), triple.end());
    }
    EXPECT_EQ(flat, reference) << "threads=" << threads;
  }
}

// --- parallel_for -----------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  for (std::size_t n : {0u, 1u, 2u, 3u, 100u, 257u}) {
    std::vector<int> hits(n, 0);
    parallel::parallel_for(n, /*grain=*/1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) ++hits[i];
    });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n));
  }
}

TEST(ParallelFor, FewerItemsThanThreadsStillCoversAll) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(8);
  std::vector<int> hits(3, 0);
  parallel::parallel_for(3, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, InlinePathMatchesPoolPath) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  std::vector<double> pooled(1000), inlined(1000);
  const auto fill = [](std::vector<double>& out) {
    return [&out](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        out[i] = 1.0 / (1.0 + static_cast<double>(i));
      }
    };
  };
  parallel::parallel_for(1000, 0, fill(pooled), /*use_pool=*/true);
  parallel::parallel_for(1000, 0, fill(inlined), /*use_pool=*/false);
  EXPECT_EQ(pooled, inlined);
}

// --- deterministic reduction ------------------------------------------------

/// An FP sum whose result depends on association order: catches any pool
/// that folds partials in completion order rather than chunk order.
double chunked_sum(std::size_t n, std::size_t grain, bool use_pool) {
  return parallel::parallel_deterministic_reduce(
      n, grain, 0.0,
      [](std::size_t b, std::size_t e) {
        double s = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          s += 1.0 / (static_cast<double>(i) + 0.1);
        }
        return s;
      },
      [](double acc, double part) { return acc + part; }, use_pool);
}

TEST(DeterministicReduce, BitIdenticalAcrossThreadCounts) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(1);
  const double reference = chunked_sum(10007, 64, true);
  for (std::size_t threads : {2u, 3u, 5u, 8u}) {
    parallel::set_max_threads(threads);
    // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
    EXPECT_EQ(chunked_sum(10007, 64, true), reference)
        << "threads=" << threads;
  }
  EXPECT_EQ(chunked_sum(10007, 64, false), reference) << "inline path";
}

TEST(DeterministicReduce, EmptyInputReturnsInit) {
  const double r = parallel::parallel_deterministic_reduce(
      0, 0, 42.0, [](std::size_t, std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, 42.0);
}

TEST(DeterministicReduce, FoldOrderIsAscendingChunkIndex) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  // Non-commutative combine (string concatenation) exposes the fold order.
  const std::string order = parallel::parallel_deterministic_reduce(
      10, 2, std::string{},
      [](std::size_t b, std::size_t) { return std::to_string(b / 2); },
      [](std::string acc, std::string part) { return acc + part; });
  EXPECT_EQ(order, "01234");
}

// --- exception propagation --------------------------------------------------

TEST(ThreadPoolErrors, LowestChunkExceptionWinsAtEveryWidth) {
  ThreadOverrideGuard guard;
  for (std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_max_threads(threads);
    try {
      parallel::ThreadPool::instance().run(16, [](std::size_t c) {
        if (c >= 3) {
          throw std::runtime_error("chunk " + std::to_string(c));
        }
      });
      FAIL() << "expected a throw at threads=" << threads;
    } catch (const std::runtime_error& e) {
      // The sequential first-throw: chunk 3, never 4..15.
      EXPECT_STREQ(e.what(), "chunk 3") << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolErrors, PoolIsReusableAfterAThrow) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  EXPECT_THROW(parallel::ThreadPool::instance().run(
                   8, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::vector<int> hits(8, 0);
  parallel::ThreadPool::instance().run(8, [&](std::size_t c) { hits[c] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 8);
}

// --- nesting ----------------------------------------------------------------

TEST(ThreadPoolNesting, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  std::vector<std::vector<int>> inner_hits(6, std::vector<int>(5, 0));
  std::vector<int> nested_flag(6, 0);
  parallel::parallel_for(6, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      nested_flag[i] = parallel::ThreadPool::in_worker() ? 1 : 0;
      parallel::parallel_for(5, 1, [&, i](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j) ++inner_hits[i][j];
      });
    }
  });
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(nested_flag[i], 1) << "outer chunk " << i
                                 << " not marked in_worker";
    EXPECT_EQ(inner_hits[i], (std::vector<int>{1, 1, 1, 1, 1}));
  }
}

TEST(ThreadPoolNesting, InWorkerIsFalseOutsideTasks) {
  EXPECT_FALSE(parallel::ThreadPool::in_worker());
}

// --- lifecycle --------------------------------------------------------------

TEST(ThreadPoolLifecycle, SetMaxThreadsControlsWidth) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(3);
  EXPECT_EQ(parallel::max_threads(), 3u);
  EXPECT_EQ(parallel::ThreadPool::instance().n_threads(), 3u);
  parallel::set_max_threads(0);
  EXPECT_GE(parallel::max_threads(), 1u);
}

TEST(ThreadPoolLifecycle, RepeatedShutdownAndRestartStaysCorrect) {
  ThreadOverrideGuard guard;
  for (int cycle = 0; cycle < 5; ++cycle) {
    parallel::set_max_threads(static_cast<std::size_t>(cycle % 3 + 1));
    std::vector<int> hits(12, 0);
    parallel::ThreadPool::instance().run(12,
                                         [&](std::size_t c) { hits[c] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 12)
        << "cycle " << cycle;
    parallel::ThreadPool::instance().shutdown();
    parallel::ThreadPool::instance().shutdown();  // idempotent
  }
}

TEST(ThreadPoolLifecycle, ZeroChunksIsANoOp) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  bool called = false;
  parallel::ThreadPool::instance().run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// --- quantile pair: its two models are the two chunks of one grid ----------

/// One per thread, so its address names the running thread without a
/// threading primitive outside src/parallel/.
thread_local const char tl_thread_marker = 0;
const void* current_thread() { return &tl_thread_marker; }

/// Where one model's fit ran.
struct FitRecord {
  const void* thread = nullptr;
  bool in_worker = false;
};

/// A regressor that records where its fit ran, appends its label to a
/// sequence (when given one), and throws its label on request.
class RecordingRegressor final : public models::Regressor {
 public:
  RecordingRegressor(std::string label, FitRecord* record,
                     std::vector<std::string>* sequence, bool throws)
      : label_(std::move(label)),
        record_(record),
        sequence_(sequence),
        throws_(throws) {}

  void fit(const models::Matrix&, const models::Vector&) override {
    record_->thread = current_thread();
    record_->in_worker = parallel::ThreadPool::in_worker();
    if (sequence_ != nullptr) sequence_->push_back(label_);
    if (throws_) throw std::runtime_error(label_);
    fitted_ = true;
  }
  models::Vector predict(const models::Matrix& x) const override {
    return models::Vector(x.rows(), 0.0);
  }
  std::unique_ptr<models::Regressor> clone_config() const override {
    return std::make_unique<RecordingRegressor>(label_, record_, sequence_,
                                                throws_);
  }
  std::string name() const override { return label_; }
  bool fitted() const override { return fitted_; }

 private:
  std::string label_;
  FitRecord* record_;
  std::vector<std::string>* sequence_;
  bool throws_;
  bool fitted_ = false;
};

/// A pair over two recording models. `sequence` stays null wherever the
/// two fits may run concurrently: they would both append to it.
std::unique_ptr<models::QuantilePairRegressor> recording_pair(
    FitRecord* lower, FitRecord* upper, std::vector<std::string>* sequence,
    bool lower_throws = false, bool upper_throws = false) {
  return std::make_unique<models::QuantilePairRegressor>(
      core::MiscoverageAlpha{0.1},
      std::make_unique<RecordingRegressor>("lower", lower, sequence,
                                           lower_throws),
      std::make_unique<RecordingRegressor>("upper", upper, sequence,
                                           upper_throws),
      "recording pair");
}

void fit_on_four_rows(models::QuantilePairRegressor& pair) {
  pair.fit(models::Matrix(4, 2, 1.0), models::Vector(4, 0.5));
}

TEST(ParallelQuantilePair, WidthOneFitsBothOnTheCallerLowerFirst) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(1);
  FitRecord lower, upper;
  std::vector<std::string> sequence;
  fit_on_four_rows(*recording_pair(&lower, &upper, &sequence));
  EXPECT_EQ(lower.thread, current_thread());
  EXPECT_EQ(upper.thread, current_thread());
  EXPECT_EQ(sequence, (std::vector<std::string>{"lower", "upper"}));
}

TEST(ParallelQuantilePair, WiderPoolsFitLowerOnTheCallerAndUpperOnLaneOne) {
  ThreadOverrideGuard guard;
  for (std::size_t threads : {2u, 8u}) {
    parallel::set_max_threads(threads);
    FitRecord lower, upper;
    fit_on_four_rows(*recording_pair(&lower, &upper, nullptr));
    // Both are pool tasks, so every parallel loop inside a model runs inline.
    EXPECT_TRUE(lower.in_worker) << "threads=" << threads;
    EXPECT_TRUE(upper.in_worker) << "threads=" << threads;
    // Chunk 0 runs on the caller (lane 0), chunk 1 on lane 1's worker.
    const void* lane_one = nullptr;
    parallel::ThreadPool::instance().run(2, [&](std::size_t c) {
      if (c == 1) lane_one = current_thread();
    });
    EXPECT_EQ(lower.thread, current_thread()) << "threads=" << threads;
    EXPECT_NE(upper.thread, current_thread()) << "threads=" << threads;
    EXPECT_EQ(upper.thread, lane_one) << "threads=" << threads;
  }
}

TEST(ParallelQuantilePair, InsideAPoolTaskBothFitInlineLowerFirst) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(4);
  constexpr std::size_t kTasks = 8;
  std::vector<FitRecord> lower(kTasks), upper(kTasks);
  std::vector<std::vector<std::string>> sequence(kTasks);
  std::vector<const void*> task_thread(kTasks);
  parallel::parallel_for(kTasks, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      task_thread[i] = current_thread();
      fit_on_four_rows(*recording_pair(&lower[i], &upper[i], &sequence[i]));
    }
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(lower[i].thread, task_thread[i]) << "task " << i;
    EXPECT_EQ(upper[i].thread, task_thread[i]) << "task " << i;
    EXPECT_EQ(sequence[i], (std::vector<std::string>{"lower", "upper"}))
        << "task " << i;
  }
}

TEST(ParallelQuantilePair, LowerModelsExceptionWinsAtEveryWidth) {
  ThreadOverrideGuard guard;
  for (std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_max_threads(threads);
    FitRecord lower, upper;
    for (const bool lower_throws : {true, false}) {
      try {
        fit_on_four_rows(*recording_pair(&lower, &upper, nullptr, lower_throws,
                                         /*upper_throws=*/true));
        FAIL() << "expected a throw at threads=" << threads;
      } catch (const std::runtime_error& e) {
        // The sequential first-throw: lower's when it throws, else upper's.
        EXPECT_STREQ(e.what(), lower_throws ? "lower" : "upper")
            << "threads=" << threads;
      }
    }
  }
}

// --- the one-shot event behind a daemon ticket ------------------------------

TEST(ParallelSync, SetBeforeWaitReturnsAtOnce) {
  parallel::OneShotEvent event;
  EXPECT_FALSE(event.is_set());
  event.set();
  EXPECT_TRUE(event.is_set());
  event.wait();  // a shed ticket is set before anyone waits on it
  EXPECT_TRUE(event.is_set());
}

TEST(ParallelSync, WaiterOnAServiceThreadWakesAfterSet) {
  parallel::OneShotEvent started;
  parallel::OneShotEvent done;
  int payload = 0;  // written before set(), read after wait(): not atomic
  int seen = -1;
  parallel::ServiceThread waiter;
  waiter.start([&] {
    started.set();
    done.wait();
    seen = payload;
  });
  started.wait();
  // 20 ms is long past the library's spin-and-yield phase, so the waiter is
  // asleep on the flag when set() runs and only notify_all() can wake it.
  const timespec pause{0, 20'000'000};
  nanosleep(&pause, nullptr);
  EXPECT_FALSE(done.is_set());
  payload = 42;
  done.set();
  waiter.join();
  EXPECT_EQ(seen, 42);
}

TEST(ParallelSync, SecondSetIsHarmless) {
  parallel::OneShotEvent event;
  event.set();
  event.set();
  event.wait();
  EXPECT_TRUE(event.is_set());
}

}  // namespace
