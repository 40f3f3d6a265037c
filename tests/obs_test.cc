// Tests for the telemetry layer: instrument semantics (counter and gauge
// arithmetic, histogram bucket edges), registry resolution rules (stable
// handles, kind/help/bounds conflicts, name validation), Prometheus text
// exposition (cumulative buckets, label escaping), collection hooks and
// quiescent ScopedHook detach, per-request traces, and concurrent updates
// from many threads (the TSan target for the lock-free hot path).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace grafics::obs {
namespace {

TEST(CounterTest, AddAccumulates) {
  Registry registry;
  Counter* counter = registry.GetCounter("grafics_test_total", "help");
  counter->Add();
  counter->Add(9);
  EXPECT_EQ(counter->value(), 10u);
}

TEST(GaugeTest, SetAddSubAreSigned) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("grafics_test_depth", "help");
  gauge->Set(5);
  gauge->Sub(8);
  EXPECT_EQ(gauge->value(), -3);
  gauge->Add(4);
  EXPECT_EQ(gauge->value(), 1);
}

TEST(HistogramTest, BucketEdgesAreInclusiveUpperBounds) {
  Registry registry;
  Histogram* histogram =
      registry.GetHistogram("grafics_test_us", "help", {10, 20, 30});
  // On-edge values land in the edge's own bucket (le is inclusive)...
  histogram->Observe(10);
  histogram->Observe(20);
  // ...one-past goes to the next bucket, and past the last edge to +Inf.
  histogram->Observe(11);
  histogram->Observe(31);
  histogram->Observe(0);
  EXPECT_EQ(histogram->bucket(0), 2u);  // 10, 0
  EXPECT_EQ(histogram->bucket(1), 2u);  // 20, 11
  EXPECT_EQ(histogram->bucket(2), 0u);
  EXPECT_EQ(histogram->bucket(3), 1u);  // 31 -> +Inf
  EXPECT_EQ(histogram->count(), 5u);
  EXPECT_EQ(histogram->sum(), 10u + 20 + 11 + 31 + 0);
}

TEST(HistogramTest, BucketPresets) {
  EXPECT_EQ(PowerOfTwoBuckets(8),
            (std::vector<std::uint64_t>{1, 2, 4, 8}));
  // Edges never exceed max; 65..100 land in the implicit +Inf bucket.
  EXPECT_EQ(PowerOfTwoBuckets(100),
            (std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(PowerOfTwoBuckets(1), (std::vector<std::uint64_t>{1}));
  // About 10% steps from 50us to 1ms (where a served predict's stages
  // fall), 1-2-5 steps outside.
  EXPECT_EQ(DefaultLatencyBucketsUs(),
            (std::vector<std::uint64_t>{
                10,     20,     50,     55,     60,     65,     70,     75,
                80,     90,     100,    110,    120,    130,    140,    150,
                160,    180,    200,    220,    240,    260,    280,    300,
                330,    360,    400,    440,    480,    520,    560,    600,
                650,    700,    750,    800,    900,    1000,   2000,   5000,
                10000,  20000,  50000,  100000, 200000, 500000, 1000000}));
  // A 265us and a 400us predict land in different buckets.
  Registry registry;
  Histogram* latency = registry.GetHistogram("grafics_test_us", "help",
                                             DefaultLatencyBucketsUs());
  latency->Observe(265);
  latency->Observe(400);
  std::size_t occupied = 0;
  for (std::size_t i = 0; i <= latency->bounds().size(); ++i) {
    occupied += latency->bucket(i) > 0 ? 1 : 0;
  }
  EXPECT_EQ(occupied, 2u);
}

TEST(RegistryTest, SameNameAndLabelsResolveTheSameInstrument) {
  Registry registry;
  Counter* a = registry.GetCounter("grafics_test_total", "help",
                                   {{"model", "campus"}});
  Counter* b = registry.GetCounter("grafics_test_total", "help",
                                   {{"model", "campus"}});
  Counter* other = registry.GetCounter("grafics_test_total", "help",
                                       {{"model", "mall"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(RegistryTest, RejectsInvalidNamesAndLabels) {
  Registry registry;
  EXPECT_THROW(registry.GetCounter("latency_total", "help"), Error);
  EXPECT_THROW(registry.GetCounter("grafics_", "help"), Error);
  EXPECT_THROW(registry.GetCounter("grafics_Upper", "help"), Error);
  EXPECT_THROW(registry.GetCounter("grafics_ok-not", "help"), Error);
  EXPECT_THROW(
      registry.GetCounter("grafics_ok_total", "help", {{"0bad", "x"}}),
      Error);
}

TEST(RegistryTest, RejectsConflictingReRegistration) {
  Registry registry;
  registry.GetCounter("grafics_test_total", "help");
  // Same name as a different kind, or with different help text.
  EXPECT_THROW(registry.GetGauge("grafics_test_total", "help"), Error);
  EXPECT_THROW(registry.GetCounter("grafics_test_total", "other"), Error);
  // Histogram bounds must be strictly increasing and identical across the
  // family's series.
  registry.GetHistogram("grafics_test_us", "h", {1, 2}, {{"m", "a"}});
  EXPECT_THROW(registry.GetHistogram("grafics_test_us", "h", {1, 3},
                                     {{"m", "b"}}),
               Error);
  EXPECT_THROW(registry.GetHistogram("grafics_other_us", "h", {2, 2}), Error);
  EXPECT_THROW(registry.GetHistogram("grafics_other_us", "h", {2, 1}), Error);
  EXPECT_THROW(registry.GetHistogram("grafics_other_us", "h", {}), Error);
}

TEST(RegistryTest, RendersPrometheusTextExposition) {
  Registry registry;
  registry.GetCounter("grafics_requests_total", "Requests served.")->Add(3);
  registry.GetGauge("grafics_depth", "Queue depth.")->Set(-2);
  Histogram* histogram =
      registry.GetHistogram("grafics_wait_us", "Wait time.", {10, 20});
  histogram->Observe(5);
  histogram->Observe(15);
  histogram->Observe(99);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP grafics_requests_total Requests served.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE grafics_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("grafics_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE grafics_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("grafics_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE grafics_wait_us histogram\n"),
            std::string::npos);
  // _bucket series are cumulative; +Inf equals _count.
  EXPECT_NE(text.find("grafics_wait_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("grafics_wait_us_bucket{le=\"20\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("grafics_wait_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("grafics_wait_us_sum 119\n"), std::string::npos);
  EXPECT_NE(text.find("grafics_wait_us_count 3\n"), std::string::npos);
}

TEST(RegistryTest, EscapesLabelValuesAndHelpText) {
  Registry registry;
  registry
      .GetCounter("grafics_test_total", "backslash \\ and\nnewline",
                  {{"model", "we\"ird\\name\nhere"}})
      ->Add(1);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP grafics_test_total backslash \\\\ and\\n"
                      "newline\n"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "grafics_test_total{model=\"we\\\"ird\\\\name\\nhere\"} 1\n"),
      std::string::npos);
  // The raw (unescaped) forms must not leak into the exposition.
  EXPECT_EQ(text.find("we\"ird"), std::string::npos);
}

TEST(RegistryTest, HistogramBucketLabelsComposeWithSeriesLabels) {
  Registry registry;
  registry
      .GetHistogram("grafics_wait_us", "Wait.", {10}, {{"model", "campus"}})
      ->Observe(4);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(
      text.find("grafics_wait_us_bucket{model=\"campus\",le=\"10\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("grafics_wait_us_sum{model=\"campus\"} 4\n"),
            std::string::npos);
}

TEST(RegistryTest, CollectionHooksRunAtEveryRender) {
  Registry registry;
  int runs = 0;
  const std::uint64_t id = registry.AddHook([&registry, &runs] {
    ++runs;
    // A hook may resolve instruments itself — that is the sync pattern.
    registry.GetGauge("grafics_hook_depth", "Synced.")->Set(runs);
  });
  EXPECT_NE(registry.RenderPrometheus().find("grafics_hook_depth 1\n"),
            std::string::npos);
  EXPECT_NE(registry.RenderPrometheus().find("grafics_hook_depth 2\n"),
            std::string::npos);
  registry.RemoveHook(id);
  registry.RenderPrometheus();
  EXPECT_EQ(runs, 2);
}

TEST(ScopedHookTest, DetachStopsTheCallbackAndIsIdempotent) {
  auto registry = std::make_shared<Registry>();
  int runs = 0;
  ScopedHook hook;
  EXPECT_FALSE(hook.attached());
  hook.Attach(registry, [&runs] { ++runs; });
  EXPECT_TRUE(hook.attached());
  registry->RenderPrometheus();
  EXPECT_EQ(runs, 1);
  hook.Detach();
  EXPECT_FALSE(hook.attached());
  hook.Detach();  // idempotent
  registry->RenderPrometheus();
  EXPECT_EQ(runs, 1);
  // Re-attach after detach is allowed.
  hook.Attach(registry, [&runs] { runs += 10; });
  registry->RenderPrometheus();
  EXPECT_EQ(runs, 11);
}

TEST(ScopedHookTest, DetachQuiescesConcurrentRenders) {
  // Renders race Detach from another thread; after Detach returns, the
  // callback's captured state is torn down. TSan (and the counter check)
  // verifies no invocation ever touches freed state.
  auto registry = std::make_shared<Registry>();
  registry->GetCounter("grafics_test_total", "help")->Add(1);
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) registry->RenderPrometheus();
  });
  for (int round = 0; round < 50; ++round) {
    auto live = std::make_unique<std::atomic<int>>(0);
    ScopedHook hook;
    hook.Attach(registry, [&counter = *live] { counter.fetch_add(1); });
    registry->RenderPrometheus();
    hook.Detach();
    live.reset();  // would be a use-after-free if a hook were in flight
  }
  stop.store(true);
  scraper.join();
}

TEST(ObsConcurrencyTest, ParallelUpdatesNeverLoseIncrements) {
  // The TSan target: many threads hammer one counter, one gauge, and one
  // histogram through the relaxed-atomic hot path while a scraper renders.
  Registry registry;
  Counter* counter = registry.GetCounter("grafics_test_total", "help");
  Gauge* gauge = registry.GetGauge("grafics_test_depth", "help");
  Histogram* histogram =
      registry.GetHistogram("grafics_test_us", "help", {8, 64, 512});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) registry.RenderPrometheus();
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add();
        gauge->Add(1);
        histogram->Observe(static_cast<std::uint64_t>((t * 31 + i) % 1000));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(gauge->value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->count(), kThreads * kPerThread);
  std::uint64_t buckets = 0;
  for (std::size_t i = 0; i <= histogram->bounds().size(); ++i) {
    buckets += histogram->bucket(i);
  }
  EXPECT_EQ(buckets, histogram->count());
}

TEST(TraceTest, BreakdownRendersStampsRelativeAndNotesAbsolute) {
  Trace trace;
  trace.Stamp("frame_decoded");
  trace.Note("predict", 1234);
  trace.Stamp("reply_flushed");
  const std::string breakdown = trace.Breakdown();
  // Stamps render "stage=+Nus" (offset from start), notes "stage=Nus".
  EXPECT_NE(breakdown.find("frame_decoded=+"), std::string::npos);
  EXPECT_NE(breakdown.find(" predict=1234us "), std::string::npos);
  EXPECT_NE(breakdown.find("reply_flushed=+"), std::string::npos);
  EXPECT_GE(trace.ElapsedUs(), 0u);
}

}  // namespace
}  // namespace grafics::obs
