// Tests for the named model registry: load/unload/list lifecycle, default
// resolution, per-model generations and stats, routing submits to the right
// model, pool dispatch that is bit-identical for every pool size and picks
// up hot swaps, and hot-reload from disk that leaves other models untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/grafics.h"
#include "serve/model_registry.h"
#include "synth/presets.h"

namespace grafics::serve {
namespace {

using namespace std::chrono_literals;

core::GraficsConfig FastConfig(std::uint64_t trainer_seed) {
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 60;
  config.trainer.seed = trainer_seed;
  config.online_refine_iterations = 300;
  return config;
}

struct Fixture {
  std::shared_ptr<const core::Grafics> model;
  std::vector<rf::SignalRecord> queries;
  std::vector<std::optional<rf::FloorId>> reference;

  explicit Fixture(std::uint64_t trainer_seed) {
    auto config = synth::CampusBuildingConfig(/*seed=*/53, 60);
    auto sim = config.MakeSimulator();
    rf::Dataset dataset = sim.GenerateDataset();
    Rng rng(54);
    auto [train, test] = dataset.TrainTestSplit(0.7, rng);
    train.KeepLabelsPerFloor(4, rng);
    core::Grafics system(FastConfig(trainer_seed));
    system.Train(train.records());
    queries.assign(test.records().begin(), test.records().end());
    reference = system.PredictBatch(queries, {.num_threads = 1});
    model = std::make_shared<const core::Grafics>(std::move(system));
  }
};

const Fixture& ModelA() {
  static const Fixture fixture(1);
  return fixture;
}

const Fixture& ModelB() {
  static const Fixture fixture(2);
  return fixture;
}

std::optional<rf::FloorId> GetWithin(
    std::future<std::optional<rf::FloorId>>&& future) {
  if (future.wait_for(30s) != std::future_status::ready) {
    ADD_FAILURE() << "registry future not ready within 30s";
    return std::nullopt;
  }
  return future.get();
}

/// Polls `done` every millisecond for up to 30s.
template <class Predicate>
bool WaitUntil(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(ModelRegistryTest, LoadListAndDefaultLifecycle) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.default_model(), "");
  registry.Load("alpha", ModelA().model);
  registry.Load("beta", ModelB().model);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.default_model(), "alpha");  // first loaded wins
  EXPECT_TRUE(registry.Has("alpha"));
  EXPECT_FALSE(registry.Has("gamma"));

  const std::vector<ModelInfo> models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[0].generation, 1u);
  EXPECT_FALSE(models[0].reloadable);
  EXPECT_EQ(models[1].name, "beta");

  registry.SetDefaultModel("beta");
  EXPECT_EQ(registry.default_model(), "beta");
  EXPECT_THROW(registry.SetDefaultModel("gamma"), Error);
}

TEST(ModelRegistryTest, ValidatesNamesAndModels) {
  ModelRegistry registry;
  EXPECT_THROW(registry.Load("", ModelA().model), Error);
  EXPECT_THROW(registry.Load("has space", ModelA().model), Error);
  EXPECT_THROW(registry.Load("has=equals", ModelA().model), Error);
  EXPECT_THROW(registry.Load(std::string(kMaxModelNameBytes + 1, 'm'),
                             ModelA().model),
               Error);
  EXPECT_THROW(registry.Load("alpha", nullptr), Error);
  EXPECT_THROW(
      registry.Load("alpha", std::make_shared<const core::Grafics>()),
      Error);
  EXPECT_EQ(registry.size(), 0u);
  // Non-ASCII bytes are legal (only whitespace/control/'=' are not).
  registry.Load("m\xC3\xBCnchen", ModelA().model);
  EXPECT_TRUE(registry.Has("m\xC3\xBCnchen"));
}

TEST(ModelRegistryTest, SubmitRoutesByNameAndResolvesDefault) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  registry.Load("beta", b.model);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(GetWithin(registry.Submit("alpha", a.queries[i])),
              a.reference[i])
        << i;
    EXPECT_EQ(GetWithin(registry.Submit("beta", b.queries[i])),
              b.reference[i])
        << i;
    EXPECT_EQ(GetWithin(registry.Submit("", a.queries[i])), a.reference[i])
        << i;
  }
  EXPECT_THROW(registry.Submit("gamma", a.queries[0]), Error);

  // SubmitBatch: one name resolution, per-record futures in order.
  auto futures = registry.SubmitBatch(
      "beta", {b.queries.begin(), b.queries.begin() + 4});
  ASSERT_EQ(futures.size(), 4u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(GetWithin(std::move(futures[i])), b.reference[i]) << i;
  }
  EXPECT_THROW(registry.SubmitBatch("gamma", {a.queries[0]}), Error);

  const std::vector<ModelStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "alpha");
  EXPECT_EQ(stats[0].requests, 12u);  // named + default submits
  EXPECT_GE(stats[0].batches, 1u);
  EXPECT_EQ(stats[1].name, "beta");
  EXPECT_EQ(stats[1].requests, 10u);  // singles + the batch of 4
}

TEST(ModelRegistryTest, ReloadingLoadBumpsGenerationAndSwapsSnapshot) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  EXPECT_EQ(registry.generation("alpha"), 1u);
  EXPECT_EQ(registry.Snapshot("alpha"), a.model);

  registry.Load("alpha", b.model);
  EXPECT_EQ(registry.generation("alpha"), 2u);
  EXPECT_EQ(registry.Snapshot(), b.model);  // empty name = default
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(GetWithin(registry.Submit("alpha", b.queries[0])),
            b.reference[0]);
}

TEST(ModelRegistryTest, UnloadDrainsAndRemovesButProtectsDefault) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  registry.Load("beta", b.model);

  auto pending = registry.Submit("beta", b.queries[0]);
  registry.Unload("beta");
  // The unload drained the queue: the future still resolved correctly.
  EXPECT_EQ(GetWithin(std::move(pending)), b.reference[0]);
  EXPECT_FALSE(registry.Has("beta"));
  EXPECT_THROW(registry.Submit("beta", b.queries[0]), Error);
  EXPECT_THROW(registry.Unload("beta"), Error);
  EXPECT_THROW(registry.Unload("alpha"), Error);  // the default is protected
  EXPECT_EQ(GetWithin(registry.Submit("alpha", a.queries[0])),
            a.reference[0]);
}

TEST(ModelRegistryTest, ReloadFromDiskSwapsOnlyTheNamedModel) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  const std::string path =
      testing::TempDir() + "model_registry_test_model.bin";
  a.model->SaveModel(path);
  ModelRegistry registry;
  registry.LoadFromDisk("alpha", path);
  registry.Load("beta", b.model);
  EXPECT_TRUE(registry.List()[0].reloadable);
  EXPECT_FALSE(registry.List()[1].reloadable);
  EXPECT_EQ(GetWithin(registry.Submit("alpha", a.queries[0])),
            a.reference[0]);

  // Swap the artifact on disk, then reload by name: alpha serves model B's
  // answers, beta's snapshot and generation stay untouched.
  b.model->SaveModel(path);
  EXPECT_EQ(registry.ReloadFromDisk("alpha"), 2u);
  EXPECT_EQ(registry.generation("alpha"), 2u);
  EXPECT_EQ(registry.generation("beta"), 1u);
  EXPECT_EQ(registry.Snapshot("beta"), b.model);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(GetWithin(registry.Submit("alpha", b.queries[i])),
              b.reference[i])
        << i;
  }
  EXPECT_THROW(registry.ReloadFromDisk("beta"), Error);  // no path recorded
  EXPECT_THROW(registry.ReloadFromDisk("gamma"), Error);
}

TEST(ModelRegistryTest, StopDrainsEveryModelAndRejectsFurtherWork) {
  const Fixture& a = ModelA();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  auto pending = registry.Submit("alpha", a.queries[0]);
  registry.Stop();
  EXPECT_EQ(GetWithin(std::move(pending)), a.reference[0]);
  EXPECT_THROW(registry.Submit("alpha", a.queries[0]), Error);
  EXPECT_THROW(registry.Load("beta", ModelB().model), Error);
  EXPECT_THROW(registry.ReloadFromDisk("alpha"), Error);
  // Stats stay readable for the shutdown report.
  ASSERT_EQ(registry.Stats().size(), 1u);
  EXPECT_EQ(registry.Stats()[0].requests, 1u);
}

TEST(ModelRegistryTest, SplitsARequestAcrossThePoolBitIdentically) {
  const Fixture& a = ModelA();
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 10);
  const std::vector<rf::SignalRecord> queries(a.queries.begin(),
                                              a.queries.begin() + n);
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    ModelRegistry registry(1, &pool);
    registry.Load("alpha", a.model);
    auto futures = registry.SubmitBatch("alpha", queries);
    ASSERT_EQ(futures.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(GetWithin(std::move(futures[i])), a.reference[i])
          << "threads " << threads << " record " << i;
    }
    // One contiguous chunk task per worker.
    const ModelStats stats = registry.Stats("alpha")[0];
    EXPECT_EQ(stats.requests, n);
    EXPECT_EQ(stats.batches, threads);
    EXPECT_EQ(stats.max_batch, (n + threads - 1) / threads);
    EXPECT_EQ(stats.queue_depth, 0u);
  }
}

TEST(ModelRegistryTest, WorkerContextFollowsAHotSwap) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  // One worker, so both predicts run on the thread whose cached inference
  // context must notice the swap. Each snapshot is a fresh allocation that
  // dies with its swap, so a later snapshot may reuse a freed one's
  // address: the cache must key on ownership, not on the pointer.
  ThreadPool pool(1);
  ModelRegistry registry(1, &pool);
  registry.Load("alpha",
                std::make_shared<const core::Grafics>(a.model->Clone()));
  EXPECT_EQ(GetWithin(registry.Submit("alpha", a.queries[0])),
            a.reference[0]);
  for (int swap = 0; swap < 4; ++swap) {
    const Fixture& next = swap % 2 == 0 ? b : a;
    registry.Load("alpha",
                  std::make_shared<const core::Grafics>(next.model->Clone()));
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(GetWithin(registry.Submit("alpha", next.queries[i])),
                next.reference[i])
          << "swap " << swap << " record " << i;
    }
  }
}

/// TrySubmitBatchAsync with run_here_if_idle; records each callback's
/// outcome and the thread it ran on.
struct InlineProbe {
  std::vector<PredictOutcome> outcomes;
  std::vector<std::thread::id> threads;
  std::atomic<std::size_t> done{0};

  explicit InlineProbe(std::size_t records)
      : outcomes(records), threads(records) {}

  bool Submit(ModelRegistry& registry, const std::string& name,
              std::vector<rf::SignalRecord> records) {
    return registry.TrySubmitBatchAsync(
        name, std::move(records),
        [this](std::size_t i, PredictOutcome outcome) {
          outcomes[i] = std::move(outcome);
          threads[i] = std::this_thread::get_id();
          ++done;
        },
        /*max_queue_depth=*/0, /*run_here_if_idle=*/true);
  }
};

TEST(ModelRegistryTest, LoneRecordOnAnIdlePoolRunsInPlaceBitIdentically) {
  const Fixture& a = ModelA();
  ThreadPool pool(2);
  ModelRegistry registry(1, &pool);
  registry.Load("alpha", a.model);
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    InlineProbe probe(1);
    ASSERT_TRUE(probe.Submit(registry, "alpha", {a.queries[i]}));
    // Answered on this thread before the call returned.
    ASSERT_EQ(probe.done.load(), 1u) << i;
    EXPECT_EQ(probe.threads[0], std::this_thread::get_id());
    EXPECT_TRUE(probe.outcomes[0].error.empty()) << probe.outcomes[0].error;
    EXPECT_EQ(probe.outcomes[0].floor, a.reference[i]) << i;
  }
  EXPECT_EQ(registry.InlineTasks("alpha"), n);
  ModelStats stats = registry.Stats("alpha")[0];
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.batches, n);  // every in-place run is one task
  EXPECT_EQ(stats.queue_depth, 0u);

  // Two records are never run in place: the pool takes them, bit-identical.
  InlineProbe pair(2);
  ASSERT_TRUE(pair.Submit(registry, "alpha", {a.queries[0], a.queries[1]}));
  ASSERT_TRUE(WaitUntil([&] { return pair.done.load() == 2; }));
  EXPECT_EQ(pair.outcomes[0].floor, a.reference[0]);
  EXPECT_EQ(pair.outcomes[1].floor, a.reference[1]);
  EXPECT_NE(pair.threads[0], std::this_thread::get_id());
  EXPECT_EQ(registry.InlineTasks("alpha"), n);
  EXPECT_EQ(registry.InlineTasks("no-such-model"), 0u);
}

TEST(ModelRegistryTest, LoneRecordOnABusyPoolIsQueued) {
  const Fixture& a = ModelA();
  ThreadPool pool(1);
  ModelRegistry registry(1, &pool);
  registry.Load("alpha", a.model);
  std::promise<void> open;
  std::shared_future<void> gate = open.get_future().share();
  pool.Submit([gate] { gate.wait(); });
  InlineProbe probe(1);
  ASSERT_TRUE(probe.Submit(registry, "alpha", {a.queries[0]}));
  EXPECT_EQ(probe.done.load(), 0u);
  EXPECT_EQ(registry.Stats("alpha")[0].queue_depth, 1u);
  open.set_value();
  ASSERT_TRUE(WaitUntil([&] { return probe.done.load() == 1; }));
  EXPECT_EQ(probe.outcomes[0].floor, a.reference[0]);
  EXPECT_NE(probe.threads[0], std::this_thread::get_id());
  EXPECT_EQ(registry.InlineTasks("alpha"), 0u);
}

/// Starts a lone in-place predict on `name` whose callback blocks until
/// `gate` opens; returns once the predict is inside its callback.
std::thread StartBlockedInlinePredict(ModelRegistry& registry,
                                      const std::string& name,
                                      const rf::SignalRecord& record,
                                      std::shared_future<void> gate,
                                      std::optional<rf::FloorId>* floor) {
  std::promise<void> entered;
  std::future<void> inside = entered.get_future();
  std::thread submitter([&registry, name, record, gate, floor,
                         entered = std::move(entered)]() mutable {
    const bool admitted = registry.TrySubmitBatchAsync(
        name, {record},
        [&](std::size_t, PredictOutcome outcome) {
          *floor = outcome.floor;
          entered.set_value();
          gate.wait();
        },
        /*max_queue_depth=*/0, /*run_here_if_idle=*/true);
    EXPECT_TRUE(admitted);
  });
  inside.wait();
  return submitter;
}

TEST(ModelRegistryTest, UnloadAndStopDrainAnInPlacePredict) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  for (const bool stop : {false, true}) {
    ThreadPool pool(1);
    ModelRegistry registry(1, &pool);
    registry.Load("alpha", a.model);
    registry.Load("beta", b.model);
    std::promise<void> open;
    std::optional<rf::FloorId> floor;
    std::thread submitter = StartBlockedInlinePredict(
        registry, "beta", b.queries[0], open.get_future().share(), &floor);
    EXPECT_EQ(registry.InlineTasks("beta"), 1u);
    std::atomic<bool> drained{false};
    std::thread closer([&] {
      if (stop) {
        registry.Stop();
      } else {
        registry.Unload("beta");
      }
      drained = true;
    });
    std::this_thread::sleep_for(50ms);
    EXPECT_FALSE(drained.load()) << (stop ? "Stop" : "Unload")
                                 << " returned during an in-place predict";
    open.set_value();
    closer.join();
    submitter.join();
    EXPECT_TRUE(drained.load());
    EXPECT_EQ(floor, b.reference[0]);
    EXPECT_EQ(registry.Has("beta"), stop);
  }
}

}  // namespace
}  // namespace grafics::serve
