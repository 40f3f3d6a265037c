// Tests for the serving daemon: the TCP server/client loop against the
// in-process reference, named-model routing through the ModelRegistry,
// rejection of every dialect but v7 over a real socket, per-model hot-reload
// isolation (a reload racing another model's in-flight predicts is what the
// CI ThreadSanitizer job is there to check), admission control against a
// busy predict pool, and the ingest surface: submitted records folded in
// the background while concurrent predictions stay bit-identical to a
// published snapshot. The telemetry section at the bottom scrapes GET
// /metrics over a real socket and cross-checks the exposition against the
// StatsResponse wire surface.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/grafics.h"
#include "ingest/ingest_pipeline.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "store/model_store.h"
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

/// Small trained model over the campus building plus held-out queries and
/// the in-process reference predictions every networked path must match.
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

/// Two models trained on the SAME building with different trainer seeds:
/// both answer the same queries (generally differently), so routing errors
/// and mid-flight swaps are observable in the answers.
const Fixture& ModelA() {
  static const Fixture fixture(1);
  return fixture;
}

const Fixture& ModelB() {
  static const Fixture fixture(2);
  return fixture;
}

/// Occupies every worker of `pool` until released (at the latest on
/// destruction): predicts admitted meanwhile stay queued — admitted but not
/// started — which is how these tests hold requests in the queue.
class PoolLatch {
 public:
  explicit PoolLatch(ThreadPool& pool) {
    for (std::size_t i = 0; i < pool.num_threads(); ++i) {
      pool.Submit([gate = gate_] { gate.wait(); });
    }
  }
  ~PoolLatch() { Release(); }

  void Release() {
    if (!released_) open_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> gate_ = open_.get_future().share();
  bool released_ = false;
};

/// Polls `done` every millisecond for up to 30s.
template <class Predicate>
bool WaitFor(Predicate done) {
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

/// Registry with ModelA as default "alpha"; port 0 keeps tests off fixed
/// ports.
std::shared_ptr<ModelRegistry> AlphaRegistry() {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Load("alpha", ModelA().model);
  return registry;
}

TEST(ServerTest, ServesPredictionsIdenticalToInProcess) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  Client client("127.0.0.1", server.port());
  const Pong pong = client.Ping();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.protocol_version, kProtocolVersion);
  EXPECT_EQ(pong.model_generation, 1u);
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 12);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(f.queries[i]), f.reference[i]) << i;
  }
  server.Stop();
  ASSERT_EQ(server.registry().Stats().size(), 1u);
  EXPECT_EQ(server.registry().Stats()[0].requests, n);
}

TEST(ServerTest, BatchedPredictMatchesPerRecordAndReference) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  Client client("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 20);
  const std::vector<rf::SignalRecord> queries(f.queries.begin(),
                                              f.queries.begin() + n);
  const auto batched = client.PredictBatch(queries, "alpha");
  ASSERT_EQ(batched.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batched[i], f.reference[i]) << i;
  }
  server.Stop();
}

TEST(ServerTest, RoutesNamedModelsIndependently) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  auto registry = std::make_shared<ModelRegistry>();
  registry->Load("alpha", a.model);
  registry->Load("beta", b.model);
  Server server(registry);
  server.Start();
  Client client("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 10);
  // Interleave the two models on one connection: every answer must come
  // from the named model, bit-identical to that model's in-process
  // reference.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(a.queries[i], "alpha"), a.reference[i]) << i;
    EXPECT_EQ(client.Predict(b.queries[i], "beta"), b.reference[i]) << i;
    // Unnamed goes to the default (first-loaded) model: alpha.
    EXPECT_EQ(client.Predict(a.queries[i]), a.reference[i]) << i;
  }
  const std::vector<rf::SignalRecord> queries(a.queries.begin(),
                                              a.queries.begin() + n);
  const auto alpha = client.PredictBatch(queries, "alpha");
  const auto beta = client.PredictBatch(queries, "beta");
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(alpha[i], a.reference[i]) << i;
    EXPECT_EQ(beta[i], b.reference[i]) << i;
  }
  server.Stop();
}

TEST(ServerTest, UnknownModelYieldsStructuredErrorNotDroppedConnection) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  Client client("127.0.0.1", server.port());
  EXPECT_THROW(client.Predict(f.queries[0], "no-such-building"), Error);
  // The error was a per-record status: the connection (and daemon) live on.
  EXPECT_EQ(client.Predict(f.queries[0], "alpha"), f.reference[0]);
  const Pong pong = client.Ping("no-such-building");
  EXPECT_FALSE(pong.ok);
  EXPECT_NE(pong.error.find("no-such-building"), std::string::npos);
  EXPECT_THROW(client.Reload("no-such-building"), Error);
  EXPECT_EQ(client.Predict(f.queries[0]), f.reference[0]);
  server.Stop();
}

TEST(ServerTest, ListModelsAndStatsDescribeTheRegistry) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  auto registry = std::make_shared<ModelRegistry>();
  registry->Load("alpha", a.model);
  registry->Load("beta", b.model);
  Server server(registry);
  server.Start();
  Client client("127.0.0.1", server.port());

  const ListModelsResponse models = client.ListModels();
  EXPECT_EQ(models.default_model, "alpha");
  ASSERT_EQ(models.models.size(), 2u);
  EXPECT_EQ(models.models[0].name, "alpha");
  EXPECT_EQ(models.models[0].generation, 1u);
  EXPECT_FALSE(models.models[0].reloadable);
  EXPECT_EQ(models.models[1].name, "beta");

  const std::size_t n = 5;
  for (std::size_t i = 0; i < n; ++i) {
    client.Predict(a.queries[i], "alpha");
  }
  const StatsResponse all = client.Stats();
  EXPECT_GE(all.connections_accepted, 1u);
  ASSERT_EQ(all.models.size(), 2u);
  EXPECT_EQ(all.models[0].name, "alpha");
  EXPECT_EQ(all.models[0].requests, n);
  EXPECT_GE(all.models[0].batches, 1u);
  EXPECT_EQ(all.models[1].name, "beta");
  EXPECT_EQ(all.models[1].requests, 0u);

  const StatsResponse only_beta = client.Stats("beta");
  ASSERT_EQ(only_beta.models.size(), 1u);
  EXPECT_EQ(only_beta.models[0].name, "beta");
  EXPECT_TRUE(client.Stats("no-such-building").models.empty());
  server.Stop();
}

TEST(ServerTest, ConcurrentConnectionsQueueBehindABusyPoolAndAllAnswer) {
  const Fixture& f = ModelA();
  ThreadPool pool(1);
  auto registry = std::make_shared<ModelRegistry>(1, &pool);
  registry->Load("alpha", f.model);
  Server server(registry);
  server.Start();
  PoolLatch latch(pool);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 6;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t i = (c * kPerClient + k) % f.queries.size();
        if (client.Predict(f.queries[i]) != f.reference[i]) ++mismatches;
      }
    });
  }
  // Every connection's first predict is admitted and waits behind the
  // latch; none is lost or answered early.
  EXPECT_TRUE(WaitFor(
      [&] { return registry->Stats("alpha")[0].queue_depth == kClients; }));
  latch.Release();
  for (std::thread& thread : threads) thread.join();
  server.Stop();
  EXPECT_EQ(mismatches.load(), 0u);
  ASSERT_EQ(registry->Stats().size(), 1u);
  const ModelStats stats = registry->Stats()[0];
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  // One single-record request is one pool task.
  EXPECT_EQ(stats.batches, kClients * kPerClient);
  EXPECT_EQ(stats.max_batch, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServerTest, HotReloadSwapsSnapshotBetweenRequests) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  auto registry = AlphaRegistry();
  Server server(registry);
  server.Start();
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.Ping().model_generation, 1u);
  EXPECT_EQ(client.Predict(a.queries[0]), a.reference[0]);

  registry->Load("alpha", b.model);
  EXPECT_EQ(client.Ping().model_generation, 2u);
  const std::size_t n = std::min<std::size_t>(b.queries.size(), 6);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(b.queries[i]), b.reference[i]) << i;
  }
  server.Stop();
}

TEST(ServerTest, HotReloadWhileBatchInFlightServesOldOrNewSnapshot) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  auto registry = AlphaRegistry();
  Server server(registry);
  server.Start();
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 20);
  std::atomic<std::size_t> invalid{0};
  std::thread querier([&] {
    Client client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < n; ++i) {
      // Every answer must equal one of the two snapshots' references: a
      // batch caught mid-reload finishes on the snapshot it started with.
      const auto prediction = client.Predict(a.queries[i]);
      if (prediction != a.reference[i] && prediction != b.reference[i]) {
        ++invalid;
      }
    }
  });
  for (int swap = 0; swap < 6; ++swap) {
    registry->Load("alpha", swap % 2 == 0 ? b.model : a.model);
    std::this_thread::sleep_for(2ms);
  }
  querier.join();
  server.Stop();
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_EQ(registry->generation("alpha"), 7u);
}

TEST(ServerTest, PerModelReloadDoesNotDisturbOtherModels) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  const std::string path = testing::TempDir() + "serve_test_beta_model.bin";
  b.model->SaveModel(path);
  auto registry = std::make_shared<ModelRegistry>();
  registry->Load("alpha", a.model);
  registry->LoadFromDisk("beta", path);
  Server server(registry);
  server.Start();

  // Hammer alpha while beta hot-reloads from disk over the wire: alpha's
  // in-flight batches and answers must be byte-stable throughout.
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 20);
  std::atomic<std::size_t> mismatches{0};
  std::thread querier([&] {
    Client client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < n; ++i) {
      if (client.Predict(a.queries[i], "alpha") != a.reference[i]) {
        ++mismatches;
      }
    }
  });
  Client admin("127.0.0.1", server.port());
  std::uint64_t generation = 1;
  for (int reload = 0; reload < 3; ++reload) {
    generation = admin.Reload("beta");
  }
  querier.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(generation, 4u);
  EXPECT_EQ(registry->generation("alpha"), 1u);
  // Beta still answers its own reference after the reload churn.
  EXPECT_EQ(admin.Predict(b.queries[0], "beta"), b.reference[0]);
  server.Stop();
}

TEST(ServerTest, ReloadRequestWithoutModelPathFailsSoftly) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());  // no model path
  server.Start();
  Client client("127.0.0.1", server.port());
  EXPECT_THROW(client.Reload(), Error);
  // The refusal must not poison the connection or the daemon.
  EXPECT_TRUE(client.Ping().ok);
  EXPECT_EQ(client.Predict(f.queries[0]), f.reference[0]);
  server.Stop();
}

TEST(ClientTest, ReceiveLimitIsConfigurableAndEnforced) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  // A tiny receive cap makes the client reject its own (large, batched)
  // reply; the default cap accepts it. This is the client-side knob for
  // big batch responses.
  ClientConfig tiny;
  tiny.max_frame_bytes = 16;
  Client capped("127.0.0.1", server.port(), tiny);
  const std::vector<rf::SignalRecord> queries(f.queries.begin(),
                                              f.queries.begin() + 8);
  EXPECT_THROW(capped.PredictBatch(queries, "alpha"), Error);
  Client roomy("127.0.0.1", server.port());
  const auto batched = roomy.PredictBatch(queries, "alpha");
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], f.reference[i]) << i;
  }
  server.Stop();
}

TEST(ClientTest, SplitsDenseBatchesBySizeNotJustCount) {
  Server server(AlphaRegistry());
  server.Start();
  // 120 dense scans of 600 observations each encode to ~1.15 MiB — over
  // the daemon's 1 MiB frame cap, yet far under the 1024-record count cap.
  // The client must split by encoded size; count-only chunking would ship
  // one oversized frame and get the connection dropped. The synthetic MACs
  // share nothing with the model, so every record legitimately discards.
  std::vector<rf::SignalRecord> dense;
  dense.reserve(120);
  for (std::uint64_t r = 0; r < 120; ++r) {
    rf::SignalRecord record;
    for (std::uint64_t o = 0; o < 600; ++o) {
      record.Add(rf::MacAddress(0x010000000000ULL + r * 1000 + o), -60.0);
    }
    dense.push_back(std::move(record));
  }
  Client client("127.0.0.1", server.port());
  const auto predictions = client.PredictBatch(dense, "alpha");
  ASSERT_EQ(predictions.size(), dense.size());
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    EXPECT_EQ(predictions[i], std::nullopt) << i;
  }
  server.Stop();
}

int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)),
      0);
  return fd;
}

TEST(ServerTest, OutOfWindowFramesGetOneV7ErrorThenClose) {
  Server server(AlphaRegistry());
  server.Start();

  // A well-formed Ping in any dialect but v7 is malformed: one error reply
  // (DecodePayload accepts only v7, so decoding it proves its dialect),
  // then the daemon hangs up.
  for (const std::uint32_t version : {6u, 8u}) {
    std::ostringstream ping;
    WriteHeader(ping, kFrameMagic, version);
    WriteU8(ping, 3);  // kPing
    WriteString(ping, "");
    const std::string payload = std::move(ping).str();
    const auto length = static_cast<std::uint32_t>(payload.size());
    const int fd = ConnectRaw(server.port());
    ASSERT_EQ(::send(fd, &length, sizeof(length), 0),
              static_cast<ssize_t>(sizeof(length)));
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    const std::optional<std::string> reply = ReceiveFramePayload(fd);
    ASSERT_TRUE(reply.has_value()) << "version " << version;
    const Message decoded = DecodePayload(*reply);
    const auto* response = std::get_if<PredictResponse>(&decoded);
    ASSERT_NE(response, nullptr) << "version " << version;
    ASSERT_EQ(response->results.size(), 1u);
    EXPECT_EQ(response->results.front().status, PredictStatus::kError);
    EXPECT_FALSE(ReceiveFramePayload(fd).has_value()) << "version " << version;
    ::close(fd);
  }

  // A v7 Ping on a fresh connection is still served.
  Client client("127.0.0.1", server.port());
  const Pong pong = client.Ping();
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.protocol_version, 7u);
  server.Stop();
}

TEST(ServerTest, GarbageFrameGetsErrorReplyAndServerSurvives) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();

  const int fd = ConnectRaw(server.port());
  const std::string garbage = "BAD!magic-and-no-version";
  const auto length = static_cast<std::uint32_t>(garbage.size());
  ASSERT_EQ(::send(fd, &length, sizeof(length), 0),
            static_cast<ssize_t>(sizeof(length)));
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));
  // The server answers with a kError predict response, then hangs up.
  const std::optional<Message> reply = ReceiveFrame(fd);
  ASSERT_TRUE(reply.has_value());
  const auto* response = std::get_if<PredictResponse>(&*reply);
  ASSERT_NE(response, nullptr);
  ASSERT_EQ(response->results.size(), 1u);
  EXPECT_EQ(response->results.front().status, PredictStatus::kError);
  EXPECT_FALSE(ReceiveFramePayload(fd).has_value());
  ::close(fd);

  // Protocol errors are per-connection: a fresh client still gets served.
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.Predict(f.queries[0]), f.reference[0]);
  server.Stop();
}

TEST(ServerTest, StopIsIdempotentAndRestartForbidden) {
  Server server(AlphaRegistry());
  server.Start();
  EXPECT_THROW(server.Start(), Error);
  server.Stop();
  server.Stop();
}

// --- online ingestion over the wire ---------------------------------------

TEST(ServerTest, SubmitWithoutPipelineIsAStructuredRejection) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  Client client("127.0.0.1", server.port());
  const auto results = client.Submit({f.queries[0], f.queries[1]});
  ASSERT_EQ(results.size(), 2u);
  for (const SubmitResult& result : results) {
    EXPECT_EQ(result.status, SubmitStatus::kRejected);
    EXPECT_NE(result.error.find("ingest disabled"), std::string::npos);
  }
  EXPECT_FALSE(client.IngestStats().enabled);
  // The rejection poisons neither the connection nor predict traffic.
  EXPECT_EQ(client.Predict(f.queries[0], "alpha"), f.reference[0]);
  server.Stop();
}

TEST(ServerTest, SubmittedRecordsAreFoldedAndChangeServedPredictions) {
  const Fixture& f = ModelA();
  auto registry = AlphaRegistry();
  ingest::IngestConfig ingest_config;
  // One deterministic fold of the whole stream, so the post-publish model
  // must equal an in-process Update on the same records.
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 8);
  ingest_config.fold_batch_size = n;
  ingest_config.max_delay = std::chrono::milliseconds(30000);
  auto pipeline =
      std::make_shared<ingest::IngestPipeline>(registry, ingest_config);
  pipeline->Attach("alpha");
  Server server(registry, {});
  server.AttachIngest(pipeline);
  server.Start();
  Client client("127.0.0.1", server.port());

  const std::vector<rf::SignalRecord> stream(f.queries.begin(),
                                             f.queries.begin() + n);
  const auto results = client.Submit(stream, "alpha");
  ASSERT_EQ(results.size(), n);
  for (const SubmitResult& result : results) {
    EXPECT_EQ(result.status, SubmitStatus::kAccepted) << result.error;
  }
  ASSERT_TRUE(pipeline->WaitUntilDrained());

  // Generation bump observable over the wire, with ingest provenance.
  EXPECT_EQ(client.Ping("alpha").model_generation, 2u);
  const StatsResponse stats = client.Stats("alpha");
  ASSERT_EQ(stats.models.size(), 1u);
  EXPECT_EQ(stats.models[0].last_publish_source, PublishSource::kIngest);
  EXPECT_EQ(stats.models[0].pending_ingest, 0u);
  const IngestStatsResponse ingest_stats = client.IngestStats();
  ASSERT_TRUE(ingest_stats.enabled);
  ASSERT_EQ(ingest_stats.models.size(), 1u);
  EXPECT_EQ(ingest_stats.models[0].accepted, n);
  EXPECT_EQ(ingest_stats.models[0].folded, n);
  EXPECT_EQ(ingest_stats.models[0].pending, 0u);

  // Post-publish answers over the wire == in-process Update on a clone.
  core::Grafics reference = f.model->Clone();
  reference.Update(stream);
  const auto expected = reference.PredictBatch(f.queries, {.num_threads = 1});
  const auto served = client.PredictBatch(f.queries, "alpha");
  for (std::size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_EQ(served[i], expected[i]) << i;
  }
  server.Stop();
  pipeline->Stop();
}

TEST(ServerTest, PredictionsInFlightAcrossAFoldInSeeOldOrNewSnapshot) {
  const Fixture& f = ModelA();
  auto registry = AlphaRegistry();
  ingest::IngestConfig ingest_config;
  ingest_config.fold_batch_size = 2;
  ingest_config.max_delay = 1ms;
  auto pipeline =
      std::make_shared<ingest::IngestPipeline>(registry, ingest_config);
  pipeline->Attach("alpha");
  Server server(registry, {});
  server.AttachIngest(pipeline);
  server.Start();

  // Every possible published state's reference: the base model, then one
  // per fold of the next 2-record chunk.
  const std::size_t folds = 3;
  std::vector<std::vector<std::optional<rf::FloorId>>> references;
  references.push_back(f.reference);
  {
    core::Grafics reference = f.model->Clone();
    for (std::size_t fold = 0; fold < folds; ++fold) {
      const std::vector<rf::SignalRecord> chunk(
          f.queries.begin() + static_cast<long>(2 * fold),
          f.queries.begin() + static_cast<long>(2 * fold + 2));
      reference.Update(chunk);
      references.push_back(
          reference.PredictBatch(f.queries, {.num_threads = 1}));
    }
  }

  // Hammer predictions while the folds publish underneath: every answer
  // must be bit-identical to one of the snapshots' references — a batch
  // caught mid-publish finishes on the snapshot it started with.
  std::atomic<std::size_t> invalid{0};
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 20);
  std::thread querier([&] {
    Client client("127.0.0.1", server.port());
    for (std::size_t i = 0; i < n; ++i) {
      const auto prediction = client.Predict(f.queries[i], "alpha");
      bool matched = false;
      for (const auto& reference : references) {
        if (prediction == reference[i]) matched = true;
      }
      if (!matched) ++invalid;
    }
  });
  Client submitter("127.0.0.1", server.port());
  for (std::size_t fold = 0; fold < folds; ++fold) {
    const std::vector<rf::SignalRecord> chunk(
        f.queries.begin() + static_cast<long>(2 * fold),
        f.queries.begin() + static_cast<long>(2 * fold + 2));
    const auto results = submitter.Submit(chunk, "alpha");
    for (const SubmitResult& result : results) {
      ASSERT_EQ(result.status, SubmitStatus::kAccepted) << result.error;
    }
    ASSERT_TRUE(pipeline->WaitUntilDrained());
  }
  querier.join();
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_EQ(registry->generation("alpha"), 1u + folds);
  // After the last publish, answers equal the final reference exactly.
  Client client("127.0.0.1", server.port());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(f.queries[i], "alpha"),
              references.back()[i]) << i;
  }
  server.Stop();
  pipeline->Stop();
}

// --- event-driven transport ------------------------------------------------

void SendAllRaw(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

TEST(ServerTest, PipelinedBurstOnOneSocketIsAnsweredInOrder) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  const int fd = ConnectRaw(server.port());
  // Fire a burst of frames without reading a single reply — always legal
  // framing, which the old transport just happened to serve one at a time.
  // A ping rides in the middle: ordering is per frame, not per type.
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 24);
  const std::size_t ping_at = n / 2;
  std::string burst;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == ping_at) burst += EncodeFrame(Ping{});
    burst += EncodeFrame(PredictRequest{"", {f.queries[i]}});
  }
  SendAllRaw(fd, burst);
  std::size_t predict_index = 0;
  for (std::size_t i = 0; i < n + 1; ++i) {
    const std::optional<std::string> payload = ReceiveFramePayload(fd);
    ASSERT_TRUE(payload.has_value()) << "reply " << i;
    const Message reply = DecodePayload(*payload);
    if (i == ping_at) {
      const auto* pong = std::get_if<Pong>(&reply);
      ASSERT_NE(pong, nullptr) << "pong must hold its place in the pipeline";
      EXPECT_TRUE(pong->ok);
      continue;
    }
    const auto* response = std::get_if<PredictResponse>(&reply);
    ASSERT_NE(response, nullptr) << "reply " << i;
    ASSERT_EQ(response->results.size(), 1u);
    const PredictResult& result = response->results.front();
    const std::optional<rf::FloorId>& expected = f.reference[predict_index];
    if (expected.has_value()) {
      EXPECT_EQ(result.status, PredictStatus::kOk) << predict_index;
      EXPECT_EQ(result.floor, *expected) << predict_index;
    } else {
      EXPECT_EQ(result.status, PredictStatus::kDiscarded) << predict_index;
    }
    ++predict_index;
  }
  ::close(fd);
  const TransportStats transport = server.transport_stats();
  EXPECT_GE(transport.frames_in, n + 1);
  EXPECT_GE(transport.frames_out, n + 1);
  EXPECT_GT(transport.bytes_in, 0u);
  EXPECT_GT(transport.bytes_out, 0u);
  server.Stop();
}

TEST(ServerTest, StatsCarriesTransportCountersOverTheWire) {
  const Fixture& f = ModelA();
  Server server(AlphaRegistry());
  server.Start();
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.Predict(f.queries[0], "alpha"), f.reference[0]);
  const StatsResponse stats = client.Stats();
  EXPECT_EQ(stats.transport.event_workers, 2u);  // ServerConfig default
  EXPECT_GE(stats.transport.connections_live, 1u);  // this very connection
  EXPECT_GT(stats.transport.frames_in, 0u);
  EXPECT_GT(stats.transport.frames_out, 0u);
  EXPECT_GT(stats.transport.bytes_in, 0u);
  EXPECT_GT(stats.transport.bytes_out, 0u);
  EXPECT_EQ(stats.transport.connections_harvested_idle, 0u);
  EXPECT_EQ(stats.transport.requests_rejected_busy, 0u);
  server.Stop();
}

TEST(ServerTest, SlowLorisPartialFrameIsHarvestedByIdleTimeout) {
  const Fixture& f = ModelA();
  ServerConfig config;
  config.idle_timeout = std::chrono::milliseconds(100);
  Server server(AlphaRegistry(), config);
  server.Start();
  const int fd = ConnectRaw(server.port());
  // A length prefix declaring 64 bytes, then silence. The old transport
  // parked a handler thread on this socket forever.
  const std::uint32_t declared = 64;
  ASSERT_EQ(::send(fd, &declared, sizeof(declared), 0),
            static_cast<ssize_t>(sizeof(declared)));
  // Poll the counter rather than blocking in recv: sanitizer runtimes can
  // interrupt a bare blocking recv before the sweep fires.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (server.transport_stats().connections_harvested_idle == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.transport_stats().connections_harvested_idle, 1u);
  // The harvester closed the connection: recv resolves with EOF (or a
  // reset) instead of hanging.
  char byte = 0;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  // An active client is not collateral damage.
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.Predict(f.queries[0], "alpha"), f.reference[0]);
  server.Stop();
}

TEST(ServerTest, QueueDepthRejectionIsAStructuredBusyError) {
  const Fixture& f = ModelA();
  ThreadPool pool(1);
  auto registry = std::make_shared<ModelRegistry>(1, &pool);
  registry->Load("alpha", f.model);
  ServerConfig config;
  config.max_queue_depth = 2;
  Server server(registry, config);
  server.Start();
  PoolLatch latch(pool);
  // Two records fill the 2-deep queue while the pool is busy.
  const std::vector<rf::SignalRecord> two(f.queries.begin(),
                                          f.queries.begin() + 2);
  std::vector<std::optional<rf::FloorId>> queued;
  std::thread holder([&] {
    Client holder_client("127.0.0.1", server.port());
    queued = holder_client.PredictBatch(two, "alpha");
  });
  EXPECT_TRUE(
      WaitFor([&] { return registry->Stats("alpha")[0].queue_depth == 2; }));
  Client client("127.0.0.1", server.port());
  // Neither one more record nor five fit: each request is refused whole
  // (admission is all-or-nothing) with a structured busy error the client
  // decodes.
  const std::vector<rf::SignalRecord> five(f.queries.begin(),
                                           f.queries.begin() + 5);
  for (const auto& batch : {std::vector<rf::SignalRecord>{f.queries[2]},
                            five}) {
    try {
      client.PredictBatch(batch, "alpha");
      ADD_FAILURE() << "expected a busy rejection";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("busy"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(registry->Stats("alpha")[0].queue_depth, 2u);
  latch.Release();
  holder.join();
  ASSERT_EQ(queued.size(), 2u);
  EXPECT_EQ(queued[0], f.reference[0]);
  EXPECT_EQ(queued[1], f.reference[1]);
  // Neither the connection nor the model is poisoned: once the queue
  // drains, a fitting batch is admitted and served bit-identically.
  const auto served = client.PredictBatch(two, "alpha");
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0], f.reference[0]);
  EXPECT_EQ(served[1], f.reference[1]);
  EXPECT_EQ(server.transport_stats().requests_rejected_busy, 2u);
  server.Stop();
}

TEST(ServerTest, MaxInflightBusyRejectsTheExcessButKeepsReplyOrder) {
  const Fixture& f = ModelA();
  ThreadPool pool(1);
  auto registry = std::make_shared<ModelRegistry>(1, &pool);
  registry->Load("alpha", f.model);
  ServerConfig config;
  config.max_inflight_per_connection = 1;
  Server server(registry, config);
  server.Start();
  PoolLatch latch(pool);  // nothing is predicted until it opens
  const int fd = ConnectRaw(server.port());
  std::string burst = EncodeFrame(PredictRequest{"", {f.queries[0]}});
  burst += EncodeFrame(PredictRequest{"", {f.queries[1]}});
  SendAllRaw(fd, burst);
  // Wait until the first predict sits in the queue and the second was
  // busy-rejected; the rejection's reply must still wait in line
  // behind the first one's.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while ((registry->Stats("alpha")[0].queue_depth < 1 ||
          server.transport_stats().requests_rejected_busy < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(registry->Stats("alpha")[0].queue_depth, 1u);
  ASSERT_EQ(server.transport_stats().requests_rejected_busy, 1u);
  latch.Release();  // the first predict runs and resolves
  const std::optional<std::string> first = ReceiveFramePayload(fd);
  ASSERT_TRUE(first.has_value());
  const Message first_reply = DecodePayload(*first);
  const auto* first_response = std::get_if<PredictResponse>(&first_reply);
  ASSERT_NE(first_response, nullptr);
  ASSERT_EQ(first_response->results.size(), 1u);
  if (f.reference[0].has_value()) {
    EXPECT_EQ(first_response->results[0].status, PredictStatus::kOk);
    EXPECT_EQ(first_response->results[0].floor, *f.reference[0]);
  } else {
    EXPECT_EQ(first_response->results[0].status, PredictStatus::kDiscarded);
  }
  const std::optional<std::string> second = ReceiveFramePayload(fd);
  ASSERT_TRUE(second.has_value());
  const Message second_reply = DecodePayload(*second);
  const auto* second_response = std::get_if<PredictResponse>(&second_reply);
  ASSERT_NE(second_response, nullptr);
  ASSERT_EQ(second_response->results.size(), 1u);
  EXPECT_EQ(second_response->results[0].status, PredictStatus::kError);
  EXPECT_NE(second_response->results[0].error.find("busy"),
            std::string::npos);
  ::close(fd);
  server.Stop();
}

TEST(ServerTest, LonePredictsOnAnIdleServerRunInPlaceNeverQueued) {
  const Fixture& f = ModelA();
  ThreadPool pool(1);
  auto registry = std::make_shared<ModelRegistry>(1, &pool);
  registry->Load("alpha", f.model);
  Server server(registry);
  server.Start();
  // Sample the queue depth for the whole run: a lone predict on an idle
  // pool is never queued, not even for an instant.
  std::atomic<bool> polling{true};
  std::atomic<std::uint64_t> deepest{0};
  std::thread poller([&] {
    while (polling.load()) {
      const std::uint64_t depth = registry->Stats("alpha")[0].queue_depth;
      if (depth > deepest.load()) deepest = depth;
      std::this_thread::sleep_for(50us);
    }
  });
  Client client("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 16);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(f.queries[i]), f.reference[i]) << i;
  }
  polling = false;
  poller.join();
  server.Stop();
  EXPECT_EQ(deepest.load(), 0u);
  EXPECT_EQ(registry->InlineTasks("alpha"), n);
  const ModelStats stats = registry->Stats("alpha")[0];
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.batches, n);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServerTest, PipelinedBurstRunsOnlyItsFirstFrameInPlaceInOrder) {
  const Fixture& f = ModelA();
  auto registry = AlphaRegistry();
  Server server(registry);
  server.Start();
  const int fd = ConnectRaw(server.port());
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 16);
  std::string burst;
  for (std::size_t i = 0; i < n; ++i) {
    burst += EncodeFrame(PredictRequest{"", {f.queries[i]}});
  }
  // One loopback send arrives as one segment, so the event worker parses
  // the whole burst in one read: the first frame is its connection's only
  // open request and runs in place; every later one finds it still open
  // (its reply is flushed after the read) and goes to the pool.
  SendAllRaw(fd, burst);
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<std::string> payload = ReceiveFramePayload(fd);
    ASSERT_TRUE(payload.has_value()) << "reply " << i;
    const Message reply = DecodePayload(*payload);
    const auto* response = std::get_if<PredictResponse>(&reply);
    ASSERT_NE(response, nullptr) << "reply " << i;
    ASSERT_EQ(response->results.size(), 1u);
    const PredictResult& result = response->results.front();
    ASSERT_NE(result.status, PredictStatus::kError) << result.error;
    const std::optional<rf::FloorId> prediction =
        result.status == PredictStatus::kOk
            ? std::optional<rf::FloorId>(result.floor)
            : std::nullopt;
    EXPECT_EQ(prediction, f.reference[i]) << "reply " << i;
  }
  ::close(fd);
  server.Stop();
  EXPECT_EQ(registry->InlineTasks("alpha"), 1u);
  EXPECT_EQ(registry->Stats("alpha")[0].batches, n);
}

TEST(ServerTest, HotSwapUnderPipelinedTrafficStaysBitIdentical) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();  // same building + queries, different seed
  auto registry = std::make_shared<ModelRegistry>();
  registry->Load("alpha", a.model);
  Server server(registry);
  server.Start();
  const int fd = ConnectRaw(server.port());
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 20);
  std::string burst;
  for (std::size_t i = 0; i < n; ++i) {
    burst += EncodeFrame(PredictRequest{"", {a.queries[i]}});
  }
  SendAllRaw(fd, burst);
  // Swap the model while the burst is in flight: every reply must be
  // bit-identical to one of the two snapshots' references — a batch caught
  // mid-swap finishes on the snapshot it started with, never on a blend.
  registry->Load("alpha", b.model);
  for (std::size_t i = 0; i < n; ++i) {
    const std::optional<std::string> payload = ReceiveFramePayload(fd);
    ASSERT_TRUE(payload.has_value()) << "reply " << i;
    const Message reply = DecodePayload(*payload);
    const auto* response = std::get_if<PredictResponse>(&reply);
    ASSERT_NE(response, nullptr) << "reply " << i;
    ASSERT_EQ(response->results.size(), 1u);
    const PredictResult& result = response->results.front();
    ASSERT_NE(result.status, PredictStatus::kError) << result.error;
    const std::optional<rf::FloorId> prediction =
        result.status == PredictStatus::kOk
            ? std::optional<rf::FloorId>(result.floor)
            : std::nullopt;
    EXPECT_TRUE(prediction == a.reference[i] || prediction == b.reference[i])
        << i;
  }
  ::close(fd);
  // Batches submitted after the swap see exactly the new snapshot.
  Client client("127.0.0.1", server.port());
  const std::vector<rf::SignalRecord> queries(b.queries.begin(),
                                              b.queries.begin() + n);
  const auto after = client.PredictBatch(queries, "alpha");
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(after[i], b.reference[i]) << i;
  }
  server.Stop();
}

// --- end-to-end telemetry -------------------------------------------------

/// One HTTP/1.0 request against the admin listener, read to EOF (the admin
/// surface speaks Connection: close).
std::string HttpRequest(std::uint16_t port, const std::string& head) {
  const int fd = ConnectRaw(port);
  SendAllRaw(fd, head);
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return HttpRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

/// Value of the exposition series whose name+labels match `series` exactly.
std::optional<std::uint64_t> MetricValue(const std::string& text,
                                         const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stoull(text.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  return std::nullopt;
}

TEST(AdminServerTest, ServesMetricsHealthAndReadiness) {
  std::atomic<bool> ready{false};
  obs::AdminServer admin(
      {}, [] { return std::string("grafics_up 1\n"); },
      [&ready]() -> bool {
        if (!ready.load()) throw Error("probe not ready");  // throw == 503
        return true;
      });
  admin.Start();
  ASSERT_NE(admin.port(), 0);

  const std::string metrics = HttpGet(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("grafics_up 1\n"), std::string::npos);

  const std::string health = HttpGet(admin.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  // The probe throws until flipped: /readyz degrades to 503, never a crash.
  EXPECT_NE(HttpGet(admin.port(), "/readyz").find("HTTP/1.0 503"),
            std::string::npos);
  ready.store(true);
  EXPECT_NE(HttpGet(admin.port(), "/readyz").find("HTTP/1.0 200"),
            std::string::npos);

  EXPECT_NE(HttpGet(admin.port(), "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(
      HttpRequest(admin.port(), "POST /metrics HTTP/1.0\r\n\r\n")
          .find("HTTP/1.0 405"),
      std::string::npos);
  admin.Stop();
}

TEST(ServerTest, MetricsScrapeMatchesStatsResponseEndToEnd) {
  const Fixture& f = ModelA();
  auto obs_registry = std::make_shared<obs::Registry>();
  auto registry = std::make_shared<ModelRegistry>(1, nullptr, obs_registry);
  registry->Load("alpha", f.model);
  ServerConfig config;
  config.slow_request_us = 1;  // every request counts (and logs) as slow
  config.idle_timeout = std::chrono::milliseconds(100);
  Server server(registry, config);
  server.Start();
  obs::AdminServer admin(
      {}, [obs_registry] { return obs_registry->RenderPrometheus(); },
      [registry] { return registry->generation("alpha") > 0; });
  admin.Start();
  EXPECT_NE(HttpGet(admin.port(), "/readyz").find("HTTP/1.0 200"),
            std::string::npos);

  Client client("127.0.0.1", server.port());
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 12);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(client.Predict(f.queries[i]), f.reference[i]) << i;
  }
  // A harvested slow-loris connection feeds the sweep instruments.
  const int loris = ConnectRaw(server.port());
  const std::uint32_t declared = 64;
  ASSERT_EQ(::send(loris, &declared, sizeof(declared), 0),
            static_cast<ssize_t>(sizeof(declared)));
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (server.transport_stats().connections_harvested_idle == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(loris);
  // The first client sat idle through the harvest wait and may have been
  // swept with the loris — query stats over a fresh connection.
  Client stats_client("127.0.0.1", server.port());
  const StatsResponse stats = stats_client.Stats();
  ASSERT_EQ(stats.models.size(), 1u);

  // No traffic reaches the daemon between the Stats reply and the scrape:
  // the scrape goes through the admin listener, whose loop counts into its
  // own registry. Both views read the same instruments and must match
  // exactly. (frames_out and bytes_out would still differ by the Stats
  // reply itself, counted once it is flushed.)
  const std::string response = HttpGet(admin.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_EQ(MetricValue(body,
                        "grafics_batcher_requests_total{model=\"alpha\"}"),
            stats.models[0].requests);
  EXPECT_EQ(
      MetricValue(body, "grafics_batcher_batches_total{model=\"alpha\"}"),
      stats.models[0].batches);
  EXPECT_EQ(MetricValue(body, "grafics_model_generation{model=\"alpha\"}"),
            stats.models[0].generation);
  EXPECT_EQ(
      MetricValue(body,
                  "grafics_model_snapshot_shared_bytes{model=\"alpha\"}"),
      stats.models[0].shared_bytes);
  EXPECT_EQ(MetricValue(body, "grafics_transport_frames_in_total"),
            stats.transport.frames_in);
  EXPECT_EQ(MetricValue(body, "grafics_transport_bytes_in_total"),
            stats.transport.bytes_in);
  EXPECT_EQ(MetricValue(body, "grafics_transport_accepts_total"),
            stats.connections_accepted);
  EXPECT_GE(
      *MetricValue(body, "grafics_transport_connections_harvested_total"),
      1u);
  EXPECT_GE(*MetricValue(body, "grafics_transport_harvest_sweeps_total"), 1u);
  // Latency distributions observed on the request path.
  EXPECT_EQ(*MetricValue(
                body, "grafics_batcher_queue_wait_us_count{model=\"alpha\"}"),
            stats.models[0].requests);
  EXPECT_EQ(
      *MetricValue(body, "grafics_batcher_predict_us_count{model=\"alpha\"}"),
      stats.models[0].batches);
  EXPECT_GE(*MetricValue(body, "grafics_transport_frame_decode_us_count"),
            static_cast<std::uint64_t>(n));
  // Threshold of 1us makes every predict a slow request.
  EXPECT_EQ(*MetricValue(body, "grafics_server_slow_requests_total"),
            static_cast<std::uint64_t>(n));

  // The v7 wire dump is the same registry render as the admin scrape.
  const std::string wire = stats_client.Metrics();
  EXPECT_NE(wire.find("# TYPE grafics_batcher_queue_wait_us histogram"),
            std::string::npos);
  EXPECT_EQ(MetricValue(wire,
                        "grafics_batcher_requests_total{model=\"alpha\"}"),
            stats.models[0].requests);

  admin.Stop();
  server.Stop();
}

// Per-name counters are Prometheus counters: an Unload does not reset them,
// and a later Load of the same name keeps counting. The wire Stats reply
// reads the same instruments, so every view reports the same totals.
TEST(ServerTest, DispatchCountersAgreeAcrossUnloadAndReload) {
  const Fixture& f = ModelA();
  auto registry = AlphaRegistry();
  registry->Load("beta", f.model);
  Server server(registry);
  server.Start();
  Client client("127.0.0.1", server.port());
  constexpr std::size_t kBefore = 5;
  for (std::size_t i = 0; i < kBefore; ++i) {
    EXPECT_EQ(client.Predict(f.queries[i], "beta"), f.reference[i]) << i;
  }
  registry->Unload("beta");
  registry->Load("beta", f.model);
  // One 4-record request on the single-thread pool is one task.
  constexpr std::size_t kAfter = 4;
  const std::vector<rf::SignalRecord> after(f.queries.begin(),
                                            f.queries.begin() + kAfter);
  const auto served = client.PredictBatch(after, "beta");
  for (std::size_t i = 0; i < kAfter; ++i) {
    EXPECT_EQ(served[i], f.reference[i]) << i;
  }

  const StatsResponse stats = client.Stats("beta");
  ASSERT_EQ(stats.models.size(), 1u);
  const ModelStats& beta = stats.models[0];
  EXPECT_EQ(beta.requests, kBefore + kAfter);
  EXPECT_EQ(beta.batches, kBefore + 1);
  EXPECT_EQ(beta.generation, 1u);  // a fresh load restarts the generation
  const std::string text = client.Metrics();
  EXPECT_EQ(MetricValue(text, "grafics_batcher_requests_total{model=\"beta\"}"),
            beta.requests);
  EXPECT_EQ(MetricValue(text, "grafics_batcher_batches_total{model=\"beta\"}"),
            beta.batches);
  EXPECT_EQ(
      MetricValue(text, "grafics_batcher_batch_size_count{model=\"beta\"}"),
      beta.batches);
  server.Stop();
}

TEST(ServerTest, TelemetryCoversIngestAndStoreFamilies) {
  const Fixture& f = ModelA();
  auto obs_registry = std::make_shared<obs::Registry>();
  auto registry = std::make_shared<ModelRegistry>(1, nullptr, obs_registry);
  registry->Load("alpha", f.model);
  // A fresh store directory every run: artifact counts below are absolute.
  std::string dir_template = testing::TempDir() + "/grafics_obs_store_XXXXXX";
  std::vector<char> dir(dir_template.begin(), dir_template.end());
  dir.push_back('\0');
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  auto store = std::make_shared<store::ModelStore>(dir.data(), obs_registry);
  store->WriteBase("alpha", f.model);
  ingest::IngestConfig ingest_config;
  const std::size_t n = std::min<std::size_t>(f.queries.size(), 4);
  ingest_config.fold_batch_size = n;
  ingest_config.max_delay = std::chrono::milliseconds(30000);
  auto pipeline =
      std::make_shared<ingest::IngestPipeline>(registry, ingest_config);
  pipeline->Attach("alpha");
  Server server(registry, {});
  server.AttachIngest(pipeline);
  server.Start();
  Client client("127.0.0.1", server.port());
  const std::vector<rf::SignalRecord> stream(f.queries.begin(),
                                             f.queries.begin() + n);
  for (const SubmitResult& result : client.Submit(stream, "alpha")) {
    EXPECT_EQ(result.status, SubmitStatus::kAccepted) << result.error;
  }
  ASSERT_TRUE(pipeline->WaitUntilDrained());

  const std::string text = obs_registry->RenderPrometheus();
  EXPECT_EQ(MetricValue(text,
                        "grafics_ingest_accepted_total{model=\"alpha\"}"),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(MetricValue(text, "grafics_ingest_folded_total{model=\"alpha\"}"),
            static_cast<std::uint64_t>(n));
  EXPECT_EQ(MetricValue(text, "grafics_ingest_backlog{model=\"alpha\"}"), 0u);
  EXPECT_GE(*MetricValue(text,
                         "grafics_ingest_publishes_total{model=\"alpha\"}"),
            1u);
  EXPECT_GE(*MetricValue(text,
                         "grafics_ingest_fold_us_count{model=\"alpha\"}"),
            1u);
  EXPECT_GE(*MetricValue(text, "grafics_store_checkpoint_us_count"), 1u);
  EXPECT_EQ(MetricValue(text, "grafics_store_base_artifacts"), 1u);
  EXPECT_EQ(MetricValue(text, "grafics_store_delta_artifacts"), 0u);
  EXPECT_EQ(MetricValue(text, "grafics_store_chain_length{model=\"alpha\"}"),
            1u);
  server.Stop();
  pipeline->Stop();
}

}  // namespace
}  // namespace grafics::serve
