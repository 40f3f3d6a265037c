// Tests for the online ingestion subsystem: the durable record journal
// (round trips, torn-tail truncation after a simulated crash mid-write,
// CRC rejection, model-name binding), the ingest pipeline (background
// fold-in published with Update semantics and bit-exact equivalence to an
// in-process reference, validation and backpressure rejections, stats),
// and journal replay into a fresh registry — the daemon-restart story.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/grafics.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/record_journal.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "store/model_store.h"
#include "synth/presets.h"

namespace grafics::ingest {
namespace {

using namespace std::chrono_literals;

rf::SignalRecord MakeRecord(std::uint64_t seed,
                            std::optional<rf::FloorId> floor = std::nullopt) {
  rf::SignalRecord record;
  record.Add(rf::MacAddress(0x020000000000ULL + seed * 7), -40.0 - seed);
  record.Add(rf::MacAddress(0x030000000000ULL + seed * 13), -60.0);
  record.set_floor(floor);
  return record;
}

std::string TempJournalPath(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(JournalFileNameTest, EscapesEverythingOutsideTheSafeSet) {
  EXPECT_EQ(JournalFileName("campus"), "campus.journal");
  EXPECT_EQ(JournalFileName("hk.tower_3-b"), "hk.tower_3-b.journal");
  // '/' must never survive into the file name — a model called "../x"
  // would otherwise escape the journal directory.
  EXPECT_EQ(JournalFileName("../x"), "..%2Fx.journal");
  EXPECT_EQ(JournalFileName("a/b"), "a%2Fb.journal");
}

TEST(RecordJournalTest, RoundTripsRecordsAndFoldCommits) {
  const std::string path = TempJournalPath("journal_roundtrip.journal");
  const std::vector<rf::SignalRecord> first = {MakeRecord(1, 3),
                                               MakeRecord(2)};
  const std::vector<rf::SignalRecord> second = {MakeRecord(3)};
  {
    RecordJournal journal(path, "campus");
    EXPECT_EQ(journal.TakeReplay().TotalRecords(), 0u);
    journal.Append(first);
    journal.CommitFold(first.size());
    journal.Append(second);  // accepted but never folded
  }
  RecordJournal reopened(path, "campus");
  const JournalReplay replay = reopened.TakeReplay();
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.folded_batches.size(), 1u);
  EXPECT_EQ(replay.folded_batches[0], first);
  EXPECT_EQ(replay.unfolded, second);
  EXPECT_EQ(replay.TotalRecords(), 3u);
}

TEST(RecordJournalTest, ToleratesTornTailAndKeepsAppending) {
  const std::string path = TempJournalPath("journal_torn.journal");
  {
    RecordJournal journal(path, "campus");
    journal.Append(std::vector<rf::SignalRecord>{MakeRecord(1)});
  }
  {
    // Crash mid-write: half a frame header lands on disk.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn.write("\x40\x00", 2);
  }
  {
    RecordJournal journal(path, "campus");
    const JournalReplay replay = journal.TakeReplay();
    EXPECT_EQ(replay.unfolded.size(), 1u);
    EXPECT_EQ(replay.dropped_bytes, 2u);
    // The tail was truncated, so appending continues from a clean frame
    // boundary instead of burying new records behind garbage.
    journal.Append(std::vector<rf::SignalRecord>{MakeRecord(2)});
  }
  RecordJournal reopened(path, "campus");
  const JournalReplay replay = reopened.TakeReplay();
  EXPECT_EQ(replay.dropped_bytes, 0u);
  EXPECT_EQ(replay.unfolded.size(), 2u);
}

TEST(RecordJournalTest, CrcCorruptionCutsReplayAtTheCorruptFrame) {
  const std::string path = TempJournalPath("journal_crc.journal");
  std::uint64_t before_second = 0;
  {
    RecordJournal journal(path, "campus");
    journal.Append(std::vector<rf::SignalRecord>{MakeRecord(1)});
    before_second = journal.bytes();
    journal.Append(std::vector<rf::SignalRecord>{MakeRecord(2)});
  }
  {
    // Flip one payload byte of the second frame: its CRC no longer
    // matches, so replay must stop after the first record.
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(before_second) + 9);
    file.put('\xFF');
  }
  RecordJournal reopened(path, "campus");
  const JournalReplay replay = reopened.TakeReplay();
  EXPECT_EQ(replay.unfolded.size(), 1u);
  EXPECT_GT(replay.dropped_bytes, 0u);
}

TEST(RecordJournalTest, RejectsAJournalRecordedForAnotherModel) {
  const std::string path = TempJournalPath("journal_name.journal");
  { RecordJournal journal(path, "campus"); }
  EXPECT_THROW(RecordJournal(path, "mall"), Error);
}

TEST(RecordJournalTest, RecoversFromAHeaderTornByTheFirstCrash) {
  const std::string path = TempJournalPath("journal_torn_header.journal");
  {
    // A crash mid-first-write leaves a strict prefix of the header: no
    // record was ever accepted, so the journal reinitializes itself.
    std::ofstream torn(path, std::ios::binary);
    torn.write("GJNL\x01", 5);
  }
  RecordJournal journal(path, "campus");
  const JournalReplay replay = journal.TakeReplay();
  EXPECT_EQ(replay.TotalRecords(), 0u);
  EXPECT_EQ(replay.dropped_bytes, 5u);
  journal.Append(std::vector<rf::SignalRecord>{MakeRecord(1)});
}

// --- pipeline fixtures ----------------------------------------------------

core::GraficsConfig FastConfig() {
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 60;
  config.online_refine_iterations = 300;
  return config;
}

/// Trained base model plus an ingest stream and held-out queries.
struct Fixture {
  core::Grafics base{FastConfig()};
  std::vector<rf::SignalRecord> stream;
  std::vector<rf::SignalRecord> queries;

  Fixture() {
    auto config = synth::CampusBuildingConfig(/*seed=*/61, 60);
    auto sim = config.MakeSimulator();
    rf::Dataset dataset = sim.GenerateDataset();
    Rng rng(62);
    auto [train, rest] = dataset.TrainTestSplit(0.6, rng);
    train.KeepLabelsPerFloor(4, rng);
    base.Train(train.records());
    const std::size_t half = rest.size() / 2;
    stream.assign(rest.records().begin(),
                  rest.records().begin() + std::min<std::size_t>(half, 12));
    queries.assign(rest.records().begin() + static_cast<long>(half),
                   rest.records().begin() + static_cast<long>(half) + 12);
  }
};

const Fixture& SharedFixture() {
  static const Fixture fixture;
  return fixture;
}

std::shared_ptr<serve::ModelRegistry> MakeRegistry(const Fixture& f) {
  auto registry = std::make_shared<serve::ModelRegistry>();
  registry->Load("campus",
                 std::make_shared<const core::Grafics>(f.base.Clone()));
  return registry;
}

TEST(IngestPipelineTest, FoldsInBackgroundAndPublishesWithUpdateSemantics) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);
  IngestConfig config;
  config.fold_batch_size = f.stream.size();  // one deterministic batch
  config.max_delay = 5ms;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");

  const auto results = pipeline.Submit("campus", f.stream);
  ASSERT_EQ(results.size(), f.stream.size());
  for (const SubmitResult& result : results) {
    EXPECT_TRUE(result.accepted) << result.error;
  }
  ASSERT_TRUE(pipeline.WaitUntilDrained());

  // Generation bumped exactly once, marked as an ingest publish.
  EXPECT_EQ(registry->generation("campus"), 2u);
  const auto registry_stats = registry->Stats("campus");
  ASSERT_EQ(registry_stats.size(), 1u);
  EXPECT_EQ(registry_stats[0].last_publish_source,
            serve::PublishSource::kIngest);
  EXPECT_EQ(registry_stats[0].pending_ingest, 0u);

  // The published snapshot answers exactly like an in-process Update on
  // the same records.
  core::Grafics reference = f.base.Clone();
  reference.Update(f.stream);
  const auto expected = reference.PredictBatch(f.queries, {.num_threads = 1});
  const auto served =
      registry->Snapshot("campus")->PredictBatch(f.queries,
                                                 {.num_threads = 1});
  for (std::size_t i = 0; i < f.queries.size(); ++i) {
    EXPECT_EQ(served[i], expected[i]) << i;
  }

  const auto stats = pipeline.Stats("campus");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].accepted, f.stream.size());
  EXPECT_EQ(stats[0].folded, f.stream.size());
  EXPECT_EQ(stats[0].pending, 0u);
  EXPECT_EQ(stats[0].publishes, 1u);
  EXPECT_EQ(stats[0].last_publish_generation, 2u);
  EXPECT_EQ(stats[0].journal_bytes, 0u);  // no journal configured

  // One fold happened, so the latency counters describe exactly it.
  EXPECT_GT(stats[0].last_fold_us, 0u);
  EXPECT_EQ(stats[0].fold_min_us, stats[0].last_fold_us);
  EXPECT_EQ(stats[0].fold_max_us, stats[0].last_fold_us);
  EXPECT_EQ(stats[0].fold_mean_us, stats[0].last_fold_us);
}

TEST(IngestPipelineTest, FoldLatencyAndSnapshotBytesAreObservable) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);
  IngestConfig config;
  config.fold_batch_size = 4;
  config.max_delay = 5ms;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");

  // Two deterministic folds.
  const std::vector<rf::SignalRecord> first(f.stream.begin(),
                                            f.stream.begin() + 4);
  const std::vector<rf::SignalRecord> second(f.stream.begin() + 4,
                                             f.stream.begin() + 8);
  for (const auto& result : pipeline.Submit("campus", first)) {
    ASSERT_TRUE(result.accepted) << result.error;
  }
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  for (const auto& result : pipeline.Submit("campus", second)) {
    ASSERT_TRUE(result.accepted) << result.error;
  }
  ASSERT_TRUE(pipeline.WaitUntilDrained());

  const auto stats = pipeline.Stats("campus");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].publishes, 2u);
  EXPECT_GT(stats[0].fold_min_us, 0u);
  EXPECT_GE(stats[0].fold_mean_us, stats[0].fold_min_us);
  EXPECT_GE(stats[0].fold_max_us, stats[0].fold_mean_us);
  EXPECT_GE(stats[0].fold_max_us, stats[0].last_fold_us);
  EXPECT_LE(stats[0].fold_min_us, stats[0].last_fold_us);

  // The served snapshot is a fork chain over f.base, which is still alive:
  // the registry's stats expose the chunk-level sharing. (This fixture's
  // model is barely larger than one chunk, so a fold copy-on-writes most of
  // it — snapshot_sharing_test asserts the strong shared >> owned ratio on
  // a model that spans many chunks.)
  const auto registry_stats = registry->Stats("campus");
  ASSERT_EQ(registry_stats.size(), 1u);
  EXPECT_GT(registry_stats[0].shared_bytes, 0u);
  EXPECT_GT(registry_stats[0].owned_bytes, 0u);
}

TEST(IngestPipelineTest, RejectsBadRecordsUnknownModelsAndBackpressure) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);
  IngestConfig config;
  config.fold_batch_size = 1000;  // the worker must not steal capacity
  config.max_delay = std::chrono::milliseconds(60000);
  config.max_pending = 3;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");

  // Unknown model: every record rejected, nothing throws.
  const auto unknown = pipeline.Submit("no-such-building", {f.stream[0]});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_FALSE(unknown[0].accepted);
  EXPECT_NE(unknown[0].error.find("no-such-building"), std::string::npos);

  // Attach requires a registry model.
  EXPECT_THROW(pipeline.Attach("no-such-building"), Error);

  // A mixed batch: empty records rejected per-record, the buffer bound
  // rejects everything beyond max_pending.
  std::vector<rf::SignalRecord> batch = {f.stream[0], rf::SignalRecord(),
                                         f.stream[1], f.stream[2],
                                         f.stream[3]};
  const auto results = pipeline.Submit("campus", batch);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].accepted);
  EXPECT_FALSE(results[1].accepted);  // empty record
  EXPECT_TRUE(results[2].accepted);
  EXPECT_TRUE(results[3].accepted);
  EXPECT_FALSE(results[4].accepted);  // backpressure: max_pending == 3
  EXPECT_NE(results[4].error.find("backpressure"), std::string::npos);
  EXPECT_EQ(pipeline.PendingDepth("campus"), 3u);

  // The registry's stats surface the probe.
  const auto registry_stats = registry->Stats("campus");
  ASSERT_EQ(registry_stats.size(), 1u);
  EXPECT_EQ(registry_stats[0].pending_ingest, 3u);

  // Stop() folds the backlog; the records still land in the model.
  pipeline.Stop();
  EXPECT_EQ(registry->generation("campus"), 2u);
  const auto after = pipeline.Submit("campus", {f.stream[0]});
  ASSERT_EQ(after.size(), 1u);
  EXPECT_FALSE(after[0].accepted);
}

TEST(IngestPipelineTest, FoldFailureRetriesWithoutLosingRecords) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);  // "campus" becomes the default
  registry->Load("beta",
                 std::make_shared<const core::Grafics>(f.base.Clone()));
  IngestConfig config;
  config.fold_batch_size = 3;
  config.max_delay = 5ms;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("beta");
  // Yank the model out from under the pipeline: every fold attempt now
  // fails. Accepted records must be retried, never dropped — dropping
  // would orphan their journal frames ahead of later commit frames.
  registry->Unload("beta");
  const auto results =
      pipeline.Submit("beta", {f.stream[0], f.stream[1], f.stream[2]});
  ASSERT_EQ(results.size(), 3u);
  for (const SubmitResult& result : results) {
    EXPECT_TRUE(result.accepted) << result.error;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(pipeline.PendingDepth("beta"), 3u);
  // Restore the model: the backed-off retry folds the same batch.
  registry->Load("beta",
                 std::make_shared<const core::Grafics>(f.base.Clone()));
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  const auto stats = pipeline.Stats("beta");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].folded, 3u);
  EXPECT_EQ(stats[0].pending, 0u);
}

TEST(IngestPipelineTest, EmptyNameRoutesToTheDefaultModel) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);
  IngestConfig config;
  config.fold_batch_size = 1;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");
  const auto results = pipeline.Submit("", {f.stream[0]});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].accepted) << results[0].error;
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  EXPECT_EQ(pipeline.Stats("campus")[0].folded, 1u);
}

TEST(IngestPipelineTest, JournalReplayRebuildsTheSameModelAfterRestart) {
  const Fixture& f = SharedFixture();
  const std::string dir = testing::TempDir() + "ingest_replay_dir";
  std::remove((dir + "/" + JournalFileName("campus")).c_str());
  ::mkdir(dir.c_str(), 0755);

  IngestConfig config;
  config.fold_batch_size = 4;  // several publishes, several commit frames
  config.max_delay = 5ms;
  config.journal_dir = dir;

  // First life: accept and fold the stream in chunks of 4.
  std::vector<std::optional<rf::FloorId>> before;
  {
    auto registry = MakeRegistry(f);
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");
    for (std::size_t begin = 0; begin < f.stream.size(); begin += 4) {
      const std::size_t end = std::min(begin + 4, f.stream.size());
      const std::vector<rf::SignalRecord> chunk(
          f.stream.begin() + static_cast<long>(begin),
          f.stream.begin() + static_cast<long>(end));
      const auto results = pipeline.Submit("campus", chunk);
      for (const SubmitResult& result : results) {
        ASSERT_TRUE(result.accepted) << result.error;
      }
      ASSERT_TRUE(pipeline.WaitUntilDrained());
    }
    before = registry->Snapshot("campus")->PredictBatch(f.queries,
                                                        {.num_threads = 1});
    pipeline.Stop();
    registry->Stop();
  }

  // Second life: a fresh registry with the BASE model; Attach replays the
  // journal (same batch boundaries, recorded by the commit frames) and the
  // served answers must be identical to the pre-restart ones.
  {
    auto registry = MakeRegistry(f);
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");
    const auto stats = pipeline.Stats("campus");
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].replayed, f.stream.size());
    EXPECT_EQ(stats[0].folded, f.stream.size());
    EXPECT_EQ(stats[0].publishes, 1u);  // folded batches collapse into one
    EXPECT_EQ(stats[0].replayed_batches, f.stream.size() / 4);
    EXPECT_EQ(stats[0].journal_dropped_bytes, 0u);
    EXPECT_EQ(registry->generation("campus"), 2u);
    const auto after = registry->Snapshot("campus")->PredictBatch(
        f.queries, {.num_threads = 1});
    for (std::size_t i = 0; i < f.queries.size(); ++i) {
      EXPECT_EQ(after[i], before[i]) << i;
    }
  }
}

TEST(IngestPipelineTest, ReplayQueuesRecordsAcceptedButNeverFolded) {
  const Fixture& f = SharedFixture();
  const std::string dir = testing::TempDir() + "ingest_unfolded_dir";
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + JournalFileName("campus");
  std::remove(path.c_str());

  // A journal whose daemon crashed between accept and fold: records
  // present, no commit frame — plus a torn half-frame from the crash.
  {
    RecordJournal journal(path, "campus");
    journal.Append(std::span<const rf::SignalRecord>(f.stream.data(), 3));
  }
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn.write("\x77\x00\x00", 3);
  }

  auto registry = MakeRegistry(f);
  IngestConfig config;
  config.fold_batch_size = 3;
  config.max_delay = 5ms;
  config.journal_dir = dir;
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");
  // The unfolded records re-enter the queue and fold like fresh arrivals.
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  const auto stats = pipeline.Stats("campus");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].replayed, 3u);
  EXPECT_EQ(stats[0].folded, 3u);
  // The torn half-frame the crash left behind is observable, not silent.
  EXPECT_EQ(stats[0].journal_dropped_bytes, 3u);
  EXPECT_EQ(stats[0].replayed_batches, 0u);  // nothing was ever committed
  EXPECT_EQ(registry->generation("campus"), 2u);

  // Their fold-commit frame is on disk now: the next life replays them as
  // a folded batch instead of re-queueing.
  pipeline.Stop();
  RecordJournal reopened(path, "campus");
  const JournalReplay replay = reopened.TakeReplay();
  ASSERT_EQ(replay.folded_batches.size(), 1u);
  EXPECT_EQ(replay.folded_batches[0].size(), 3u);
  EXPECT_TRUE(replay.unfolded.empty());
}

// --- journal compaction + the crash matrix --------------------------------

/// Fresh (emptied) directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  ::mkdir(dir.c_str(), 0755);
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(handle)) {
      const std::string file = entry->d_name;
      if (file == "." || file == "..") continue;
      std::remove((dir + "/" + file).c_str());
    }
    ::closedir(handle);
  }
  return dir;
}

bool FileExists(const std::string& path) {
  struct ::stat info;
  return ::stat(path.c_str(), &info) == 0;
}

std::vector<std::optional<rf::FloorId>> Served(
    const serve::ModelRegistry& registry,
    const std::vector<rf::SignalRecord>& queries) {
  return registry.Snapshot("campus")->PredictBatch(queries,
                                                   {.num_threads = 1});
}

TEST(IngestCompactionTest, CompactNowWritesABaseAndRestartSkipsTheReplay) {
  const Fixture& f = SharedFixture();
  const std::string journal_dir = FreshDir("compact_journal_dir");
  const std::string store_dir = FreshDir("compact_store_dir");

  IngestConfig config;
  config.fold_batch_size = 4;
  config.max_delay = 5ms;
  config.journal_dir = journal_dir;

  // First life: fold the stream, then compact. The journal's committed
  // prefix becomes store generation 1 and the journal is truncated to the
  // (empty) pending suffix under a bumped epoch file name.
  std::vector<std::optional<rf::FloorId>> before;
  std::uint64_t journal_bytes_before = 0;
  {
    config.model_store = std::make_shared<store::ModelStore>(store_dir);
    auto registry = MakeRegistry(f);
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");
    for (const auto& result : pipeline.Submit("campus", f.stream)) {
      ASSERT_TRUE(result.accepted) << result.error;
    }
    ASSERT_TRUE(pipeline.WaitUntilDrained());
    journal_bytes_before = pipeline.Stats("campus")[0].journal_bytes;

    const IngestPipeline::CompactOutcome outcome =
        pipeline.CompactNow("campus");
    EXPECT_EQ(outcome.generation, 1u);
    EXPECT_GT(outcome.journal_bytes_reclaimed, 0u);
    EXPECT_EQ(pipeline.JournalBytesReclaimed(),
              outcome.journal_bytes_reclaimed);
    EXPECT_LT(pipeline.Stats("campus")[0].journal_bytes,
              journal_bytes_before);
    before = Served(*registry, f.queries);
    pipeline.Stop();
    registry->Stop();
  }
  // The epoch-0 journal was retired; the active journal is epoch 1.
  EXPECT_FALSE(FileExists(journal_dir + "/" + JournalFileName("campus")));
  EXPECT_TRUE(
      FileExists(journal_dir + "/" + JournalFileName("campus") + ".1"));

  // Simulate a crash that died after the manifest commit but before the
  // old epoch was unlinked: resurrect a stale epoch-0 file. Restart must
  // remove it unread — its committed prefix is already inside the store.
  {
    std::ofstream stale(journal_dir + "/" + JournalFileName("campus"),
                        std::ios::binary);
    stale.write("stale", 5);
  }

  // Second life: the daemon restart rule — open the store's latest
  // generation (base, no journal replay) and attach the epoch-1 journal.
  {
    auto store = std::make_shared<store::ModelStore>(store_dir);
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->AttachStore(store);
    registry->LoadFromStore("campus");
    config.model_store = store;
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");

    // No full-journal replay happened: the model came from the store.
    const auto stats = pipeline.Stats("campus");
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].replayed, 0u);
    EXPECT_EQ(stats[0].replayed_batches, 0u);
    EXPECT_EQ(Served(*registry, f.queries), before);
    EXPECT_FALSE(FileExists(journal_dir + "/" + JournalFileName("campus")));

    // The chain keeps extending: more folds, and the next compaction is a
    // delta checkpoint against the retained generation, not a second base.
    const std::vector<rf::SignalRecord> more(f.stream.begin(),
                                             f.stream.begin() + 4);
    for (const auto& result : pipeline.Submit("campus", more)) {
      ASSERT_TRUE(result.accepted) << result.error;
    }
    ASSERT_TRUE(pipeline.WaitUntilDrained());
    EXPECT_EQ(pipeline.CompactNow("campus").generation, 2u);
    const std::vector<store::ArtifactInfo> chain = store->List("campus");
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_FALSE(chain[0].is_delta);
    EXPECT_TRUE(chain[1].is_delta);
    EXPECT_LT(chain[1].bytes, chain[0].bytes);
    pipeline.Stop();
    registry->Stop();
  }
}

TEST(IngestCompactionTest, CrashBeforeTheManifestCommitReplaysTheOldState) {
  const Fixture& f = SharedFixture();
  const std::string journal_dir = FreshDir("compact_crash_journal_dir");
  const std::string store_dir = FreshDir("compact_crash_store_dir");

  IngestConfig config;
  config.fold_batch_size = 4;
  config.max_delay = 5ms;
  config.journal_dir = journal_dir;

  // First life: folds land in the epoch-0 journal, then the "crash" hits
  // mid-compaction — after the artifact was staged and the replacement
  // epoch file appeared, but before the manifest rename committed either.
  std::vector<std::optional<rf::FloorId>> before;
  {
    config.model_store = std::make_shared<store::ModelStore>(store_dir);
    auto registry = MakeRegistry(f);
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");
    for (const auto& result : pipeline.Submit("campus", f.stream)) {
      ASSERT_TRUE(result.accepted) << result.error;
    }
    ASSERT_TRUE(pipeline.WaitUntilDrained());
    before = Served(*registry, f.queries);
    pipeline.Stop();
    registry->Stop();
    // The stage half of the compaction: artifact durable, manifest
    // untouched...
    config.model_store->StageCheckpoint("campus",
                                        registry->Snapshot("campus"));
    // ...and the stray replacement epoch the crash also left behind.
    std::ofstream stray(
        journal_dir + "/" + JournalFileName("campus") + ".1",
        std::ios::binary);
    stray.write("stray", 5);
  }

  // Second life: the manifest never committed, so the store is empty —
  // the restart takes the full-replay path against the epoch-0 journal and
  // rebuilds the exact pre-crash model; the stray epoch file is removed.
  {
    config.model_store = std::make_shared<store::ModelStore>(store_dir);
    EXPECT_EQ(config.model_store->LatestGeneration("campus"), 0u);
    auto registry = MakeRegistry(f);
    IngestPipeline pipeline(registry, config);
    pipeline.Attach("campus");
    const auto stats = pipeline.Stats("campus");
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].replayed, f.stream.size());
    EXPECT_EQ(Served(*registry, f.queries), before);
    EXPECT_FALSE(FileExists(journal_dir + "/" + JournalFileName("campus") +
                            ".1"));
    pipeline.Stop();
    registry->Stop();
  }
}

TEST(IngestCompactionTest, FoldCountPolicyCompactsWithoutAnExplicitRequest) {
  const Fixture& f = SharedFixture();
  const std::string journal_dir = FreshDir("compact_policy_journal_dir");
  const std::string store_dir = FreshDir("compact_policy_store_dir");

  IngestConfig config;
  config.fold_batch_size = 4;
  config.max_delay = 5ms;
  config.journal_dir = journal_dir;
  config.model_store = std::make_shared<store::ModelStore>(store_dir);
  config.compact_every_n_folds = 2;

  auto registry = MakeRegistry(f);
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");
  for (const auto& result : pipeline.Submit("campus", f.stream)) {
    ASSERT_TRUE(result.accepted) << result.error;
  }
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  // The worker compacts between folds; give the policy a moment to fire.
  for (int i = 0; i < 100 && pipeline.JournalBytesReclaimed() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(pipeline.JournalBytesReclaimed(), 0u);
  EXPECT_GE(config.model_store->LatestGeneration("campus"), 1u);
  pipeline.Stop();
  registry->Stop();
}

TEST(IngestCompactionTest, CompactNowThrowsWithoutAJournalOrStore) {
  const Fixture& f = SharedFixture();
  auto registry = MakeRegistry(f);
  IngestConfig config;  // no journal_dir, no model_store
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");
  EXPECT_THROW(pipeline.CompactNow("campus"), Error);
  EXPECT_THROW(pipeline.CompactNow("no-such-building"), Error);
  EXPECT_EQ(pipeline.JournalBytesReclaimed(), 0u);
}

// The compaction path under real contention: submitters, a compaction
// driver, and stats readers against one live pipeline + journal + store.
// This is the interleaving the per-entry mutex and the staged-commit
// protocol exist for (journal epoch swap racing folds racing stats); the
// test runs in the TSan CI job via `ctest -L store`, so any unguarded
// access in that machinery is a hard failure there, not a flake here.
TEST(IngestCompactionTest, ConcurrentSubmitCompactAndStatsStayCoherent) {
  const Fixture& f = SharedFixture();
  const std::string journal_dir = FreshDir("compact_race_journal_dir");
  const std::string store_dir = FreshDir("compact_race_store_dir");

  IngestConfig config;
  config.fold_batch_size = 4;
  config.max_delay = 2ms;
  config.journal_dir = journal_dir;
  config.model_store = std::make_shared<store::ModelStore>(store_dir);
  auto registry = MakeRegistry(f);
  IngestPipeline pipeline(registry, config);
  pipeline.Attach("campus");

  constexpr int kSubmitRounds = 8;
  std::atomic<std::size_t> accepted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  // Two submitters: chunks race each other into the journal and the fold
  // batches underneath the compactions.
  for (int submitter = 0; submitter < 2; ++submitter) {
    threads.emplace_back([&] {
      const std::vector<rf::SignalRecord> chunk(f.stream.begin(),
                                                f.stream.begin() + 4);
      for (int round = 0; round < kSubmitRounds; ++round) {
        for (const SubmitResult& result : pipeline.Submit("campus", chunk)) {
          if (result.accepted) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // Compaction driver: epoch swaps + staged store commits while the
  // submitters keep the journal hot.
  threads.emplace_back([&] {
    for (int i = 0; i < 3; ++i) {
      const IngestPipeline::CompactOutcome outcome =
          pipeline.CompactNow("campus");
      ASSERT_GE(outcome.generation, 1u);
    }
  });
  // Stats reader: every snapshot must be internally coherent even while
  // the counters move underneath it.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto stats = pipeline.Stats("campus");
      ASSERT_EQ(stats.size(), 1u);
      ASSERT_GE(stats[0].accepted, stats[0].folded);
      ASSERT_EQ(stats[0].pending, stats[0].accepted - stats[0].folded);
    }
  });
  for (std::size_t i = 0; i + 1 < threads.size(); ++i) {
    threads[i].join();
  }
  stop.store(true, std::memory_order_release);
  threads.back().join();

  // Quiesce and reconcile: nothing accepted was lost to the races.
  ASSERT_TRUE(pipeline.WaitUntilDrained());
  const auto stats = pipeline.Stats("campus");
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].accepted, accepted.load());
  EXPECT_EQ(stats[0].folded, accepted.load());
  EXPECT_EQ(stats[0].pending, 0u);
  EXPECT_GE(config.model_store->LatestGeneration("campus"), 1u);

  // A final compaction on the quiesced pipeline captures the fully folded
  // state; reopening the store's latest generation must answer exactly
  // like the live registry snapshot — the races above never published a
  // torn model.
  pipeline.CompactNow("campus");
  const auto live = Served(*registry, f.queries);
  const auto restored =
      config.model_store->Open("campus")->PredictBatch(f.queries,
                                                       {.num_threads = 1});
  EXPECT_EQ(restored, live);
  pipeline.Stop();
  registry->Stop();
}

}  // namespace
}  // namespace grafics::ingest
