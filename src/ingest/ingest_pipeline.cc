#include "ingest/ingest_pipeline.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <utility>

#include "common/error.h"
#include "core/grafics.h"
#include "serve/protocol.h"
#include "store/model_store.h"

namespace grafics::ingest {

namespace {

/// Pause before retrying a failed fold-in, so a persistent fault (e.g. the
/// model was unloaded) does not spin the worker; Stop() interrupts it.
constexpr std::chrono::milliseconds kFoldRetryBackoff{250};

/// Journal file for (model, epoch): epoch 0 is the bare legacy name, later
/// epochs append ".<epoch>". Each compaction replaces the journal file with
/// the next epoch's; the manifest records which epoch is the replay source.
std::string JournalPathFor(const std::string& dir, const std::string& name,
                           std::uint64_t epoch) {
  std::string path = dir;
  path += '/';
  path += JournalFileName(name);
  if (epoch > 0) {
    path += '.';
    path += std::to_string(epoch);
  }
  return path;
}

/// fsyncs `path` and its directory: the new epoch journal (header + pending
/// frames + its directory entry) must be durable BEFORE the manifest commit
/// makes it the replay source, or a crash right after the commit could lose
/// acknowledged records.
void SyncFileAndDir(const std::string& path, const std::string& dir) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Unlinks every epoch file of `name` except the manifest's active one:
/// a crash between writing epoch E+1 and committing the manifest (stray
/// E+1), or between committing and unlinking (stray E), leaves files that
/// RecordJournal would happily open and misread as live journals.
void RemoveStaleJournals(const std::string& dir, const std::string& name,
                         std::uint64_t active_epoch) {
  const std::string base = JournalFileName(name);
  const std::string active =
      active_epoch == 0 ? base : base + "." + std::to_string(active_epoch);
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string file = entry->d_name;
    bool is_epoch_file = file == base;
    if (!is_epoch_file && file.size() > base.size() + 1 &&
        file.compare(0, base.size(), base) == 0 &&
        file[base.size()] == '.') {
      const std::string suffix = file.substr(base.size() + 1);
      is_epoch_file =
          std::all_of(suffix.begin(), suffix.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          });
    }
    if (is_epoch_file && file != active) {
      ::unlink((dir + "/" + file).c_str());
    }
  }
  ::closedir(handle);
}

/// Validation shared by Submit and (implicitly) replay: the reasons a single
/// record can never be folded. Returns an empty string for foldable records.
std::string RejectReason(const rf::SignalRecord& record) {
  if (record.empty()) return "empty record";
  if (record.size() > serve::kMaxObservations) {
    return "too many observations";
  }
  return {};
}

}  // namespace

IngestPipeline::Instruments::Instruments(obs::Registry& obs,
                                         const std::string& name) {
  const obs::Labels labels = {{"model", name}};
  accepted = obs.GetCounter("grafics_ingest_accepted_total",
                            "Records validated, journaled, and acknowledged.",
                            labels);
  rejected = obs.GetCounter(
      "grafics_ingest_rejected_total",
      "Records refused (validation, backpressure, journal failure).", labels);
  folded = obs.GetCounter("grafics_ingest_folded_total",
                          "Records folded into a published snapshot.", labels);
  publishes = obs.GetCounter("grafics_ingest_publishes_total",
                             "Fold-in publishes through the model registry.",
                             labels);
  backlog = obs.GetGauge(
      "grafics_ingest_backlog",
      "Records accepted but not yet folded (pending + in flight).", labels);
  journal_bytes = obs.GetGauge(
      "grafics_ingest_journal_bytes",
      "Current size of the model's journal epoch file.", labels);
  journal_fsync_us = obs.GetHistogram(
      "grafics_ingest_journal_fsync_us",
      "Microseconds one journal Append (write + fdatasync) took.",
      obs::DefaultLatencyBucketsUs(), labels);
  fold_us = obs.GetHistogram(
      "grafics_ingest_fold_us",
      "Microseconds one fold (fork + Update + publish) took.",
      obs::DefaultLatencyBucketsUs(), labels);
  compaction_us = obs.GetHistogram(
      "grafics_ingest_compaction_us",
      "Microseconds one committed journal compaction took.",
      obs::DefaultLatencyBucketsUs(), labels);
}

std::string JournalFileName(const std::string& model_name) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string file;
  file.reserve(model_name.size() + sizeof(".journal"));
  for (const char c : model_name) {
    const auto byte = static_cast<unsigned char>(c);
    const bool safe = (byte >= 'A' && byte <= 'Z') ||
                      (byte >= 'a' && byte <= 'z') ||
                      (byte >= '0' && byte <= '9') || byte == '.' ||
                      byte == '_' || byte == '-';
    if (safe) {
      file.push_back(c);
    } else {
      file.push_back('%');
      file.push_back(kHex[byte >> 4]);
      file.push_back(kHex[byte & 0xF]);
    }
  }
  return file + ".journal";
}

IngestPipeline::IngestPipeline(std::shared_ptr<serve::ModelRegistry> registry,
                               IngestConfig config)
    : config_(std::move(config)), registry_(std::move(registry)) {
  Require(registry_ != nullptr, "IngestPipeline: registry required");
  Require(config_.fold_batch_size >= 1,
          "IngestPipeline: fold_batch_size >= 1");
  Require(config_.max_pending >= 1, "IngestPipeline: max_pending >= 1");
  registry_->SetIngestDepthProbe(
      [this](const std::string& name) { return PendingDepth(name); });
}

IngestPipeline::~IngestPipeline() {
  Stop();
  registry_->SetIngestDepthProbe(nullptr);
}

void IngestPipeline::Attach(const std::string& name) {
  const MutexLock lock(&mutex_);
  Require(!stopped_, "IngestPipeline::Attach after Stop");
  Require(entries_.count(name) == 0,
          "IngestPipeline::Attach: '" + name + "' already attached");
  // Throws for names the registry does not hold — ingestion only ever folds
  // into served models.
  std::shared_ptr<const core::Grafics> snapshot = registry_->Snapshot(name);

  auto entry = std::make_shared<Entry>(*registry_->obs(), name);
  // Entry not yet published, but the worker thread spawned below reads all
  // of this under entry->mutex — initialize under it too so the
  // happens-before edge is the lock, not the std::thread constructor.
  const MutexLock entry_lock(&entry->mutex);
  if (!config_.journal_dir.empty()) {
    if (config_.model_store != nullptr) {
      // The manifest names the journal epoch that pairs with the store's
      // latest generation; any other epoch file is a crashed compaction's
      // leftover and must not survive to be opened later.
      entry->journal_epoch = config_.model_store->JournalEpoch(name);
      RemoveStaleJournals(config_.journal_dir, name, entry->journal_epoch);
    }
    entry->journal = std::make_unique<RecordJournal>(
        JournalPathFor(config_.journal_dir, name, entry->journal_epoch),
        name);
    JournalReplay replay = entry->journal->TakeReplay();
    if (replay.dropped_bytes > 0) {
      std::fprintf(stderr,
                   "IngestPipeline: dropped %llu torn tail byte(s) from %s\n",
                   static_cast<unsigned long long>(replay.dropped_bytes),
                   entry->journal->path().c_str());
    }
    entry->journal_dropped_bytes = replay.dropped_bytes;
    entry->replayed_batches = replay.folded_batches.size();
    entry->replayed = replay.TotalRecords();
    if (!replay.folded_batches.empty()) {
      // Re-apply the committed folds with their original batch boundaries
      // (one Update call per recorded publish), then publish once: the
      // served snapshot is bit-equal to the pre-restart one without
      // replaying N intermediate generations through the registry. The fork
      // is O(1); only the replayed deltas are materialized. Not a fold-
      // latency sample: replay spans many batches and would permanently
      // skew the per-fold min/mean/max.
      core::Grafics updated = snapshot->Clone();
      std::uint64_t folded = 0;
      for (const std::vector<rf::SignalRecord>& batch :
           replay.folded_batches) {
        updated.Update(batch);
        folded += batch.size();
      }
      registry_->Load(name,
                      std::make_shared<const core::Grafics>(std::move(updated)),
                      {}, serve::PublishSource::kIngest);
      entry->metrics.folded->Add(folded);
      entry->metrics.publishes->Add();
      entry->last_publish_generation = registry_->generation(name);
    }
    // Records accepted but never folded re-enter the queue; the background
    // worker folds them like any fresh submission (and only then writes
    // their fold-commit frame).
    const auto now = std::chrono::steady_clock::now();
    for (rf::SignalRecord& record : replay.unfolded) {
      entry->pending.push_back({std::move(record), now});
    }
  }
  // The gauges are per model name: a pipeline attaching a name again
  // overwrites what an earlier one left there.
  SetBacklog(*entry);
  SetJournalBytes(*entry);
  Entry* raw = entry.get();
  entry->worker = std::thread([this, raw] { WorkerLoop(*raw); });
  entries_.emplace(name, std::move(entry));
}

std::vector<SubmitResult> IngestPipeline::Submit(
    const std::string& name, std::vector<rf::SignalRecord> records) {
  std::vector<SubmitResult> results(records.size());
  const std::string resolved =
      name.empty() ? registry_->default_model() : name;
  const std::shared_ptr<Entry> entry = Find(resolved);
  if (entry == nullptr) {
    for (SubmitResult& result : results) {
      result.error = "ingest: model '" + resolved +
                     "' is not attached for ingestion";
    }
    return results;
  }

  const MutexLock lock(&entry->mutex);
  if (entry->stopping) {
    for (SubmitResult& result : results) {
      result.error = "ingest: pipeline stopped";
    }
    return results;
  }
  // Pass 1: decide each record's fate under the buffer bound, so the
  // journal write below covers exactly the accepted set.
  std::vector<rf::SignalRecord> accepted;
  std::size_t capacity =
      config_.max_pending -
      std::min(config_.max_pending, entry->pending.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::string reason = RejectReason(records[i]);
    if (reason.empty() && capacity == 0) {
      reason = "ingest: buffer full (backpressure), retry later";
    }
    if (!reason.empty()) {
      results[i].error = std::move(reason);
      continue;
    }
    --capacity;
    results[i].accepted = true;
    accepted.push_back(std::move(records[i]));
  }
  if (accepted.empty()) {
    entry->metrics.rejected->Add(records.size());
    return results;
  }
  // Pass 2: make the accepted set durable BEFORE acknowledging. A journal
  // failure (disk full, I/O error) demotes every would-be-accepted record
  // to rejected — nothing unjournaled is ever folded.
  if (entry->journal != nullptr) {
    try {
      const auto append_start = std::chrono::steady_clock::now();
      entry->journal->Append(accepted);
      entry->metrics.journal_fsync_us->Observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - append_start)
              .count()));
      SetJournalBytes(*entry);
    } catch (const std::exception& e) {
      for (SubmitResult& result : results) {
        if (!result.accepted) continue;
        result.accepted = false;
        result.error = e.what();
      }
      entry->metrics.rejected->Add(records.size());
      return results;
    }
  }
  const auto now = std::chrono::steady_clock::now();
  for (rf::SignalRecord& record : accepted) {
    entry->pending.push_back({std::move(record), now});
  }
  entry->metrics.accepted->Add(accepted.size());
  entry->metrics.rejected->Add(records.size() - accepted.size());
  SetBacklog(*entry);
  entry->wake.NotifyOne();
  return results;
}

std::vector<serve::IngestModelStats> IngestPipeline::Stats(
    const std::string& name_filter) const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const MutexLock lock(&mutex_);
    entries.reserve(name_filter.empty() ? entries_.size() : 1);
    for (const auto& [name, entry] : entries_) {
      if (!name_filter.empty() && name != name_filter) continue;
      entries.push_back(entry);
    }
  }
  std::vector<serve::IngestModelStats> stats;
  stats.reserve(entries.size());
  for (const std::shared_ptr<Entry>& entry : entries) {
    // Under the entry mutex, which every update below happens under too:
    // the counters read as one coherent snapshot.
    const Instruments& metrics = entry->metrics;
    const MutexLock lock(&entry->mutex);
    serve::IngestModelStats s;
    s.name = entry->name;
    s.accepted = metrics.accepted->value();
    s.rejected = metrics.rejected->value();
    s.pending = static_cast<std::uint64_t>(metrics.backlog->value());
    s.folded = metrics.folded->value();
    s.replayed = entry->replayed;
    s.journal_bytes =
        static_cast<std::uint64_t>(metrics.journal_bytes->value());
    s.publishes = metrics.publishes->value();
    s.last_publish_generation = entry->last_publish_generation;
    s.fold_min_us = entry->fold_min_us.value_or(0);
    const std::uint64_t folds = metrics.fold_us->count();
    s.fold_mean_us = folds == 0 ? 0 : metrics.fold_us->sum() / folds;
    s.fold_max_us = entry->fold_max_us;
    s.last_fold_us = entry->last_fold_us;
    s.journal_dropped_bytes = entry->journal_dropped_bytes;
    s.replayed_batches = entry->replayed_batches;
    stats.push_back(std::move(s));
  }
  return stats;
}

std::uint64_t IngestPipeline::PendingDepth(const std::string& name) const {
  const std::shared_ptr<Entry> entry = Find(name);
  return entry == nullptr
             ? 0
             : static_cast<std::uint64_t>(entry->metrics.backlog->value());
}

bool IngestPipeline::WaitUntilDrained(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool drained = true;
    {
      std::vector<std::shared_ptr<Entry>> entries;
      {
        const MutexLock lock(&mutex_);
        for (const auto& [name, entry] : entries_) entries.push_back(entry);
      }
      for (const std::shared_ptr<Entry>& entry : entries) {
        const MutexLock lock(&entry->mutex);
        if (!entry->pending.empty() || entry->in_flight > 0) {
          drained = false;
          break;
        }
      }
    }
    if (drained) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void IngestPipeline::Stop() {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const MutexLock lock(&mutex_);
    stopped_ = true;
    for (const auto& [name, entry] : entries_) entries.push_back(entry);
  }
  for (const std::shared_ptr<Entry>& entry : entries) {
    {
      const MutexLock lock(&entry->mutex);
      entry->stopping = true;
    }
    entry->wake.NotifyAll();
    entry->compaction_done.NotifyAll();  // release CompactNow waiters
  }
  for (const std::shared_ptr<Entry>& entry : entries) {
    if (entry->worker.joinable()) entry->worker.join();
    // Worker gone: sync and close the journal now, not at destruction —
    // the shutdown contract is "journal closed before the registry dies".
    const MutexLock lock(&entry->mutex);
    entry->journal.reset();
  }
}

void IngestPipeline::WorkerLoop(Entry& entry) {
  // Explicit Lock/Unlock instead of RAII: the loop releases the mutex
  // around FoldAndPublish and the analysis checks the pairing on every
  // path. Nothing inside the locked regions throws (CommitFold is caught
  // below, Compact never throws).
  entry.mutex.Lock();
  for (;;) {
    // Compaction runs here, between folds, so nothing is ever in flight
    // while the journal is swapped.
    if (WantsCompaction(entry)) Compact(entry);
    if (entry.pending.empty()) {
      if (entry.stopping) {
        entry.mutex.Unlock();
        return;
      }
      while (!entry.stopping && !entry.compact_requested &&
             entry.pending.empty()) {
        entry.wake.Wait(entry.mutex);
      }
      continue;
    }
    // Let the batch fill, but no longer than the oldest record's fold
    // budget. Stop() folds whatever is pending immediately.
    const auto deadline = entry.pending.front().enqueued + config_.max_delay;
    while (entry.pending.size() < config_.fold_batch_size &&
           !entry.stopping && !entry.compact_requested) {
      if (entry.wake.WaitUntil(entry.mutex, deadline) ==
          std::cv_status::timeout) {
        break;
      }
      // Whether full, stopping, compacting, or past the deadline: fold what
      // we have (an explicit compaction request checkpoints after the fold).
    }
    const std::size_t take =
        std::min(entry.pending.size(), config_.fold_batch_size);
    std::vector<rf::SignalRecord> batch;
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(entry.pending.front().record));
      entry.pending.pop_front();
    }
    entry.in_flight = take;
    entry.mutex.Unlock();
    const FoldOutcome outcome = FoldAndPublish(entry, batch);
    entry.mutex.Lock();
    entry.in_flight = 0;
    if (outcome.generation != 0) {
      entry.metrics.folded->Add(take);
      entry.metrics.publishes->Add();
      SetBacklog(entry);
      entry.last_publish_generation = outcome.generation;
      RecordFoldLatency(entry, outcome.micros);
      if (entry.journal != nullptr) {
        try {
          entry.journal->CommitFold(take);
          SetJournalBytes(entry);
        } catch (const std::exception& e) {
          // The fold itself is published; a missing commit frame only makes
          // the next replay fold these records as part of a later batch.
          std::fprintf(stderr, "IngestPipeline: commit frame for %s: %s\n",
                       entry.name.c_str(), e.what());
        }
      }
      ++entry.folds_since_compaction;
    } else {
      if (entry.stopping) {
        // Shutdown drain: the records stay journaled without a commit
        // frame, so the next start replays them as unfolded. No later
        // commit can be written (this worker is exiting), so the journal's
        // commit-pairing invariant holds.
        continue;
      }
      // Mid-flight failure (model unloaded, transient Update error):
      // dropping the batch would orphan its journaled records in front of
      // any LATER commit frame and corrupt replay's oldest-uncommitted
      // pairing. Re-queue it at the front, in order, and retry after a
      // pause; backpressure bounds the buildup while the fault persists.
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t i = batch.size(); i > 0; --i) {
        entry.pending.push_front({std::move(batch[i - 1]), now});
      }
      const auto retry_at = now + kFoldRetryBackoff;
      while (!entry.stopping) {
        if (entry.wake.WaitUntil(entry.mutex, retry_at) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
  }
}

bool IngestPipeline::WantsCompaction(const Entry& entry) const {
  if (entry.stopping || entry.journal == nullptr ||
      config_.model_store == nullptr) {
    return false;
  }
  if (entry.compact_requested) return true;
  // Both automatic policies arm only after at least one fold: a journal
  // holding nothing but pending records would be rewritten byte-for-byte,
  // and the byte bound would then retrigger forever.
  if (entry.folds_since_compaction == 0) return false;
  if (config_.compact_every_n_folds > 0 &&
      entry.folds_since_compaction >= config_.compact_every_n_folds) {
    return true;
  }
  return config_.max_journal_bytes > 0 &&
         entry.journal->bytes() > config_.max_journal_bytes;
}

void IngestPipeline::FinishCompaction(Entry& entry, std::string error) {
  if (!error.empty()) {
    std::fprintf(stderr, "IngestPipeline: compaction for %s failed: %s\n",
                 entry.name.c_str(), error.c_str());
  }
  entry.last_compaction_error = std::move(error);
  entry.compact_requested = false;
  // Re-arm the fold-count policy from zero on failure too, so a persistent
  // fault (full disk) retries every N folds, not every fold.
  entry.folds_since_compaction = 0;
  ++entry.compaction_attempts;
  entry.compaction_done.NotifyAll();
}

void IngestPipeline::Compact(Entry& entry) {
  // Only committed compactions are observed below; failed attempts abort at
  // wildly different points and would pollute the distribution.
  const auto compaction_start = std::chrono::steady_clock::now();
  // The served snapshot, read under entry.mutex: with in_flight == 0 it is
  // exactly the fold of the journal's committed prefix (publishes only
  // happen from this worker), and the pending deque is exactly the
  // journal's uncommitted suffix — the state split the checkpoint + new
  // epoch below must capture.
  std::shared_ptr<const core::Grafics> snapshot;
  try {
    snapshot = registry_->Snapshot(entry.name);
  } catch (const std::exception& e) {
    FinishCompaction(entry, e.what());
    return;
  }
  if (snapshot == nullptr || !snapshot->is_trained()) {
    FinishCompaction(entry, "no trained snapshot for '" + entry.name + "'");
    return;
  }
  const std::uint64_t old_bytes = entry.journal->bytes();

  // Stage the artifact outside the lock — serializing a base can take a
  // while and Submit must not block on it. The artifact file is durable but
  // invisible (no manifest reference) after this; on failure or crash it is
  // a stray that the next attempt overwrites.
  entry.mutex.Unlock();
  store::StagedArtifact staged;
  std::string stage_error;
  try {
    staged = config_.model_store->StageCheckpoint(entry.name, snapshot);
  } catch (const std::exception& e) {
    stage_error = e.what();
  }
  entry.mutex.Lock();
  if (!stage_error.empty()) {
    FinishCompaction(entry, std::move(stage_error));
    return;
  }

  // Under the lock again (Submit cannot interleave): write journal epoch
  // E+1 holding exactly the pending suffix, make it durable, then commit
  // the manifest — the single atomic point where artifact + truncated
  // journal replace full-journal replay. A crash before the commit leaves
  // the manifest (and thus restart behavior) untouched; a crash after it
  // restores base + deltas + pending suffix. Either side is bit-identical.
  const std::uint64_t new_epoch = entry.journal_epoch + 1;
  const std::string new_path =
      JournalPathFor(config_.journal_dir, entry.name, new_epoch);
  const std::string old_path = entry.journal->path();
  std::unique_ptr<RecordJournal> fresh;
  try {
    ::unlink(new_path.c_str());  // stray from a crashed earlier attempt
    fresh = std::make_unique<RecordJournal>(new_path, entry.name);
    if (!entry.pending.empty()) {
      std::vector<rf::SignalRecord> pending;
      pending.reserve(entry.pending.size());
      for (const PendingRecord& p : entry.pending) {
        pending.push_back(p.record);
      }
      fresh->Append(pending);
    }
    SyncFileAndDir(new_path, config_.journal_dir);
    config_.model_store->CommitStaged(entry.name, staged, new_epoch,
                                      snapshot);
  } catch (const std::exception& e) {
    fresh.reset();
    ::unlink(new_path.c_str());
    FinishCompaction(entry, e.what());
    return;
  }
  entry.journal = std::move(fresh);  // closes the old epoch's fd
  entry.journal_epoch = new_epoch;
  SetJournalBytes(entry);
  const std::uint64_t new_bytes = entry.journal->bytes();
  const std::uint64_t reclaimed =
      old_bytes > new_bytes ? old_bytes - new_bytes : 0;
  entry.journal_bytes_reclaimed += reclaimed;
  entry.last_compaction_generation = staged.generation;
  entry.last_compaction_reclaimed = reclaimed;
  ::unlink(old_path.c_str());
  entry.metrics.compaction_us->Observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - compaction_start)
          .count()));
  FinishCompaction(entry, {});
}

IngestPipeline::CompactOutcome IngestPipeline::CompactNow(
    const std::string& name) {
  const std::string resolved =
      name.empty() ? registry_->default_model() : name;
  const std::shared_ptr<Entry> entry = Find(resolved);
  Require(entry != nullptr,
          "ingest: model '" + resolved + "' is not attached for ingestion");
  const MutexLock lock(&entry->mutex);
  Require(entry->journal != nullptr,
          "ingest: compaction requires journaling (--journal-dir)");
  Require(config_.model_store != nullptr,
          "ingest: compaction requires a model store (--store-dir)");
  Require(!entry->stopping, "ingest: pipeline stopped");
  const std::uint64_t target = entry->compaction_attempts + 1;
  entry->compact_requested = true;
  entry->wake.NotifyAll();
  while (entry->compaction_attempts < target && !entry->stopping) {
    entry->compaction_done.Wait(entry->mutex);
  }
  Require(entry->compaction_attempts >= target,
          "ingest: pipeline stopped before the compaction ran");
  Require(entry->last_compaction_error.empty(),
          "ingest: compaction failed: " + entry->last_compaction_error);
  return {entry->last_compaction_generation,
          entry->last_compaction_reclaimed};
}

std::uint64_t IngestPipeline::JournalBytesReclaimed() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const MutexLock lock(&mutex_);
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) entries.push_back(entry);
  }
  std::uint64_t total = 0;
  for (const std::shared_ptr<Entry>& entry : entries) {
    const MutexLock lock(&entry->mutex);
    total += entry->journal_bytes_reclaimed;
  }
  return total;
}

IngestPipeline::FoldOutcome IngestPipeline::FoldAndPublish(
    Entry& entry, const std::vector<rf::SignalRecord>& batch) {
  const auto started = std::chrono::steady_clock::now();
  try {
    const std::shared_ptr<const core::Grafics> snapshot =
        registry_->Snapshot(entry.name);
    Require(snapshot != nullptr && snapshot->is_trained(),
            "IngestPipeline: no trained snapshot for '" + entry.name + "'");
    // Copy-on-write fold: Clone is an O(1) structural fork sharing every
    // chunk with the served snapshot; Update copy-on-writes only the chunks
    // the batch touches while the registry keeps serving the old snapshot.
    // The publish below swaps atomically (in-flight batches finish on the
    // snapshot they started with, exactly like a hot reload) — total cost
    // O(batch), independent of model size.
    core::Grafics updated = snapshot->Clone();
    updated.Update(batch);
    registry_->Load(entry.name,
                    std::make_shared<const core::Grafics>(std::move(updated)),
                    {}, serve::PublishSource::kIngest);
    FoldOutcome outcome;
    outcome.generation = registry_->generation(entry.name);
    outcome.micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    return outcome;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "IngestPipeline: fold-in for %s failed: %s\n",
                 entry.name.c_str(), e.what());
    return {};
  }
}

void IngestPipeline::RecordFoldLatency(Entry& entry, std::uint64_t micros) {
  entry.metrics.fold_us->Observe(micros);
  entry.last_fold_us = micros;
  entry.fold_min_us = std::min(entry.fold_min_us.value_or(micros), micros);
  entry.fold_max_us = std::max(entry.fold_max_us, micros);
}

void IngestPipeline::SetBacklog(Entry& entry) {
  entry.metrics.backlog->Set(
      static_cast<std::int64_t>(entry.pending.size() + entry.in_flight));
}

void IngestPipeline::SetJournalBytes(Entry& entry) {
  entry.metrics.journal_bytes->Set(static_cast<std::int64_t>(
      entry.journal == nullptr ? 0 : entry.journal->bytes()));
}

std::shared_ptr<IngestPipeline::Entry> IngestPipeline::Find(
    const std::string& name) const {
  const MutexLock lock(&mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

}  // namespace grafics::ingest
