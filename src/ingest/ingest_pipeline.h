// Online ingestion pipeline: crowdsourced records submitted at serving time
// are journaled durably, buffered per model, folded into the model by a
// background worker, and published atomically — the serving-side realization
// of the paper's "easily extendable for new RF records" claim.
//
// Data path per model:
//
//   Submit(records)                       background worker
//     validate + bound the buffer   -->     drain a batch
//     journal Append + fdatasync            fork the served snapshot (O(1))
//     enqueue, ack "accepted"               Grafics::Update on the fork
//                                           registry Load (generation + 1)
//                                           journal CommitFold
//
// The fold never mutates the served shared_ptr<const Grafics>: it runs
// Grafics::Update on a structurally shared fork (Grafics::Clone — an O(1)
// pointer copy whose chunked storage is copy-on-write, see
// docs/architecture.md) and publishes the fork into the serve::ModelRegistry,
// so in-flight predictions keep their old snapshot exactly like a hot
// reload. Because the fork shares every untouched chunk with the snapshot it
// came from, a publish costs O(batch), not O(model), and resident memory
// never doubles. Submission is bounded (max_pending) — beyond it records are
// rejected with a backpressure error rather than growing the heap without
// limit. Per-fold latency (fork + Update + publish) is tracked and surfaced
// through IngestStats.
//
// Every per-model counter and gauge IngestStats reports is an instrument in
// the model registry's obs registry, updated under the model's entry mutex
// when its event happens; Stats reads them back.
//
// With a journal directory configured, Attach replays the journal before
// serving: committed fold batches are re-applied with the same batch
// boundaries the live daemon used (see record_journal.h on why that makes
// the replayed model deterministic) and records that were accepted but
// never folded re-enter the pending queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_sync.h"
#include "ingest/record_journal.h"
#include "obs/metrics.h"
#include "rf/signal_record.h"
#include "serve/model_registry.h"

namespace grafics::store {
class ModelStore;
}

namespace grafics::ingest {

struct IngestConfig {
  /// Fold as soon as this many records are pending.
  std::size_t fold_batch_size = 64;
  /// Fold once the oldest pending record has waited this long.
  std::chrono::milliseconds max_delay{200};
  /// Submission buffer bound per model; records beyond it are rejected
  /// ("backpressure") until the worker catches up.
  std::size_t max_pending = 4096;
  /// Directory for the per-model journals; empty disables durability (and
  /// replay) — records then live only in the pending buffer.
  std::string journal_dir;
  /// Persistence store for journal compaction: the worker periodically
  /// folds the journal's committed prefix into a store checkpoint and
  /// truncates the journal to the pending suffix, so restart cost is
  /// O(base + deltas + suffix) instead of O(whole journal). Null disables
  /// compaction (and CompactNow throws).
  std::shared_ptr<store::ModelStore> model_store;
  /// Compact after this many folds since the last compaction (0 = only on
  /// explicit CompactNow / the byte bound below).
  std::size_t compact_every_n_folds = 0;
  /// Compact when the journal exceeds this many bytes (0 = no byte bound).
  std::uint64_t max_journal_bytes = 0;
};

/// One submitted record's fate, the in-process twin of the wire-level
/// serve::SubmitResult.
struct SubmitResult {
  bool accepted = false;
  std::string error;
};

class IngestPipeline {
 public:
  /// The registry is shared with the serving transport; published snapshots
  /// go through ModelRegistry::Load with PublishSource::kIngest. The
  /// pipeline registers itself as the registry's ingest-depth probe (and
  /// unregisters on destruction).
  IngestPipeline(std::shared_ptr<serve::ModelRegistry> registry,
                 IngestConfig config = {});
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Enables ingestion for `name`, which must already be loaded in the
  /// registry. With a journal_dir, opens the model's journal, folds its
  /// committed batches and queues its unfolded records (one publish when
  /// anything was replayed), so the served snapshot reflects every record
  /// accepted before the restart. Throws grafics::Error for unknown models,
  /// journal I/O failures, or a journal recorded for a different model.
  void Attach(const std::string& name);

  /// Validates and journals a batch for the named model (empty = default),
  /// returning one result per record in request order. Accepted records are
  /// durable (journaled + synced) when this returns; rejected records
  /// report why (unknown/unattached model, empty record, too many
  /// observations, backpressure). Never throws for per-record problems.
  std::vector<SubmitResult> Submit(const std::string& name,
                                   std::vector<rf::SignalRecord> records);

  /// Per-model ingest counters, sorted by name. A non-empty `name_filter`
  /// returns only that model's entry (empty result for unknown names). The
  /// counters count since the name was first attached on the registry.
  std::vector<serve::IngestModelStats> Stats(
      const std::string& name_filter = {}) const;

  /// Accepted-but-not-yet-folded depth for one model (0 for unknown names);
  /// the registry's Stats probe.
  std::uint64_t PendingDepth(const std::string& name) const;

  /// Blocks until every record pending at the time of the call has been
  /// folded and published (test/CI helper). Returns false on timeout.
  bool WaitUntilDrained(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(30000));

  /// What one compaction committed; the wire-level CompactResponse's twin.
  struct CompactOutcome {
    /// Store generation the compaction committed.
    std::uint64_t generation = 0;
    /// Journal bytes reclaimed by truncating to the pending suffix.
    std::uint64_t journal_bytes_reclaimed = 0;
  };

  /// Requests a compaction of `name`'s journal and blocks until the worker
  /// has performed it (it runs between folds, on the worker thread, so
  /// nothing is ever in flight during the stage/commit sequence). Throws
  /// when the model is not attached, the pipeline runs without a journal or
  /// store, the attempt fails, or the pipeline stops first.
  CompactOutcome CompactNow(const std::string& name);

  /// Journal bytes reclaimed by compaction across every model since the
  /// pipeline started; feeds the v6 store-stats block.
  std::uint64_t JournalBytesReclaimed() const;

  /// Folds and publishes everything pending, syncs and closes the journals,
  /// and rejects further Submits. Idempotent; also run by the destructor.
  /// Call this BEFORE ModelRegistry::Stop — a stopped registry rejects the
  /// final publishes (the records stay journaled for the next start, but
  /// the drain is lost).
  void Stop();

 private:
  struct PendingRecord {
    rf::SignalRecord record;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// A model's ingest instruments, resolved by name in Attach.
  struct Instruments {
    Instruments(obs::Registry& obs, const std::string& name);

    obs::Counter* accepted;
    obs::Counter* rejected;
    obs::Counter* folded;
    obs::Counter* publishes;
    /// Accepted records not yet folded: pending + in flight.
    obs::Gauge* backlog;
    obs::Gauge* journal_bytes;
    obs::Histogram* journal_fsync_us;
    /// Its sum/count is the mean fold latency IngestStats reports.
    obs::Histogram* fold_us;
    obs::Histogram* compaction_us;
  };

  struct Entry {
    Entry(obs::Registry& obs, const std::string& model)
        : name(model), metrics(obs, model) {}

    const std::string name;
    const Instruments metrics;
    mutable Mutex mutex;
    CondVar wake;
    std::deque<PendingRecord> pending GRAFICS_GUARDED_BY(mutex);
    /// Records drained by the worker but not yet published; Stats and the
    /// registry probe count them as pending so "pending == 0" means folded.
    std::size_t in_flight GRAFICS_GUARDED_BY(mutex) = 0;
    /// What IngestStats reports beside the instruments: the startup replay,
    /// the latest publish, and this pipeline's fold latency extremes.
    std::uint64_t replayed GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t replayed_batches GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t journal_dropped_bytes GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t last_publish_generation GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t last_fold_us GRAFICS_GUARDED_BY(mutex) = 0;
    std::optional<std::uint64_t> fold_min_us GRAFICS_GUARDED_BY(mutex);
    std::uint64_t fold_max_us GRAFICS_GUARDED_BY(mutex) = 0;
    std::unique_ptr<RecordJournal> journal GRAFICS_GUARDED_BY(mutex);
    /// Journal epoch the journal member is writing (file name suffix; 0 is
    /// the bare legacy name). Bumped by each committed compaction.
    std::uint64_t journal_epoch GRAFICS_GUARDED_BY(mutex) = 0;
    /// Folds committed since the last compaction; drives the
    /// compact_every_n_folds policy.
    std::uint64_t folds_since_compaction GRAFICS_GUARDED_BY(mutex) = 0;
    /// CompactNow sets this; the worker compacts at the next loop turn.
    bool compact_requested GRAFICS_GUARDED_BY(mutex) = false;
    /// Compaction attempt/result channel for CompactNow waiters.
    CondVar compaction_done;
    std::uint64_t compaction_attempts GRAFICS_GUARDED_BY(mutex) = 0;
    std::string last_compaction_error GRAFICS_GUARDED_BY(mutex);
    std::uint64_t last_compaction_generation GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t last_compaction_reclaimed GRAFICS_GUARDED_BY(mutex) = 0;
    std::uint64_t journal_bytes_reclaimed GRAFICS_GUARDED_BY(mutex) = 0;
    bool stopping GRAFICS_GUARDED_BY(mutex) = false;
    std::thread worker;  // last member: joined before the rest is destroyed
  };

  void WorkerLoop(Entry& entry) GRAFICS_EXCLUDES(entry.mutex);
  /// Stage + journal-swap + commit for one compaction; called by the worker
  /// with entry.mutex held and in_flight == 0 (it drops the lock around the
  /// artifact staging, like the fold path). Records the outcome in the entry
  /// and notifies CompactNow waiters; never throws.
  void Compact(Entry& entry) GRAFICS_REQUIRES(entry.mutex);
  /// Records a compaction attempt's outcome and wakes CompactNow waiters.
  static void FinishCompaction(Entry& entry, std::string error)
      GRAFICS_REQUIRES(entry.mutex);
  /// True when the compaction policy (explicit request, fold count, journal
  /// bytes) asks for a compaction.
  bool WantsCompaction(const Entry& entry) const
      GRAFICS_REQUIRES(entry.mutex);
  struct FoldOutcome {
    /// Published generation, or 0 when the publish failed.
    std::uint64_t generation = 0;
    /// Wall-clock cost of fork + Update + publish, microseconds.
    std::uint64_t micros = 0;
  };
  /// Fork + Update + publish one batch; called without entry.mutex held.
  FoldOutcome FoldAndPublish(Entry& entry,
                             const std::vector<rf::SignalRecord>& batch)
      GRAFICS_EXCLUDES(entry.mutex);
  /// Folds one latency sample into the entry's fold statistics.
  static void RecordFoldLatency(Entry& entry, std::uint64_t micros)
      GRAFICS_REQUIRES(entry.mutex);
  /// Sets the backlog gauge after pending or in_flight changed.
  static void SetBacklog(Entry& entry) GRAFICS_REQUIRES(entry.mutex);
  /// Sets the journal-bytes gauge after the journal grew or was replaced.
  static void SetJournalBytes(Entry& entry) GRAFICS_REQUIRES(entry.mutex);
  std::shared_ptr<Entry> Find(const std::string& name) const
      GRAFICS_EXCLUDES(mutex_);

  const IngestConfig config_;
  const std::shared_ptr<serve::ModelRegistry> registry_;

  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_
      GRAFICS_GUARDED_BY(mutex_);
  bool stopped_ GRAFICS_GUARDED_BY(mutex_) = false;
};

/// Journal file name for a model: every byte outside [A-Za-z0-9._-] is
/// percent-encoded, so registry names (which may contain '/') can never
/// escape the journal directory.
std::string JournalFileName(const std::string& model_name);

}  // namespace grafics::ingest
