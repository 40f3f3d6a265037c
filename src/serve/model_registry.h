// Named model registry: the serving side of "one daemon, many buildings".
//
// Maps model names to hot-swappable std::shared_ptr<const Grafics> snapshots
// with a per-model generation counter and per-model serving stats. Predicts
// are dispatched straight onto one ThreadPool shared by every model, so
// inference parallelism is bounded per process regardless of how many
// buildings are loaded. Each query is an independent snapshot-isolated
// refinement (no work is shared between queries), so nothing waits for a
// batch to fill: a request of n records becomes min(n, pool threads)
// contiguous chunk tasks the moment it is admitted. The one exception is a
// lone record the caller may run itself (TrySubmitBatchAsync's
// run_here_if_idle): while the pool is idle it is predicted on the calling
// thread as a one-record task, with the same accounting and answer.
//
// The registry owns the models; serve::Server is a thin transport that
// decodes frames and routes them here by name (empty name = the default
// model). Load/ReloadFromDisk swap a model's snapshot atomically: a request
// captures the snapshot at admission and finishes on it, later requests pick
// up the new one. Unload drains the model's admitted requests (futures still
// resolve) and removes it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotated_sync.h"
#include "common/thread_pool.h"
#include "core/grafics.h"
#include "obs/metrics.h"
#include "rf/signal_record.h"
#include "serve/protocol.h"

namespace grafics::store {
class ModelStore;
}

namespace grafics::serve {

/// One record's completion, delivered to a TrySubmitBatchAsync callback from
/// the thread that ran the record's task (a pool worker, or the submitting
/// thread for a task run in place). `error` empty means the record was
/// served: floor carries the prediction, nullopt = discarded (no MAC
/// overlap).
struct PredictOutcome {
  std::optional<rf::FloorId> floor;
  std::string error;
  /// Time the record's chunk task waited between admission and its start
  /// (near 0 for a task run in place), and how long the chunk's predictions took — carried
  /// back so the server's slow-request trace can attribute latency without
  /// re-measuring.
  std::uint64_t queue_wait_us = 0;
  std::uint64_t predict_us = 0;
};

class ModelRegistry {
 public:
  using PredictCallback = std::function<void(std::size_t, PredictOutcome)>;

  /// Predicts run on one ThreadPool shared by every model: an owned pool of
  /// `threads` workers (0 = hardware_concurrency), or `pool` when non-null
  /// (which then must outlive the registry). `obs` is the telemetry registry
  /// every per-model instrument lives in; the serving transport and the
  /// ingest pipeline built on this registry record into it too.
  explicit ModelRegistry(
      std::size_t threads = 1, ThreadPool* pool = nullptr,
      std::shared_ptr<obs::Registry> obs = std::make_shared<obs::Registry>());
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Installs `model` (trained) under `name`, creating the model on first
  /// load and hot-swapping the snapshot (generation + 1) on later loads.
  /// `model_path`, when non-empty, enables ReloadFromDisk for this name.
  /// The first loaded model becomes the default. Names are non-empty, at
  /// most kMaxModelNameBytes, and free of whitespace and '='. `source`
  /// records who published the snapshot (Stats reports it): kDisk for
  /// operator loads and reloads, kIngest for the ingest pipeline's
  /// background fold-in publishes.
  void Load(const std::string& name,
            std::shared_ptr<const core::Grafics> model,
            std::string model_path = {},
            PublishSource source = PublishSource::kDisk);
  /// Loads `name` from an artifact file. Without an attached store this is
  /// Grafics::LoadModel(model_path) + Load(name, ..., model_path); with one
  /// (AttachStore) the artifact is imported into the store by reference and
  /// opened through it, so the import becomes a store generation and later
  /// delta checkpoints chain onto it. Kept as the single file-path entry
  /// point for the daemon and tests.
  void LoadFromDisk(const std::string& name, const std::string& model_path);
  /// Drains the model's admitted requests (their futures still resolve),
  /// then removes it. The default model cannot be unloaded.
  void Unload(const std::string& name);
  /// Re-loads `name` (empty = default) and swaps it in, returning the new
  /// generation. Without an attached store this reads the recorded artifact
  /// path. With one: a model with a recorded path re-imports that file (the
  /// operator-retrain flow — deliberately superseding any fold generations
  /// committed after the previous import); a model without one re-opens the
  /// store's latest generation. The old snapshot keeps serving if the load
  /// throws; other models are untouched either way.
  std::uint64_t ReloadFromDisk(const std::string& name);

  /// Attaches the unified persistence store; LoadFromDisk/ReloadFromDisk
  /// route through it from then on, and LoadFromStore/ReloadFromStore
  /// address its generations directly.
  void AttachStore(std::shared_ptr<store::ModelStore> store);
  std::shared_ptr<store::ModelStore> store() const;

  /// The telemetry registry given at construction.
  const std::shared_ptr<obs::Registry>& obs() const { return obs_; }

  /// Load(name, store->Open(name, generation)): installs a store generation
  /// (0 = latest). Requires an attached store holding `name`.
  void LoadFromStore(const std::string& name, std::uint64_t generation = 0);
  /// Re-opens `name` (empty = default) from the attached store at
  /// `generation` (0 = latest, non-zero = rollback pin) and swaps it in,
  /// returning the new registry generation.
  std::uint64_t ReloadFromStore(const std::string& name,
                                std::uint64_t generation = 0);

  /// Predicts one record on the named model (empty = default). Throws
  /// grafics::Error for unknown names and after Stop(); the caller turns
  /// that into a per-record error status, not a dropped connection.
  std::future<std::optional<rf::FloorId>> Submit(const std::string& name,
                                                 rf::SignalRecord record);
  /// Submit for a whole request batch: resolves the name and admits every
  /// record at once, returning per-record futures in order.
  std::vector<std::future<std::optional<rf::FloorId>>> SubmitBatch(
      const std::string& name, std::vector<rf::SignalRecord> records);
  /// Admission-controlled completion-callback SubmitBatch for the event
  /// loop: admits every record or none. Returns false without invoking
  /// anything when `max_queue_depth` > 0 and the model's admitted-but-not-
  /// started records would exceed it; the transport turns that into a
  /// structured busy error. On success `done(i, outcome)` runs once per
  /// record from a pool worker, so it must be cheap, must not throw, and
  /// must not wait on other predicts (they may be queued behind it). Throws
  /// for unknown names and after Stop(), like Submit.
  ///
  /// With `run_here_if_idle`, a single-record request that finds the pool
  /// idle (ThreadPool::TryRunHere) is not queued at all: it is predicted on
  /// the calling thread as a one-record task, `done` runs there before this
  /// returns, and the pool counts as busy meanwhile, so at most one such
  /// task runs at a time. Every other request takes the pool path above.
  bool TrySubmitBatchAsync(const std::string& name,
                           std::vector<rf::SignalRecord> records,
                           PredictCallback done, std::size_t max_queue_depth,
                           bool run_here_if_idle);

  /// Name/generation/reloadable for every model, sorted by name.
  std::vector<ModelInfo> List() const;
  /// Per-model serving counters, sorted by name. A non-empty `name_filter`
  /// touches only that model's entry (empty result for unknown names).
  /// requests/batches read the model's obs counters, which count since the
  /// name was first loaded (an Unload does not reset them); generation and
  /// max_batch describe the current load.
  std::vector<ModelStats> Stats(const std::string& name_filter = {}) const;
  /// Predict tasks of `name` that ran on their submitting thread
  /// (run_here_if_idle) since the name was first loaded; 0 for unknown
  /// names.
  std::uint64_t InlineTasks(const std::string& name) const;
  std::size_t size() const;
  bool Has(const std::string& name) const;
  /// Current snapshot of `name` (empty = default); holders keep it alive
  /// across hot swaps.
  std::shared_ptr<const core::Grafics> Snapshot(
      const std::string& name = {}) const;
  /// Monotonic per-model counter starting at 1, bumped by every swap.
  std::uint64_t generation(const std::string& name = {}) const;

  std::string default_model() const;
  void SetDefaultModel(const std::string& name);

  /// Installs (or clears, with nullptr) the callback Stats uses to fill each
  /// model's pending_ingest field. The ingest pipeline registers itself here
  /// and MUST clear the probe before it is destroyed — clearing blocks until
  /// in-flight probe calls return (they run under the probe's own mutex, not
  /// the registry's), so after SetIngestDepthProbe(nullptr) the callback is
  /// guaranteed quiescent. The probe receives the model name and must not
  /// call back into the registry.
  void SetIngestDepthProbe(
      std::function<std::uint64_t(const std::string&)> probe);

  /// Drains every model's admitted requests and rejects further
  /// Submits/Loads. Idempotent; also run by the destructor. Stats stay
  /// readable.
  void Stop();

 private:
  /// A model's instruments, resolved by name: a later Load of an unloaded
  /// name resolves the same series, so its counters keep counting.
  struct Instruments {
    Instruments(obs::Registry& obs, const std::string& name);

    obs::Counter* requests;      // records admitted
    obs::Counter* tasks;         // chunk tasks run, pooled or in place
    obs::Counter* inline_tasks;  // the tasks run in place
    /// Admitted records no worker has started: the queue depth that
    /// admission control compares against. Raised under the entry mutex at
    /// admission, lowered lock-free by workers.
    obs::Gauge* queued;
    obs::Gauge* generation;
    obs::Gauge* shared_bytes;
    obs::Gauge* owned_bytes;
    obs::Histogram* task_records;
    obs::Histogram* queue_wait_us;
    obs::Histogram* predict_us;
  };

  struct Entry {
    Entry(obs::Registry& obs, const std::string& name) : metrics(obs, name) {}

    mutable Mutex mutex;
    CondVar drained;
    std::shared_ptr<const core::Grafics> model GRAFICS_GUARDED_BY(mutex);
    std::uint64_t generation GRAFICS_GUARDED_BY(mutex) = 1;
    std::string path GRAFICS_GUARDED_BY(mutex);
    PublishSource last_source GRAFICS_GUARDED_BY(mutex) =
        PublishSource::kDisk;
    bool stopped GRAFICS_GUARDED_BY(mutex) = false;
    /// Admitted records whose callbacks have not all run yet; Unload and
    /// Stop wait for it to reach zero.
    std::uint64_t in_flight GRAFICS_GUARDED_BY(mutex) = 0;
    /// Largest chunk task since this load.
    std::atomic<std::uint64_t> max_task{0};
    const Instruments metrics;
  };

  struct Request;
  /// Runs records [begin, end) of `request` on the calling thread.
  static void RunChunk(Entry& entry, const Request& request,
                       std::size_t begin, std::size_t end);
  /// RunChunk, then releases the request and the records' in_flight
  /// count: the body of every predict task, pooled or in place.
  static void RunTask(Entry& entry, std::shared_ptr<const Request> request,
                      std::size_t begin, std::size_t end);
  /// Blocks until every record admitted to `entry` has completed.
  static void Drain(Entry& entry);
  /// Swaps `model` in as the entry's next generation and returns it.
  static std::uint64_t Publish(Entry& entry,
                               std::shared_ptr<const core::Grafics> model,
                               PublishSource source)
      GRAFICS_REQUIRES(entry.mutex);

  /// Resolves empty → default and looks the entry up. Callers hold the
  /// returned shared_ptr, so a concurrent Unload cannot free it mid-use.
  std::shared_ptr<Entry> Find(const std::string& name) const
      GRAFICS_EXCLUDES(mutex_);

  /// Collection-hook body: sets every loaded model's snapshot byte gauges,
  /// which depend on the lifetimes of other snapshots and so can only be
  /// computed at scrape time.
  void SetSnapshotBytes() const GRAFICS_EXCLUDES(mutex_);

  ThreadPool* pool_;  // the owned pool or the caller's
  const std::shared_ptr<obs::Registry> obs_;
  obs::ScopedHook obs_hook_;  // detached first thing in the destructor

  mutable Mutex store_mutex_;  // probes never touch it
  std::shared_ptr<store::ModelStore> store_ GRAFICS_GUARDED_BY(store_mutex_);

  mutable Mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_
      GRAFICS_GUARDED_BY(mutex_);
  std::string default_name_ GRAFICS_GUARDED_BY(mutex_);
  bool stopped_ GRAFICS_GUARDED_BY(mutex_) = false;

  mutable Mutex probe_mutex_;  // separate: probes run outside mutex_
  std::function<std::uint64_t(const std::string&)> ingest_depth_probe_
      GRAFICS_GUARDED_BY(probe_mutex_);

  // Last member: destroyed first, so its workers are joined before anything
  // a finishing task could still touch goes away.
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace grafics::serve
