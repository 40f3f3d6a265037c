#include "serve/model_registry.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/error.h"
#include "core/inference_context.h"
#include "store/model_store.h"

namespace grafics::serve {

namespace {

void ValidateName(const std::string& name) {
  Require(!name.empty(), "ModelRegistry: model name must not be empty");
  Require(name.size() <= kMaxModelNameBytes,
          "ModelRegistry: model name too long: " + name);
  for (const char c : name) {
    // Unsigned compare: bytes >= 0x80 (UTF-8 continuations etc.) are fine;
    // only ASCII whitespace/control (including DEL) and the daemon's
    // NAME=PATH separator are rejected.
    const auto byte = static_cast<unsigned char>(c);
    Require(byte > ' ' && byte != 0x7F && byte != '=',
            "ModelRegistry: model name has whitespace, control bytes, or "
            "'=': " + name);
  }
}

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// The calling worker's InferenceContext over `model`, rebuilt whenever the
/// worker moves to a different snapshot. The cache is keyed by snapshot
/// ownership, not address: a freed snapshot's address can be reused by the
/// next publish, and the stale context (raw pointers into the freed model)
/// must then never be used. The weak_ptr does not keep old generations
/// alive, only their control block.
core::InferenceContext& WorkerContext(
    const std::shared_ptr<const core::Grafics>& model) {
  thread_local std::weak_ptr<const core::Grafics> owner;
  thread_local std::optional<core::InferenceContext> context;
  if (!context.has_value() || owner.owner_before(model) ||
      model.owner_before(owner)) {
    context.emplace(*model);
    owner = model;
  }
  return *context;
}

}  // namespace

/// One admitted predict request, shared by its chunk tasks.
struct ModelRegistry::Request {
  std::shared_ptr<const core::Grafics> model;  // captured at admission
  std::vector<rf::SignalRecord> records;
  PredictCallback done;
  std::chrono::steady_clock::time_point admitted;
};

ModelRegistry::Instruments::Instruments(obs::Registry& obs,
                                        const std::string& name) {
  const obs::Labels labels = {{"model", name}};
  requests = obs.GetCounter("grafics_batcher_requests_total",
                            "Predict records admitted for the model.", labels);
  tasks = obs.GetCounter(
      "grafics_batcher_batches_total",
      "Predict tasks run, on the shared pool or in place on the submitting "
      "thread.",
      labels);
  inline_tasks = obs.GetCounter(
      "grafics_batcher_inline_tasks_total",
      "Predict tasks run in place on the submitting thread because the pool "
      "was idle.",
      labels);
  queued = obs.GetGauge("grafics_batcher_queue_depth",
                        "Records admitted but not yet started by a worker.",
                        labels);
  generation = obs.GetGauge("grafics_model_generation",
                            "Monotonic per-model publish generation.", labels);
  shared_bytes = obs.GetGauge(
      "grafics_model_snapshot_shared_bytes",
      "Bytes of the serving snapshot shared with older generations "
      "(copy-on-write).",
      labels);
  owned_bytes = obs.GetGauge(
      "grafics_model_snapshot_owned_bytes",
      "Bytes of the serving snapshot owned by this generation alone.", labels);
  task_records = obs.GetHistogram(
      "grafics_batcher_batch_size", "Records per dispatched predict task.",
      obs::PowerOfTwoBuckets(kMaxBatchRecords), labels);
  queue_wait_us = obs.GetHistogram(
      "grafics_batcher_queue_wait_us",
      "Microseconds a predict task waited between admission and its start "
      "(near 0 for a task run in place).",
      obs::DefaultLatencyBucketsUs(), labels);
  predict_us = obs.GetHistogram(
      "grafics_batcher_predict_us",
      "Microseconds a predict task spent predicting its records.",
      obs::DefaultLatencyBucketsUs(), labels);
}

ModelRegistry::ModelRegistry(std::size_t threads, ThreadPool* pool,
                             std::shared_ptr<obs::Registry> obs)
    : pool_(pool), obs_(std::move(obs)) {
  Require(obs_ != nullptr, "ModelRegistry: null obs registry");
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
  obs_hook_.Attach(obs_, [this] { SetSnapshotBytes(); });
}

ModelRegistry::~ModelRegistry() {
  // Quiesce the scrape hook before anything it walks (entries_) starts
  // dying; member destruction order alone does not guarantee that.
  obs_hook_.Detach();
  Stop();
}

void ModelRegistry::Load(const std::string& name,
                         std::shared_ptr<const core::Grafics> model,
                         std::string model_path, PublishSource source) {
  ValidateName(name);
  Require(model != nullptr && model->is_trained(),
          "ModelRegistry::Load: requires a trained model for '" + name + "'");
  const MutexLock lock(&mutex_);
  Require(!stopped_, "ModelRegistry::Load after Stop");
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    // Hot swap: admitted requests finish on the snapshot they captured;
    // later admissions see the new one.
    Entry& entry = *it->second;
    const MutexLock entry_lock(&entry.mutex);
    Publish(entry, std::move(model), source);
    if (!model_path.empty()) entry.path = std::move(model_path);
    return;
  }
  // The wire caps ListModels/Stats replies at kMaxModels; enforcing it here
  // keeps the admin surface encodable for every registry this API can build.
  Require(entries_.size() < kMaxModels,
          "ModelRegistry::Load: registry full (kMaxModels)");
  auto entry = std::make_shared<Entry>(*obs_, name);
  {
    const MutexLock entry_lock(&entry->mutex);
    entry->model = std::move(model);
    entry->path = std::move(model_path);
    entry->last_source = source;
    entry->metrics.generation->Set(
        static_cast<std::int64_t>(entry->generation));
  }
  entries_.emplace(name, std::move(entry));
  if (default_name_.empty()) default_name_ = name;
}

void ModelRegistry::LoadFromDisk(const std::string& name,
                                 const std::string& model_path) {
  // Before the (expensive) artifact load: a bad name must fail fast, not
  // after seconds of deserialization.
  ValidateName(name);
  Require(!model_path.empty(),
          "ModelRegistry::LoadFromDisk: empty path for '" + name + "'");
  if (const std::shared_ptr<store::ModelStore> attached = store()) {
    // Through the store: the file becomes a (by-reference) base generation
    // and the opened snapshot anchors the model's delta-checkpoint chain.
    attached->ImportBase(name, model_path);
    Load(name, attached->Open(name), model_path);
    return;
  }
  auto model = std::make_shared<const core::Grafics>(
      core::Grafics::LoadModel(model_path));
  Load(name, std::move(model), model_path);
}

void ModelRegistry::Unload(const std::string& name) {
  std::shared_ptr<Entry> victim;
  {
    const MutexLock lock(&mutex_);
    // Empty resolves to the default like everywhere else — which then hits
    // the protection below with the accurate diagnostic.
    const std::string& resolved = name.empty() ? default_name_ : name;
    const auto it = entries_.find(resolved);
    Require(it != entries_.end(),
            "ModelRegistry::Unload: unknown model '" + resolved + "'");
    Require(resolved != default_name_,
            "ModelRegistry::Unload: cannot unload the default model '" +
                resolved + "'");
    victim = std::move(it->second);
    entries_.erase(it);
  }
  // Outside the registry lock: draining blocks on in-flight inference, and
  // workers only take the entry's own mutex.
  Drain(*victim);
}

std::uint64_t ModelRegistry::ReloadFromDisk(const std::string& name) {
  {
    const MutexLock lock(&mutex_);
    Require(!stopped_, "ModelRegistry::ReloadFromDisk after Stop");
  }
  const std::shared_ptr<Entry> entry = Find(name);
  std::string path;
  {
    const MutexLock entry_lock(&entry->mutex);
    path = entry->path;
  }
  if (const std::shared_ptr<store::ModelStore> attached = store()) {
    const std::string resolved = name.empty() ? default_model() : name;
    if (!path.empty()) {
      // Operator file reload: re-import the recorded artifact. When fold
      // checkpoints were committed after the previous import this appends a
      // fresh import generation — an explicit decision to serve the file's
      // content again (the superseded generations stay openable).
      attached->ImportBase(resolved, path);
    }
    return ReloadFromStore(name);
  }
  Require(!path.empty(),
          "ModelRegistry::ReloadFromDisk: no model path configured for '" +
              (name.empty() ? default_model() : name) + "'");
  // Load outside every lock: clients keep being served from the old
  // snapshot for the whole (expensive) load, on this model and all others.
  auto fresh = std::make_shared<const core::Grafics>(
      core::Grafics::LoadModel(path));
  const MutexLock entry_lock(&entry->mutex);
  return Publish(*entry, std::move(fresh), PublishSource::kDisk);
}

void ModelRegistry::AttachStore(std::shared_ptr<store::ModelStore> store) {
  const MutexLock lock(&store_mutex_);
  store_ = std::move(store);
}

std::shared_ptr<store::ModelStore> ModelRegistry::store() const {
  const MutexLock lock(&store_mutex_);
  return store_;
}

void ModelRegistry::SetSnapshotBytes() const {
  // Same locking shape as Stats(): snapshot the entries under the registry
  // lock, walk the chunk tables unlocked — a scrape must not stall name
  // resolution for predict traffic.
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const MutexLock lock(&mutex_);
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) entries.push_back(entry);
  }
  for (const std::shared_ptr<Entry>& entry : entries) {
    std::shared_ptr<const core::Grafics> snapshot;
    {
      const MutexLock entry_lock(&entry->mutex);
      snapshot = entry->model;
    }
    const CowBytes memory = snapshot->MemoryBytes();
    entry->metrics.shared_bytes->Set(
        static_cast<std::int64_t>(memory.shared_bytes));
    entry->metrics.owned_bytes->Set(
        static_cast<std::int64_t>(memory.owned_bytes));
  }
}

void ModelRegistry::LoadFromStore(const std::string& name,
                                  std::uint64_t generation) {
  ValidateName(name);
  const std::shared_ptr<store::ModelStore> attached = store();
  Require(attached != nullptr, "ModelRegistry::LoadFromStore: no store "
                               "attached (daemon runs without --store-dir)");
  Load(name, attached->Open(name, generation));
}

std::uint64_t ModelRegistry::ReloadFromStore(const std::string& name,
                                             std::uint64_t generation) {
  {
    const MutexLock lock(&mutex_);
    Require(!stopped_, "ModelRegistry::ReloadFromStore after Stop");
  }
  const std::shared_ptr<store::ModelStore> attached = store();
  Require(attached != nullptr, "ModelRegistry::ReloadFromStore: no store "
                               "attached (daemon runs without --store-dir)");
  const std::shared_ptr<Entry> entry = Find(name);
  const std::string resolved = name.empty() ? default_model() : name;
  // Open outside every lock, like the file path above.
  std::shared_ptr<const core::Grafics> fresh =
      attached->Open(resolved, generation);
  const MutexLock entry_lock(&entry->mutex);
  return Publish(*entry, std::move(fresh), PublishSource::kDisk);
}

std::future<std::optional<rf::FloorId>> ModelRegistry::Submit(
    const std::string& name, rf::SignalRecord record) {
  std::vector<rf::SignalRecord> records;
  records.push_back(std::move(record));
  return std::move(SubmitBatch(name, std::move(records)).front());
}

std::vector<std::future<std::optional<rf::FloorId>>>
ModelRegistry::SubmitBatch(const std::string& name,
                           std::vector<rf::SignalRecord> records) {
  using Promise = std::promise<std::optional<rf::FloorId>>;
  auto promises = std::make_shared<std::vector<Promise>>(records.size());
  std::vector<std::future<std::optional<rf::FloorId>>> futures;
  futures.reserve(records.size());
  for (Promise& promise : *promises) futures.push_back(promise.get_future());
  if (records.empty()) return futures;
  TrySubmitBatchAsync(
      name, std::move(records),
      [promises](std::size_t i, PredictOutcome outcome) {
        if (outcome.error.empty()) {
          (*promises)[i].set_value(outcome.floor);
        } else {
          (*promises)[i].set_exception(
              std::make_exception_ptr(Error(outcome.error)));
        }
      },
      /*max_queue_depth=*/0, /*run_here_if_idle=*/false);
  return futures;
}

bool ModelRegistry::TrySubmitBatchAsync(const std::string& name,
                                        std::vector<rf::SignalRecord> records,
                                        PredictCallback done,
                                        std::size_t max_queue_depth,
                                        bool run_here_if_idle) {
  Require(done != nullptr,
          "ModelRegistry::TrySubmitBatchAsync: callback required");
  Require(!records.empty(), "ModelRegistry::TrySubmitBatchAsync: empty batch");
  const std::shared_ptr<Entry> entry = Find(name);
  const std::size_t count = records.size();
  auto request = std::make_shared<Request>();
  request->records = std::move(records);
  request->done = std::move(done);
  // In place: the record is started the moment it is admitted, so it never
  // counts toward `queued` and skips the queue-depth check.
  if (run_here_if_idle && count == 1 &&
      pool_->TryRunHere([&entry, &request] {
        {
          const MutexLock entry_lock(&entry->mutex);
          Require(!entry->stopped, "ModelRegistry: predict after Stop");
          entry->in_flight += 1;
          request->model = entry->model;
        }
        entry->metrics.requests->Add();
        entry->metrics.inline_tasks->Add();
        request->admitted = std::chrono::steady_clock::now();
        RunTask(*entry, std::move(request), 0, 1);
      })) {
    return true;
  }
  {
    const MutexLock entry_lock(&entry->mutex);
    Require(!entry->stopped, "ModelRegistry: predict after Stop");
    // All-or-nothing: partially admitting a pipelined request would answer
    // some of its records and busy-reject the rest mid-response. Admissions
    // are serialized by the entry mutex and workers only lower `queued`, so
    // the check cannot be invalidated before the increment below.
    if (max_queue_depth > 0 &&
        static_cast<std::uint64_t>(entry->metrics.queued->value()) + count >
            max_queue_depth) {
      return false;
    }
    entry->metrics.queued->Add(static_cast<std::int64_t>(count));
    entry->in_flight += count;
    request->model = entry->model;
  }
  entry->metrics.requests->Add(count);
  request->admitted = std::chrono::steady_clock::now();
  // Split at submit time into one contiguous chunk per worker (sizes differ
  // by at most one): a task that fanned out from inside a worker would wait
  // on its own pool.
  const std::size_t chunks = std::min(count, pool_->num_threads());
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * count / chunks;
    const std::size_t end = (c + 1) * count / chunks;
    pool_->Submit([entry, request, begin, end]() mutable {
      entry->metrics.queued->Sub(static_cast<std::int64_t>(end - begin));
      RunTask(*entry, std::move(request), begin, end);
    });
  }
  return true;
}

void ModelRegistry::RunTask(Entry& entry,
                            std::shared_ptr<const Request> request,
                            std::size_t begin, std::size_t end) {
  RunChunk(entry, *request, begin, end);
  // Release the request (and its callback) before reporting completion, so
  // a drained model holds no caller state.
  request.reset();
  const MutexLock entry_lock(&entry.mutex);
  entry.in_flight -= end - begin;
  if (entry.in_flight == 0) entry.drained.NotifyAll();
}

void ModelRegistry::RunChunk(Entry& entry, const Request& request,
                             std::size_t begin, std::size_t end) {
  const std::size_t count = end - begin;
  entry.metrics.tasks->Add();
  std::uint64_t largest = entry.max_task.load(std::memory_order_relaxed);
  while (count > largest &&
         !entry.max_task.compare_exchange_weak(largest, count,
                                               std::memory_order_relaxed)) {
  }
  const std::uint64_t queue_wait_us = MicrosSince(request.admitted);
  entry.metrics.task_records->Observe(count);
  entry.metrics.queue_wait_us->Observe(queue_wait_us);
  std::vector<std::optional<rf::FloorId>> floors(count);
  const auto started = std::chrono::steady_clock::now();
  try {
    core::InferenceContext& context = WorkerContext(request.model);
    for (std::size_t i = 0; i < count; ++i) {
      floors[i] = context.Predict(request.records[begin + i]);
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < count; ++i) {
      request.done(begin + i, {std::nullopt, e.what(), queue_wait_us, 0});
    }
    return;
  }
  const std::uint64_t predict_us = MicrosSince(started);
  entry.metrics.predict_us->Observe(predict_us);
  for (std::size_t i = 0; i < count; ++i) {
    request.done(begin + i, {floors[i], {}, queue_wait_us, predict_us});
  }
}

void ModelRegistry::Drain(Entry& entry) {
  const MutexLock entry_lock(&entry.mutex);
  entry.stopped = true;
  while (entry.in_flight > 0) entry.drained.Wait(entry.mutex);
}

std::uint64_t ModelRegistry::Publish(Entry& entry,
                                     std::shared_ptr<const core::Grafics> model,
                                     PublishSource source) {
  entry.model = std::move(model);
  entry.last_source = source;
  ++entry.generation;
  entry.metrics.generation->Set(static_cast<std::int64_t>(entry.generation));
  return entry.generation;
}

std::vector<ModelInfo> ModelRegistry::List() const {
  const MutexLock lock(&mutex_);
  std::vector<ModelInfo> models;
  models.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    const MutexLock entry_lock(&entry->mutex);
    models.push_back({name, entry->generation, !entry->path.empty()});
  }
  return models;
}

std::vector<ModelStats> ModelRegistry::Stats(
    const std::string& name_filter) const {
  // Snapshot the entries under the registry lock, then gather the per-model
  // counters unlocked (like Stop does): an admin stats sweep must not stall
  // name resolution for predict traffic while it visits every model.
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  {
    const MutexLock lock(&mutex_);
    entries.reserve(name_filter.empty() ? entries_.size() : 1);
    for (const auto& [name, entry] : entries_) {
      if (!name_filter.empty() && name != name_filter) continue;
      entries.emplace_back(name, entry);
    }
  }
  std::vector<ModelStats> models;
  models.reserve(entries.size());
  for (const auto& [name, entry] : entries) {
    ModelStats stats;
    stats.name = name;
    std::shared_ptr<const core::Grafics> snapshot;
    {
      const MutexLock entry_lock(&entry->mutex);
      stats.generation = entry->generation;
      stats.last_publish_source = entry->last_source;
      snapshot = entry->model;
    }
    // Chunk-granular sweep outside the entry lock: predict traffic keeps
    // resolving while the accounting walks the snapshot's chunk tables.
    const CowBytes memory = snapshot->MemoryBytes();
    stats.shared_bytes = memory.shared_bytes;
    stats.owned_bytes = memory.owned_bytes;
    stats.requests = entry->metrics.requests->value();
    stats.batches = entry->metrics.tasks->value();
    stats.max_batch = entry->max_task.load(std::memory_order_relaxed);
    stats.queue_depth =
        static_cast<std::uint64_t>(entry->metrics.queued->value());
    {
      // Invoked under probe_mutex_ (but outside every registry/entry
      // lock), so SetIngestDepthProbe(nullptr) is a true quiesce point:
      // once it returns, no in-flight Stats can still be inside the
      // pipeline's callback. The probe itself only touches pipeline state.
      const MutexLock probe_lock(&probe_mutex_);
      if (ingest_depth_probe_) {
        stats.pending_ingest = ingest_depth_probe_(name);
      }
    }
    models.push_back(std::move(stats));
  }
  return models;
}

std::uint64_t ModelRegistry::InlineTasks(const std::string& name) const {
  const MutexLock lock(&mutex_);
  const auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second->metrics.inline_tasks->value();
}

std::size_t ModelRegistry::size() const {
  const MutexLock lock(&mutex_);
  return entries_.size();
}

bool ModelRegistry::Has(const std::string& name) const {
  const MutexLock lock(&mutex_);
  return entries_.count(name) != 0;
}

std::shared_ptr<const core::Grafics> ModelRegistry::Snapshot(
    const std::string& name) const {
  const std::shared_ptr<Entry> entry = Find(name);
  const MutexLock entry_lock(&entry->mutex);
  return entry->model;
}

std::uint64_t ModelRegistry::generation(const std::string& name) const {
  const std::shared_ptr<Entry> entry = Find(name);
  const MutexLock entry_lock(&entry->mutex);
  return entry->generation;
}

std::string ModelRegistry::default_model() const {
  const MutexLock lock(&mutex_);
  return default_name_;
}

void ModelRegistry::SetDefaultModel(const std::string& name) {
  const MutexLock lock(&mutex_);
  Require(entries_.count(name) != 0,
          "ModelRegistry::SetDefaultModel: unknown model '" + name + "'");
  default_name_ = name;
}

void ModelRegistry::SetIngestDepthProbe(
    std::function<std::uint64_t(const std::string&)> probe) {
  const MutexLock lock(&probe_mutex_);
  ingest_depth_probe_ = std::move(probe);
}

void ModelRegistry::Stop() {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    const MutexLock lock(&mutex_);
    stopped_ = true;
    entries.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) entries.push_back(entry);
  }
  for (const std::shared_ptr<Entry>& entry : entries) Drain(*entry);
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::Find(
    const std::string& name) const {
  const MutexLock lock(&mutex_);
  const std::string& resolved = name.empty() ? default_name_ : name;
  const auto it = entries_.find(resolved);
  Require(it != entries_.end(), "unknown model '" + resolved + "'");
  return it->second;
}

}  // namespace grafics::serve
