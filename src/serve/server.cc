#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include <cstdio>

#include "common/error.h"
#include "ingest/ingest_pipeline.h"
#include "obs/trace.h"
#include "store/model_store.h"

namespace grafics::serve {

namespace {

void SetNoDelay(int fd) {
  // Replies are small, latency-bound frames; don't let Nagle hold one back
  // for up to 40ms waiting to coalesce it with the next.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Structured per-record failure: every result carries the same error.
PredictResponse ErrorResponse(std::size_t records, const std::string& what) {
  PredictResponse response;
  response.results.resize(std::max<std::size_t>(records, 1));
  for (PredictResult& result : response.results) {
    result.status = PredictStatus::kError;
    result.error = what;
  }
  return response;
}

/// The registry a server may be built on: one holding the default model.
std::shared_ptr<ModelRegistry> ServedRegistry(
    std::shared_ptr<ModelRegistry> registry) {
  Require(registry != nullptr && registry->size() > 0,
          "Server: requires a registry with at least one model");
  return registry;
}

}  // namespace

Server::Server(std::shared_ptr<ModelRegistry> registry, ServerConfig config)
    : config_(std::move(config)),
      registry_(ServedRegistry(std::move(registry))),
      accepts_(registry_->obs()->GetCounter(
          "grafics_transport_accepts_total",
          "Connections accepted since start.")),
      busy_rejections_(registry_->obs()->GetCounter(
          "grafics_transport_busy_rejections_total",
          "Predicts refused by admission control "
          "(per-connection in-flight or model queue-depth caps).")),
      slow_requests_(registry_->obs()->GetCounter(
          "grafics_server_slow_requests_total",
          "Predicts whose end-to-end time exceeded slow_request_us.")),
      frame_decode_us_(registry_->obs()->GetHistogram(
          "grafics_transport_frame_decode_us",
          "Microseconds spent decoding one request frame.",
          obs::DefaultLatencyBucketsUs())),
      loop_(std::make_unique<EventLoop>(
          EventLoopConfig{.workers = config_.event_workers,
                          .idle_timeout = config_.idle_timeout,
                          .max_frame_bytes = config_.max_frame_bytes,
                          .extractor = nullptr},
          registry_->obs(),
          [this](std::string payload, std::size_t inflight,
                 EventLoop::Completion done) {
            HandleFrame(std::move(payload), inflight, std::move(done));
          },
          [](const std::string& what) {
            return EncodeFrame(ErrorResponse(1, what));
          })) {
  Require(config_.event_workers >= 1, "Server: event_workers >= 1");
  Require(config_.ops_threads >= 1, "Server: ops_threads >= 1");
}

Server::~Server() { Stop(); }

void Server::AttachIngest(std::shared_ptr<ingest::IngestPipeline> ingest) {
  Require(!started_, "Server::AttachIngest: attach before Start");
  ingest_ = std::move(ingest);
}

void Server::AttachStore(std::shared_ptr<store::ModelStore> store) {
  Require(!started_, "Server::AttachStore: attach before Start");
  store_ = std::move(store);
}

void Server::Start() {
  Require(!started_, "Server::Start: already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  Require(listen_fd_ >= 0, "Server: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(config_.port);
  Require(::inet_pton(AF_INET, config_.host.c_str(), &address.sin_addr) == 1,
          "Server: bad host address " + config_.host);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 1024) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("Server: cannot listen on " + config_.host + ":" +
                std::to_string(config_.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size);
  port_ = ntohs(bound.sin_port);

  loop_->Start();
  ops_pool_ = std::make_unique<ThreadPool>(config_.ops_threads);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::Stop() {
  if (!started_ || stopping_.exchange(true)) return;
  // Wake the accept loop first so no new connections reach the event loop,
  // then stop the loop (disconnecting clients; late predict completions
  // become no-ops), then drain the ops pool. The registry keeps running; it
  // is stopped by its owner, not the transport.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  loop_->Stop();
  ops_pool_.reset();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_) return;  // listen socket shut down by Stop
      // A daemon must outlive transient accept failures: aborted backlog
      // entries and fd exhaustion are recoverable, so back off briefly and
      // keep accepting (the idle harvester frees fds in the background).
      if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE ||
          errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // unrecoverable (EBADF, EINVAL, ...)
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    SetNoDelay(fd);
    accepts_->Add();
    loop_->Adopt(fd);
  }
}

void Server::HandleFrame(std::string payload, std::size_t inflight,
                         EventLoop::Completion done) {
  try {
    const auto decode_start = std::chrono::steady_clock::now();
    Message request = DecodePayload(payload);
    frame_decode_us_->Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - decode_start)
            .count()));
    if (auto* predict = std::get_if<PredictRequest>(&request)) {
      HandlePredictAsync(std::move(*predict), inflight, std::move(done));
    } else if (const auto* ping = std::get_if<Ping>(&request)) {
      done.Send(EncodeFrame(HandlePing(*ping)));
    } else if (const auto* reload = std::get_if<ReloadRequest>(&request)) {
      // Reload deserializes a model artifact from disk — seconds, not
      // microseconds. Off the event worker; the slot keeps its place in
      // the connection's reply order while the load runs.
      ops_pool_->Submit([this, request = *reload, done] {
        done.Send(EncodeFrame(HandleReload(request)));
      });
    } else if (std::holds_alternative<ListModelsRequest>(request)) {
      done.Send(EncodeFrame(HandleListModels()));
    } else if (const auto* stats = std::get_if<StatsRequest>(&request)) {
      done.Send(EncodeFrame(HandleStats(*stats)));
    } else if (auto* submit = std::get_if<SubmitRecordsRequest>(&request)) {
      // Journal appends fdatasync; same treatment as reload.
      ops_pool_->Submit(
          [this, request = std::move(*submit), done]() mutable {
            done.Send(EncodeFrame(HandleSubmit(std::move(request))));
          });
    } else if (const auto* ingest_stats =
                   std::get_if<IngestStatsRequest>(&request)) {
      done.Send(EncodeFrame(HandleIngestStats(*ingest_stats)));
    } else if (const auto* checkpoint =
                   std::get_if<CheckpointRequest>(&request)) {
      // Checkpoints serialize a model snapshot and fsync it — same blocking
      // profile as a reload, so same treatment.
      ops_pool_->Submit([this, request = *checkpoint, done] {
        done.Send(EncodeFrame(HandleCheckpoint(request)));
      });
    } else if (const auto* compact = std::get_if<CompactRequest>(&request)) {
      // Compaction blocks until the ingest worker has staged + committed.
      ops_pool_->Submit([this, request = *compact, done] {
        done.Send(EncodeFrame(HandleCompact(request)));
      });
    } else if (const auto* artifacts =
                   std::get_if<ListArtifactsRequest>(&request)) {
      done.Send(EncodeFrame(HandleListArtifacts(*artifacts)));
    } else if (std::holds_alternative<MetricsRequest>(request)) {
      // Inline like Stats: the render walks per-model counters and chunk
      // tables, the same cost profile as HandleStats — no fsyncs, no disk.
      done.Send(
          EncodeFrame(MetricsResponse{registry_->obs()->RenderPrometheus()}));
    } else {
      throw Error("Server: unexpected message type from client");
    }
  } catch (const std::exception& e) {
    // Malformed frame (including any dialect other than v7): best-effort
    // error reply, then hang up. The daemon itself stays up — protocol
    // errors are per-connection.
    done.Send(EncodeFrame(ErrorResponse(1, e.what())), /*close_after=*/true);
  }
}

void Server::HandlePredictAsync(PredictRequest request, std::size_t inflight,
                                EventLoop::Completion done) {
  const std::size_t count = request.records.size();
  if (count == 0) {
    done.Send(EncodeFrame(PredictResponse{}));
    return;
  }
  if (config_.max_inflight_per_connection > 0 &&
      inflight > config_.max_inflight_per_connection) {
    busy_rejections_->Add();
    done.Send(EncodeFrame(
        ErrorResponse(count,
                      "busy: connection has " + std::to_string(inflight) +
                          " requests in flight (max " +
                          std::to_string(config_.max_inflight_per_connection) +
                          ")")));
    return;
  }
  // Shared across the per-record completions; the last one to finish
  // encodes and sends the response. The callbacks run on the registry's
  // pool workers (a request may be split across several), or on this event
  // worker for a lone record run in place, so they only fill slots — no
  // blocking, no encoding until the request is complete.
  struct PendingPredict {
    PredictResponse response;
    std::atomic<std::size_t> remaining{0};
    EventLoop::Completion done;
    // Slow-request tracing, null/zero when disabled. Completions may
    // outlive the Server (the registry is drained by its owner, later), so
    // everything the logging path touches is held here — the obs
    // shared_ptr pins the counter — not read off `this`.
    std::shared_ptr<obs::Trace> trace;
    std::string model;
    std::uint64_t slow_threshold_us = 0;
    obs::Counter* slow_counter = nullptr;
    std::shared_ptr<obs::Registry> obs;
  };
  auto pending = std::make_shared<PendingPredict>();
  pending->response.results.resize(count);
  pending->remaining.store(count, std::memory_order_relaxed);
  pending->done = done;
  if (config_.slow_request_us > 0) {
    pending->trace = std::make_shared<obs::Trace>();
    pending->trace->Stamp("frame_decoded");
    pending->model = request.model;
    pending->slow_threshold_us = config_.slow_request_us;
    pending->slow_counter = slow_requests_;
    pending->obs = registry_->obs();
  }
  try {
    // Completions happen-after this stamp via the pool's queue mutex (or
    // run on this thread), and only the last one touches the trace (after
    // the acq_rel countdown), so it is never touched from two threads at
    // once.
    if (pending->trace != nullptr) pending->trace->Stamp("enqueued");
    // A single-record predict that is the connection's only open request
    // runs right here when the pool is idle: no pool task, no worker
    // wakeup, and the reply is flushed in this loop iteration. It holds up
    // this worker's other connections for one record's predict at most;
    // pipelined frames behind it (inflight > 1) and anything arriving while
    // the pool is busy take the pool.
    const bool admitted = registry_->TrySubmitBatchAsync(
        request.model, std::move(request.records),
        [pending, count](std::size_t index, PredictOutcome outcome) {
          PredictResult& result = pending->response.results[index];
          const std::uint64_t queue_wait_us = outcome.queue_wait_us;
          const std::uint64_t predict_us = outcome.predict_us;
          if (!outcome.error.empty()) {
            result.status = PredictStatus::kError;
            result.error = std::move(outcome.error);
          } else if (outcome.floor.has_value()) {
            result.status = PredictStatus::kOk;
            result.floor = *outcome.floor;
          } else {
            result.status = PredictStatus::kDiscarded;
          }
          if (pending->remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            if (pending->trace != nullptr) {
              // The last record's attribution stands in for the request:
              // its chunk finished last, so its wait plus predict time is
              // the request's admission-to-answer time.
              pending->trace->Note("queue_wait", queue_wait_us);
              pending->trace->Note("predict", predict_us);
            }
            pending->done.Send(EncodeFrame(pending->response));
            if (pending->trace != nullptr) {
              pending->trace->Stamp("reply_flushed");
              const std::uint64_t total_us = pending->trace->ElapsedUs();
              if (total_us > pending->slow_threshold_us) {
                pending->slow_counter->Add();
                std::fprintf(
                    stderr,
                    "grafics_served: slow-request model=%s records=%zu "
                    "total_us=%llu trace: %s\n",
                    pending->model.empty() ? "(default)"
                                           : pending->model.c_str(),
                    count,
                    static_cast<unsigned long long>(total_us),
                    pending->trace->Breakdown().c_str());
              }
            }
          }
        },
        config_.max_queue_depth, /*run_here_if_idle=*/inflight == 1);
    if (!admitted) {
      busy_rejections_->Add();
      done.Send(EncodeFrame(
          ErrorResponse(count,
                        "busy: model queue depth would exceed " +
                            std::to_string(config_.max_queue_depth) +
                            " pending records")));
    }
  } catch (const std::exception& e) {
    // Unknown model name (or a stopped registry): a structured per-record
    // error status, never a dropped connection.
    done.Send(EncodeFrame(ErrorResponse(count, e.what())));
  }
}

Pong Server::HandlePing(const Ping& ping) const {
  Pong pong;
  try {
    pong.model_generation = registry_->generation(ping.model);
  } catch (const std::exception& e) {
    pong.ok = false;
    pong.error = e.what();
  }
  return pong;
}

ReloadResponse Server::HandleReload(const ReloadRequest& request) {
  ReloadResponse response;
  try {
    if (request.generation != 0) {
      // Generation-pinned rollback goes straight to the store; re-reading
      // the recorded artifact path would load the wrong bytes.
      Require(store_ != nullptr,
              "Server: generation-pinned reload requires a persistence "
              "store (--store-dir)");
      response.model_generation =
          registry_->ReloadFromStore(request.model, request.generation);
      response.message = "model rolled back to store generation " +
                         std::to_string(request.generation);
    } else {
      response.model_generation = registry_->ReloadFromDisk(request.model);
      response.message = "model reloaded";
    }
    response.ok = true;
  } catch (const std::exception& e) {
    response.ok = false;
    response.message = e.what();
    // Best effort: report the surviving generation for known models.
    try {
      response.model_generation = registry_->generation(request.model);
    } catch (...) {
      // Unknown model: the reload error above already says so; leave the
      // generation at its zero default.
    }
  }
  return response;
}

ListModelsResponse Server::HandleListModels() const {
  ListModelsResponse response;
  response.default_model = registry_->default_model();
  response.models = registry_->List();
  return response;
}

StatsResponse Server::HandleStats(const StatsRequest& request) const {
  StatsResponse response;
  response.connections_accepted = accepts_->value();
  response.models = registry_->Stats(request.model);
  response.transport = transport_stats();
  if (store_ != nullptr) {
    response.store.enabled = true;
    const store::ArtifactCounts counts = store_->Counts();
    response.store.base_count = counts.base_count;
    response.store.delta_count = counts.delta_count;
    if (ingest_ != nullptr) {
      response.store.journal_bytes_reclaimed =
          ingest_->JournalBytesReclaimed();
    }
  }
  return response;
}

TransportStats Server::transport_stats() const {
  const LoopInstruments& loop = loop_->instruments();
  TransportStats transport;
  transport.connections_live =
      static_cast<std::uint64_t>(loop.connections_live->value());
  transport.connections_harvested_idle = loop.connections_harvested->value();
  transport.frames_in = loop.frames_in->value();
  transport.frames_out = loop.frames_out->value();
  transport.bytes_in = loop.bytes_in->value();
  transport.bytes_out = loop.bytes_out->value();
  transport.requests_rejected_busy = busy_rejections_->value();
  transport.event_workers = config_.event_workers;
  return transport;
}

SubmitRecordsResponse Server::HandleSubmit(SubmitRecordsRequest request) {
  SubmitRecordsResponse response;
  if (ingest_ == nullptr) {
    response.results.resize(request.records.size());
    for (SubmitResult& result : response.results) {
      result.error = "ingest disabled on this daemon (no --journal-dir / "
                     "pipeline attached)";
    }
    return response;
  }
  std::vector<ingest::SubmitResult> results;
  try {
    results = ingest_->Submit(request.model, std::move(request.records));
  } catch (const std::exception& e) {
    // Defensive: Submit reports per-record problems in its results; an
    // exception here is transport-worthy but still answered structurally.
    response.results.resize(1);
    response.results.front().error = e.what();
    return response;
  }
  response.results.reserve(results.size());
  for (ingest::SubmitResult& result : results) {
    response.results.push_back(
        {result.accepted ? SubmitStatus::kAccepted : SubmitStatus::kRejected,
         std::move(result.error)});
  }
  return response;
}

IngestStatsResponse Server::HandleIngestStats(
    const IngestStatsRequest& request) const {
  IngestStatsResponse response;
  if (ingest_ == nullptr) return response;  // enabled = false
  response.enabled = true;
  response.models = ingest_->Stats(request.model);
  return response;
}

CheckpointResponse Server::HandleCheckpoint(const CheckpointRequest& request) {
  CheckpointResponse response;
  try {
    Require(store_ != nullptr,
            "Server: checkpoint requires a persistence store (--store-dir)");
    const std::string name =
        request.model.empty() ? registry_->default_model() : request.model;
    store::StagedArtifact written;
    response.generation =
        store_->WriteCheckpoint(name, registry_->Snapshot(name), &written);
    response.delta = written.is_delta;
    response.bytes_written = written.bytes;
    response.ok = true;
    response.message = written.is_delta ? "delta checkpoint written"
                                        : "base checkpoint written";
  } catch (const std::exception& e) {
    response.ok = false;
    response.message = e.what();
  }
  return response;
}

CompactResponse Server::HandleCompact(const CompactRequest& request) {
  CompactResponse response;
  try {
    Require(ingest_ != nullptr,
            "Server: compaction requires the ingest pipeline "
            "(--journal-dir)");
    const ingest::IngestPipeline::CompactOutcome outcome =
        ingest_->CompactNow(request.model);
    response.generation = outcome.generation;
    response.journal_bytes_reclaimed = outcome.journal_bytes_reclaimed;
    response.ok = true;
    response.message = "journal compacted";
  } catch (const std::exception& e) {
    response.ok = false;
    response.message = e.what();
  }
  return response;
}

ListArtifactsResponse Server::HandleListArtifacts(
    const ListArtifactsRequest& request) const {
  ListArtifactsResponse response;
  if (store_ == nullptr) return response;  // enabled = false
  response.enabled = true;
  const std::string name =
      request.model.empty() ? registry_->default_model() : request.model;
  for (const store::ArtifactInfo& info : store_->List(name)) {
    response.artifacts.push_back(
        {info.generation, info.is_delta, info.file, info.bytes});
  }
  return response;
}

}  // namespace grafics::serve
