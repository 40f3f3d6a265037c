#include "serve/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace grafics::serve {

Client::Client(const std::string& host, std::uint16_t port,
               ClientConfig config)
    : config_(config) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addresses = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &addresses);
  Require(rc == 0, "Client: cannot resolve " + host + ": " +
                       std::string(::gai_strerror(rc)));
  std::string reason = "no addresses";
  for (const addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      fd_ = fd;
      break;
    }
    reason = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(addresses);
  Require(fd_ >= 0, "Client: cannot connect to " + host + ":" +
                        std::to_string(port) + ": " + reason);
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : config_(other.config_), fd_(other.fd_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    config_ = other.config_;
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Message Client::RoundTrip(const Message& request) {
  Require(connected(), "Client: not connected");
  SendFrame(fd_, request);
  std::optional<Message> reply = ReceiveFrame(fd_, config_.max_frame_bytes);
  Require(reply.has_value(), "Client: daemon closed the connection");
  return std::move(*reply);
}

namespace {

/// Headroom for the frame header, type byte, model name, and record count.
constexpr std::size_t kFrameOverheadBudget = 256;

/// Where the chunk starting at `begin` ends, shared by PredictBatch and
/// Submit: a chunk closes at `max_records_per_frame` records (clamped to
/// [1, kMaxBatchRecords]) or as soon as the next record would push the
/// encoded frame over the daemon's kMaxFrameBytes cap, whichever comes
/// first — dense scans split by size, not just by count. A single record
/// beyond the cap still ships alone: the daemon rejects it either way, and
/// hiding it here would silently drop the query.
std::size_t ChunkEnd(const std::vector<rf::SignalRecord>& records,
                     std::size_t begin, std::size_t max_records_per_frame) {
  const std::size_t max_records =
      std::clamp<std::size_t>(max_records_per_frame, 1, kMaxBatchRecords);
  const std::size_t byte_budget = kMaxFrameBytes - kFrameOverheadBudget;
  std::size_t end = begin;
  std::size_t bytes = 0;
  while (end < records.size() && end - begin < max_records) {
    const std::size_t next = SignalRecordWireBytes(records[end]);
    if (end > begin && bytes + next > byte_budget) break;
    bytes += next;
    ++end;
  }
  return end;
}

}  // namespace

std::optional<rf::FloorId> Client::Predict(const rf::SignalRecord& record,
                                           const std::string& model) {
  return PredictBatch({record}, model).front();
}

std::vector<std::optional<rf::FloorId>> Client::PredictBatch(
    const std::vector<rf::SignalRecord>& records, const std::string& model,
    std::size_t max_records_per_frame) {
  Require(!records.empty(), "Client: empty predict batch");
  std::vector<std::optional<rf::FloorId>> predictions;
  predictions.reserve(records.size());
  // One frame (one round trip) per ChunkEnd chunk.
  std::size_t begin = 0;
  while (begin < records.size()) {
    const std::size_t end = ChunkEnd(records, begin, max_records_per_frame);
    PredictRequest request;
    request.model = model;
    request.records.assign(records.begin() + static_cast<long>(begin),
                           records.begin() + static_cast<long>(end));
    const Message reply = RoundTrip(request);
    const auto* response = std::get_if<PredictResponse>(&reply);
    Require(response != nullptr, "Client: unexpected reply to predict");
    // A lone error result for a multi-record chunk is the daemon's
    // best-effort frame-level failure report — surface its message instead
    // of a confusing count mismatch.
    if (response->results.size() == 1 &&
        response->results.front().status == PredictStatus::kError) {
      throw Error("Client: daemon error: " +
                  response->results.front().error);
    }
    Require(response->results.size() == end - begin,
            "Client: daemon answered a different number of records");
    for (const PredictResult& result : response->results) {
      switch (result.status) {
        case PredictStatus::kOk:
          predictions.emplace_back(result.floor);
          break;
        case PredictStatus::kDiscarded:
          predictions.emplace_back(std::nullopt);
          break;
        case PredictStatus::kError:
          throw Error("Client: daemon error: " + result.error);
      }
    }
    begin = end;
  }
  return predictions;
}

Pong Client::Ping(const std::string& model) {
  const Message reply = RoundTrip(serve::Ping{model});
  const auto* pong = std::get_if<Pong>(&reply);
  Require(pong != nullptr, "Client: unexpected reply to ping");
  return *pong;
}

std::uint64_t Client::Reload(const std::string& model,
                             std::uint64_t generation) {
  ReloadRequest request;
  request.model = model;
  request.generation = generation;
  const Message reply = RoundTrip(request);
  const auto* response = std::get_if<ReloadResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to reload");
  Require(response->ok, "Client: reload failed: " + response->message);
  return response->model_generation;
}

ListModelsResponse Client::ListModels() {
  const Message reply = RoundTrip(ListModelsRequest{});
  const auto* response = std::get_if<ListModelsResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to list-models");
  return *response;
}

StatsResponse Client::Stats(const std::string& model) {
  const Message reply = RoundTrip(StatsRequest{model});
  const auto* response = std::get_if<StatsResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to stats");
  return *response;
}

std::vector<SubmitResult> Client::Submit(
    const std::vector<rf::SignalRecord>& records, const std::string& model,
    std::size_t max_records_per_frame) {
  Require(!records.empty(), "Client: empty submit batch");
  std::vector<SubmitResult> results;
  results.reserve(records.size());
  // Same chunking rule as PredictBatch: one frame per ChunkEnd chunk.
  std::size_t begin = 0;
  while (begin < records.size()) {
    const std::size_t end = ChunkEnd(records, begin, max_records_per_frame);
    SubmitRecordsRequest request;
    request.model = model;
    request.records.assign(records.begin() + static_cast<long>(begin),
                           records.begin() + static_cast<long>(end));
    const Message reply = RoundTrip(request);
    const auto* response = std::get_if<SubmitRecordsResponse>(&reply);
    Require(response != nullptr, "Client: unexpected reply to submit");
    // A lone rejection for a multi-record chunk is the daemon's frame-level
    // failure report; surface its message instead of a count mismatch.
    if (response->results.size() == 1 && end - begin > 1 &&
        response->results.front().status == SubmitStatus::kRejected) {
      throw Error("Client: daemon error: " +
                  response->results.front().error);
    }
    Require(response->results.size() == end - begin,
            "Client: daemon answered a different number of records");
    results.insert(results.end(), response->results.begin(),
                   response->results.end());
    begin = end;
  }
  return results;
}

IngestStatsResponse Client::IngestStats(const std::string& model) {
  const Message reply = RoundTrip(IngestStatsRequest{model});
  const auto* response = std::get_if<IngestStatsResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to ingest-stats");
  return *response;
}

CheckpointResponse Client::Checkpoint(const std::string& model) {
  const Message reply = RoundTrip(CheckpointRequest{model});
  const auto* response = std::get_if<CheckpointResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to checkpoint");
  return *response;
}

CompactResponse Client::Compact(const std::string& model) {
  const Message reply = RoundTrip(CompactRequest{model});
  const auto* response = std::get_if<CompactResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to compact");
  return *response;
}

ListArtifactsResponse Client::ListArtifacts(const std::string& model) {
  const Message reply = RoundTrip(ListArtifactsRequest{model});
  const auto* response = std::get_if<ListArtifactsResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to list-artifacts");
  return *response;
}

std::string Client::Metrics() {
  const Message reply = RoundTrip(MetricsRequest{});
  const auto* response = std::get_if<MetricsResponse>(&reply);
  Require(response != nullptr, "Client: unexpected reply to metrics");
  return response->text;
}

}  // namespace grafics::serve
