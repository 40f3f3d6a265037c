#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <stdexcept>
#include <utility>
#include <variant>

#include "serve/protocol.h"
#include "util.h"

namespace perfbench {

namespace {

namespace wire = grafics::serve;

/// Resolution of chunk visibility: one IngestStats poll per interval.
constexpr double kPollIntervalS = 0.001;

enum class Expect : std::uint8_t { kRequest, kPoll, kCompact };

struct Waiting {
  Expect expect;
  std::size_t index;  // result index for kRequest
  double sent;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<Waiting> fifo;
};

int Connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to grafics_served failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("grafics_served closed a connection");
    }
  }
  conn.out.clear();
  conn.out_off = 0;
}

void Write(Conn& conn, const std::string& frame) {
  conn.out += frame;
  Flush(conn);
}

/// Reads whatever is available; returns complete frame payloads.
std::vector<std::string> ReadFrames(Conn& conn) {
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      conn.in.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    throw std::runtime_error("grafics_served closed a connection");
  }
  std::vector<std::string> frames;
  while (conn.in.size() - conn.in_off >= 4) {
    const auto* p =
        reinterpret_cast<const unsigned char*>(conn.in.data() + conn.in_off);
    const std::size_t length = static_cast<std::size_t>(p[0]) |
                               (static_cast<std::size_t>(p[1]) << 8) |
                               (static_cast<std::size_t>(p[2]) << 16) |
                               (static_cast<std::size_t>(p[3]) << 24);
    if (conn.in.size() - conn.in_off < 4 + length) break;
    frames.push_back(conn.in.substr(conn.in_off + 4, length));
    conn.in_off += 4 + length;
  }
  if (conn.in_off > (1 << 20) || conn.in_off == conn.in.size()) {
    conn.in.erase(0, conn.in_off);
    conn.in_off = 0;
  }
  return frames;
}

}  // namespace

Loadgen::Loadgen(std::uint16_t port, std::string model,
                 const std::vector<rf::SignalRecord>* scans,
                 const std::vector<std::vector<rf::SignalRecord>>* chunks,
                 std::size_t chunk_records)
    : port_(port),
      model_(std::move(model)),
      scans_(scans),
      chunks_(chunks),
      chunk_records_(chunk_records) {}

PhaseResult Loadgen::Run(const Plan& plan) {
  const bool closed = plan.window > 0;
  std::vector<Conn> conns(plan.predict_conns + (plan.ingest ? 3 : 0));
  for (Conn& conn : conns) conn.fd = Connect(port_);
  const std::size_t submit_conn = plan.predict_conns;
  const std::size_t poll_conn = plan.predict_conns + 1;
  const std::size_t compact_conn = plan.predict_conns + 2;

  PhaseResult phase;
  phase.start = Now() + 0.002;
  const double last_due =
      closed ? plan.closed_seconds
             : (plan.schedule.empty() ? 0.0 : plan.schedule.back().due);
  const double deadline = phase.start + last_due + plan.drain_s;
  phase.results.reserve(closed ? 1024 : plan.schedule.size());

  std::size_t next = 0;  // next schedule entry
  std::uint32_t closed_item = plan.closed_first_item;
  std::size_t outstanding = 0;  // requests + compacts awaiting replies
  std::size_t slo_misses = 0;
  std::size_t acked_chunks = 0;
  std::size_t compacts_owed = 0;
  // Per result: root span and request id of traced requests.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> spans;
  std::vector<std::size_t> unseen_chunks;  // submitted, not yet visible
  double next_poll = 0;

  const auto trace = [&](double due) {
    return plan.tracer != nullptr && plan.traced && plan.traced(due);
  };

  const auto send_request = [&](const Send& send, double due_abs) {
    Result result;
    result.op = send.op;
    result.item = send.item;
    result.due = due_abs;
    const std::size_t index = phase.results.size();
    result.traced = send.op == Op::kPredict && trace(send.due);
    const std::uint64_t request_id = next_request_id_++;
    std::uint32_t root = Tracer::kNoParent;
    if (result.traced) {
      root = plan.tracer->Open("loadgen.request", due_abs, Tracer::kNoParent,
                               request_id);
    }
    const double encode_start = Now();
    std::string frame;
    Conn* conn = nullptr;
    if (send.op == Op::kPredict) {
      wire::PredictRequest request;
      request.model = model_;
      request.records.push_back((*scans_)[send.item]);
      frame = wire::EncodeFrame(request);
      conn = &conns[send.conn];
      result.version_lo = chunks_visible_;
    } else {
      wire::SubmitRecordsRequest request;
      request.model = model_;
      request.records = (*chunks_)[send.item];
      frame = wire::EncodeFrame(request);
      conn = &conns[submit_conn];
    }
    const double encode_end = Now();
    if (result.traced) {
      plan.tracer->Add("protocol.encode", encode_start, encode_end, root,
                       request_id);
    }
    Write(*conn, frame);
    result.sent = Now();
    if (send.op == Op::kSubmit) {
      ++chunks_sent_;
      unseen_chunks.push_back(index);
    }
    conn->fifo.push_back(Waiting{Expect::kRequest, index, result.sent});
    phase.results.push_back(result);
    spans.emplace_back(root, request_id);
    ++outstanding;
    if (send.op == Op::kPredict && conn->fifo.size() > plan.max_outstanding) {
      phase.aborted = true;
    }
  };

  const auto send_compact = [&] {
    wire::CompactRequest request;
    request.model = model_;
    Conn& conn = conns[compact_conn];
    Write(conn, wire::EncodeFrame(request));
    conn.fifo.push_back(Waiting{Expect::kCompact, 0, Now()});
    ++outstanding;
  };

  const auto on_reply = [&](Conn& conn, const std::string& payload,
                            double received) {
    if (conn.fifo.empty()) throw std::runtime_error("unexpected reply frame");
    const Waiting waiting = conn.fifo.front();
    conn.fifo.pop_front();
    if (waiting.expect == Expect::kPoll) {
      const auto stats =
          std::get<wire::IngestStatsResponse>(wire::DecodePayload(payload));
      for (const wire::IngestModelStats& model : stats.models) {
        if (model.name != model_) continue;
        phase.backlog_max = std::max(phase.backlog_max, model.pending);
        chunks_visible_ = std::max<std::uint32_t>(
            chunks_visible_,
            static_cast<std::uint32_t>(model.folded / chunk_records_));
      }
      // Chunks are folded in submission order, one fold each.
      std::size_t seen = 0;
      while (seen < unseen_chunks.size() &&
             phase.results[unseen_chunks[seen]].item < chunks_visible_) {
        phase.results[unseen_chunks[seen]].visible = received;
        ++seen;
      }
      unseen_chunks.erase(unseen_chunks.begin(),
                          unseen_chunks.begin() + static_cast<long>(seen));
      return;
    }
    --outstanding;
    if (waiting.expect == Expect::kCompact) {
      const auto reply =
          std::get<wire::CompactResponse>(wire::DecodePayload(payload));
      if (!reply.ok) ++phase.compact_failures;
      return;
    }
    Result& result = phase.results[waiting.index];
    result.done = received;
    const auto [root, request_id] = spans[waiting.index];
    const double decode_start = Now();
    const wire::Message message = wire::DecodePayload(payload);
    const double decode_end = Now();
    if (result.op == Op::kPredict) {
      result.version_hi = chunks_sent_;
      const auto& reply = std::get<wire::PredictResponse>(message);
      const wire::PredictResult& answer = reply.results.at(0);
      switch (answer.status) {
        case wire::PredictStatus::kOk:
          result.status = Status::kOk;
          result.floor = answer.floor;
          break;
        case wire::PredictStatus::kDiscarded:
          result.status = Status::kDiscarded;
          break;
        case wire::PredictStatus::kError:
          result.status = answer.error.rfind("busy", 0) == 0 ? Status::kBusy
                                                              : Status::kError;
          break;
      }
      if (result.traced) {
        plan.tracer->Add("serve.rtt", result.sent, received, root, request_id);
        plan.tracer->Add("protocol.decode", decode_start, decode_end, root,
                         request_id);
        plan.tracer->Close(root, decode_end);
      }
      if (plan.slo_abort_s > 0 && result.latency() > plan.slo_abort_s &&
          ++slo_misses > plan.schedule.size() / 100) {
        phase.aborted = true;
      }
    } else {
      const auto& reply = std::get<wire::SubmitRecordsResponse>(message);
      bool accepted = reply.results.size() == (*chunks_)[result.item].size();
      for (const wire::SubmitResult& r : reply.results) {
        accepted = accepted && r.status == wire::SubmitStatus::kAccepted;
      }
      result.status = accepted ? Status::kOk : Status::kError;
      if (accepted && plan.compact_every > 0 &&
          ++acked_chunks % plan.compact_every == 0) {
        ++compacts_owed;
      }
    }
  };

  std::vector<pollfd> fds(conns.size());
  for (;;) {
    const double now = Now();
    if (!phase.aborted) {
      if (closed) {
        if (now < phase.start + plan.closed_seconds) {
          for (std::size_t c = 0; c < plan.predict_conns; ++c) {
            while (conns[c].fifo.size() < plan.window &&
                   closed_item < plan.closed_end_item) {
              send_request(Send{now - phase.start, Op::kPredict,
                                static_cast<std::uint32_t>(c), closed_item++},
                           now);
            }
          }
        }
      } else {
        while (next < plan.schedule.size() &&
               phase.start + plan.schedule[next].due <= now &&
               !phase.aborted) {
          send_request(plan.schedule[next],
                       phase.start + plan.schedule[next].due);
          ++next;
        }
      }
    }
    if (compacts_owed > 0) {
      --compacts_owed;
      send_compact();
    }
    if (plan.ingest && !unseen_chunks.empty() && now >= next_poll) {
      wire::IngestStatsRequest request;
      request.model = model_;
      Conn& conn = conns[poll_conn];
      Write(conn, wire::EncodeFrame(request));
      conn.fifo.push_back(Waiting{Expect::kPoll, 0, now});
      next_poll = now + kPollIntervalS;
    }
    const bool schedule_done =
        phase.aborted ||
        (closed ? now >= phase.start + plan.closed_seconds
                : next == plan.schedule.size());
    if (schedule_done && outstanding == 0 && compacts_owed == 0 &&
        unseen_chunks.empty()) {
      break;
    }
    if (now > deadline) {
      for (Result& result : phase.results) {
        if (result.done < 0) result.status = Status::kTimeout;
      }
      break;
    }

    double wait = 0.05;
    if (!phase.aborted && !closed && next < plan.schedule.size()) {
      wait = std::min(wait, phase.start + plan.schedule[next].due - now);
    }
    if (plan.ingest && !unseen_chunks.empty()) {
      wait = std::min(wait, next_poll - now);
    }
    wait = std::max(wait, 0.0);
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN | (conns[i].out.empty() ? 0 : POLLOUT);
      fds[i].revents = 0;
    }
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - static_cast<double>(
                                                    timeout.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (fds[i].revents & POLLOUT) Flush(conns[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        for (const std::string& payload : ReadFrames(conns[i])) {
          on_reply(conns[i], payload, Now());
        }
      }
    }
  }
  for (Conn& conn : conns) ::close(conn.fd);
  return phase;
}

}  // namespace perfbench
