#include "serve/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "common/annotated_sync.h"
#include "common/error.h"

namespace grafics::serve {

namespace {

/// One recv() chunk; also bounds how much unparsed input a connection can
/// stage beyond a single maximal frame.
constexpr std::size_t kReadChunk = 64 * 1024;

/// epoll_event.data.u64 value reserved for the worker's wakeup eventfd.
constexpr std::uint64_t kWakeToken = 0;

/// The mailbox of the worker running on this thread (null elsewhere). A
/// Send from a worker's own thread comes from its frame handler, and the
/// worker drains its mailbox before it next waits, so it needs no wakeup.
thread_local const void* t_own_mailbox = nullptr;

std::uint32_t ReadLengthPrefix(const std::string& in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

/// The built-in GRAFICS framing: 4-byte little-endian length prefix, with
/// the oversized-length rejection happening before any payload allocation.
ExtractResult LengthPrefixExtract(const std::string& in,
                                  std::size_t max_frame_bytes) {
  ExtractResult result;
  if (in.size() < 4) return result;
  const std::uint32_t declared = ReadLengthPrefix(in);
  if (declared > max_frame_bytes) {
    result.status = ExtractResult::Status::kError;
    result.error = "Server: frame declares " + std::to_string(declared) +
                   " bytes, above the " + std::to_string(max_frame_bytes) +
                   " byte limit";
    return result;
  }
  if (in.size() < 4u + declared) return result;
  result.status = ExtractResult::Status::kFrame;
  result.consumed = 4u + declared;
  result.payload = in.substr(4, declared);
  return result;
}

}  // namespace

/// Cross-thread completion channel into one worker. Lives behind a
/// shared_ptr held by the worker and by every outstanding Completion, so a
/// completion firing after Stop() finds `closed` instead of freed memory.
struct EventLoop::Completion::Mailbox {
  Mutex mutex;
  bool closed GRAFICS_GUARDED_BY(mutex) = false;
  // Deliberately unguarded: set once in Start() before the worker thread
  // exists, read lock-free by the worker's drain loop, and closed in Stop()
  // only after the join — the thread lifecycle is the happens-before edge.
  // Senders do take the mutex around their write() so the fd stays valid
  // (Stop closes it under the same mutex after flipping `closed`).
  int event_fd = -1;
  std::deque<Parcel> parcels GRAFICS_GUARDED_BY(mutex);
  // Freshly accepted fds for this worker.
  std::vector<int> adopted GRAFICS_GUARDED_BY(mutex);
};

void EventLoop::Completion::Send(std::string frame, bool close_after) const {
  if (mailbox_ == nullptr) return;
  const MutexLock lock(&mailbox_->mutex);
  if (mailbox_->closed) return;
  mailbox_->parcels.push_back({conn_, slot_, std::move(frame), close_after});
  if (t_own_mailbox == mailbox_.get()) return;
  // Writing the eventfd under the mutex keeps the fd valid: Stop() closes
  // it only after taking the same mutex and setting `closed`.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(mailbox_->event_fd, &one, sizeof(one));
}

LoopInstruments::LoopInstruments(obs::Registry& obs)
    : connections_live(
          obs.GetGauge("grafics_transport_connections_live",
                       "Connections currently owned by the event loop.")),
      connections_harvested(obs.GetCounter(
          "grafics_transport_connections_harvested_total",
          "Idle connections closed by the harvest sweep.")),
      frames_in(obs.GetCounter("grafics_transport_frames_in_total",
                               "Complete request frames parsed.")),
      frames_out(obs.GetCounter("grafics_transport_frames_out_total",
                                "Reply frames fully written.")),
      bytes_in(obs.GetCounter("grafics_transport_bytes_in_total",
                              "Bytes read off client sockets.")),
      bytes_out(obs.GetCounter("grafics_transport_bytes_out_total",
                               "Bytes written to client sockets.")),
      write_buffer_bytes(obs.GetGauge(
          "grafics_transport_write_buffer_bytes",
          "Reply bytes buffered waiting for socket writability.")),
      harvest_sweeps(
          obs.GetCounter("grafics_transport_harvest_sweeps_total",
                         "Idle-harvest sweeps run across all workers.")),
      harvest_last_sweep_us(
          obs.GetGauge("grafics_transport_harvest_last_sweep_us",
                       "Duration of the most recent idle-harvest sweep.")),
      harvest_last_sweep_closed(obs.GetGauge(
          "grafics_transport_harvest_last_sweep_closed",
          "Connections closed by the most recent harvest sweep.")) {}

EventLoop::EventLoop(EventLoopConfig config,
                     std::shared_ptr<obs::Registry> obs, FrameHandler on_frame,
                     FramingErrorEncoder on_framing_error)
    : config_(config),
      obs_(std::move(obs)),
      metrics_(*obs_),
      on_frame_(std::move(on_frame)),
      on_framing_error_(std::move(on_framing_error)),
      extractor_(config_.extractor != nullptr
                     ? config_.extractor
                     : FrameExtractor([max = config_.max_frame_bytes](
                                          const std::string& in) {
                         return LengthPrefixExtract(in, max);
                       })) {
  Require(config_.workers >= 1, "EventLoop: workers >= 1");
  Require(on_frame_ != nullptr, "EventLoop: frame handler required");
}

EventLoop::~EventLoop() { Stop(); }

void EventLoop::Start() {
  Require(!started_.exchange(true), "EventLoop::Start: already started");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    Require(worker->epoll_fd >= 0, "EventLoop: epoll_create1 failed");
    worker->mailbox = std::make_shared<Completion::Mailbox>();
    worker->mailbox->event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    Require(worker->mailbox->event_fd >= 0, "EventLoop: eventfd failed");
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.u64 = kWakeToken;
    Require(::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD,
                        worker->mailbox->event_fd, &wake) == 0,
            "EventLoop: cannot register wakeup eventfd");
    worker->last_sweep = std::chrono::steady_clock::now();
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { RunWorker(*raw); });
  }
}

void EventLoop::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  for (auto& worker : workers_) {
    // Not Completion::Send — that path refuses once `closed` flips, and
    // here we must wake even a worker whose mailbox is already empty.
    const MutexLock lock(&worker->mailbox->mutex);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(worker->mailbox->event_fd, &one, sizeof(one));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    {
      // After the join nothing reads the mailbox again; close it under its
      // mutex so a straggler Completion (predict pool drain, ops pool) sees
      // `closed` before the eventfd number can be recycled.
      const MutexLock lock(&worker->mailbox->mutex);
      worker->mailbox->closed = true;
      ::close(worker->mailbox->event_fd);
      worker->mailbox->event_fd = -1;
      // Adoptions that slipped in after the worker drained its last batch
      // would otherwise leak their fds.
      for (const int fd : worker->mailbox->adopted) ::close(fd);
      worker->mailbox->adopted.clear();
    }
    ::close(worker->epoll_fd);
    worker->epoll_fd = -1;
  }
}

void EventLoop::Adopt(int fd) {
  const std::size_t index =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  const auto& mailbox = workers_[index]->mailbox;
  {
    const MutexLock lock(&mailbox->mutex);
    if (!mailbox->closed) {
      mailbox->adopted.push_back(fd);
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t n =
          ::write(mailbox->event_fd, &one, sizeof(one));
      return;
    }
  }
  ::close(fd);  // raced with Stop; the peer just sees a hang-up
}

void EventLoop::RunWorker(Worker& worker) {
  t_own_mailbox = worker.mailbox.get();
  std::vector<epoll_event> events(64);
  std::string scratch(kReadChunk, '\0');
  // Sweep at a fraction of the timeout (≤500ms) so a harvest is never late
  // by more than one sweep; without a timeout the eventfd is the only wake.
  const int wait_ms =
      config_.idle_timeout.count() > 0
          ? static_cast<int>(std::clamp<std::int64_t>(
                config_.idle_timeout.count() / 4, 10, 500))
          : -1;
  for (;;) {
    const int ready = ::epoll_wait(worker.epoll_fd, events.data(),
                                   static_cast<int>(events.size()), wait_ms);
    if (ready < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(ready, 0); ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.u64 == kWakeToken) {
        std::uint64_t drained = 0;
        while (::read(worker.mailbox->event_fd, &drained, sizeof(drained)) >
               0) {
        }
        continue;
      }
      // The map lookup also drops events for connections closed earlier in
      // this same batch.
      const auto it = worker.conns.find(event.data.u64);
      if (it == worker.conns.end()) continue;
      Conn& conn = it->second;
      if ((event.events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        if (!ReadConn(worker, conn, scratch)) continue;
      }
      if ((event.events & EPOLLOUT) != 0) {
        if (!FlushConn(worker, conn)) continue;
      }
      UpdateInterest(worker, conn);
    }
    DrainMailbox(worker);
    if (stopping_.load(std::memory_order_acquire)) break;
    HarvestIdle(worker);
  }
  for (auto& [id, conn] : worker.conns) {
    ::close(conn.fd);
    metrics_.connections_live->Sub(1);
    metrics_.write_buffer_bytes->Sub(
        static_cast<std::int64_t>(conn.out.size()));
  }
  worker.conns.clear();
}

void EventLoop::AddConn(Worker& worker, int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return;
  }
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = id;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
    ::close(fd);
    return;
  }
  Conn conn;
  conn.fd = fd;
  conn.id = id;
  conn.armed = EPOLLIN;
  conn.last_activity = std::chrono::steady_clock::now();
  worker.conns.emplace(id, std::move(conn));
  metrics_.connections_live->Add(1);
}

void EventLoop::CloseConn(Worker& worker, std::uint64_t id) {
  const auto it = worker.conns.find(id);
  if (it == worker.conns.end()) return;
  ::close(it->second.fd);  // also removes the fd from the epoll set
  metrics_.write_buffer_bytes->Sub(
      static_cast<std::int64_t>(it->second.out.size()));
  worker.conns.erase(it);
  metrics_.connections_live->Sub(1);
}

bool EventLoop::ReadConn(Worker& worker, Conn& conn, std::string& scratch) {
  while (!conn.stop_reading && !conn.peer_eof) {
    const ssize_t n =
        ::recv(conn.fd, scratch.data(), scratch.size(), MSG_DONTWAIT);
    if (n > 0) {
      metrics_.bytes_in->Add(static_cast<std::uint64_t>(n));
      conn.in.append(scratch.data(), static_cast<std::size_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      ParseFrames(worker, conn);
      continue;
    }
    if (n == 0) {
      // Graceful EOF: answer what was pipelined, then FlushConn closes.
      conn.peer_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // ECONNRESET and friends: the peer is gone; in-flight completions for
    // this connection are dropped on delivery.
    CloseConn(worker, conn.id);
    return false;
  }
  return FlushConn(worker, conn);
}

void EventLoop::ParseFrames(Worker& worker, Conn& conn) {
  while (!conn.stop_reading && !conn.in.empty()) {
    ExtractResult extracted = extractor_(conn.in);
    if (extracted.status == ExtractResult::Status::kNeedMore) return;
    if (extracted.status == ExtractResult::Status::kError) {
      // Framing violation (hostile length, oversized HTTP header): reject
      // before allocating. The error reply takes a slot like any other
      // response so it still flushes after every earlier pipelined reply;
      // later input is discarded.
      Slot slot;
      slot.ready = true;
      slot.close_after = true;
      if (on_framing_error_ != nullptr) {
        slot.bytes = on_framing_error_(extracted.error);
      }
      conn.slots.push_back(std::move(slot));
      conn.stop_reading = true;
      conn.in.clear();
      return;
    }
    if (extracted.consumed == 0) return;  // defective extractor; don't spin
    conn.in.erase(0, extracted.consumed);
    metrics_.frames_in->Add();
    const std::uint64_t slot_index = conn.base_slot + conn.slots.size();
    conn.slots.emplace_back();
    ++conn.open_slots;
    on_frame_(std::move(extracted.payload), conn.open_slots,
              Completion(worker.mailbox, conn.id, slot_index));
  }
}

bool EventLoop::FlushConn(Worker& worker, Conn& conn) {
  // Promote the ready prefix of the slot queue: this is what keeps replies
  // in request order however completions interleave.
  while (!conn.slots.empty() && conn.slots.front().ready) {
    Slot& slot = conn.slots.front();
    if (!slot.bytes.empty()) {
      conn.out.append(slot.bytes);
      metrics_.frames_out->Add();
      metrics_.write_buffer_bytes->Add(
          static_cast<std::int64_t>(slot.bytes.size()));
    }
    const bool close_after = slot.close_after;
    conn.slots.pop_front();
    ++conn.base_slot;
    if (close_after) {
      // Error reply semantics: hang up after this frame. Later pipelined
      // slots are dropped; their completions miss the bounds check on
      // delivery and vanish.
      conn.closing = true;
      conn.open_slots = 0;
      conn.slots.clear();
      break;
    }
  }
  std::size_t written = 0;
  while (written < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + written,
                             conn.out.size() - written,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      metrics_.bytes_out->Add(static_cast<std::uint64_t>(n));
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET on a partial write: clean teardown, not a crash —
    // a vanished client is routine at this scale.
    CloseConn(worker, conn.id);
    return false;
  }
  conn.out.erase(0, written);
  metrics_.write_buffer_bytes->Sub(static_cast<std::int64_t>(written));
  if (conn.out.empty() &&
      (conn.closing || (conn.peer_eof && conn.slots.empty()))) {
    CloseConn(worker, conn.id);
    return false;
  }
  return true;
}

void EventLoop::UpdateInterest(Worker& worker, Conn& conn) {
  std::uint32_t want = 0;
  // EOF and framing-error states must drop EPOLLIN: with level triggering
  // a readable-at-EOF socket would otherwise spin the worker.
  if (!conn.stop_reading && !conn.peer_eof) want |= EPOLLIN;
  if (!conn.out.empty()) want |= EPOLLOUT;
  if (want == conn.armed) return;
  epoll_event event{};
  event.events = want;
  event.data.u64 = conn.id;
  if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event) == 0) {
    conn.armed = want;
  }
}

void EventLoop::DrainMailbox(Worker& worker) {
  std::vector<int> adopted;
  std::deque<Parcel> parcels;
  {
    const MutexLock lock(&worker.mailbox->mutex);
    adopted.swap(worker.mailbox->adopted);
    parcels.swap(worker.mailbox->parcels);
  }
  for (const int fd : adopted) {
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      continue;
    }
    AddConn(worker, fd);
  }
  for (Parcel& parcel : parcels) {
    const auto it = worker.conns.find(parcel.conn);
    if (it == worker.conns.end()) continue;  // connection already gone
    Conn& conn = it->second;
    // Bounds check against the live slot window: stale parcels (slots
    // dropped by a close_after, duplicate Sends) fall outside it.
    if (parcel.slot < conn.base_slot ||
        parcel.slot - conn.base_slot >= conn.slots.size()) {
      continue;
    }
    Slot& slot = conn.slots[static_cast<std::size_t>(parcel.slot -
                                                     conn.base_slot)];
    if (slot.ready) continue;  // duplicate completion
    slot.ready = true;
    slot.bytes = std::move(parcel.bytes);
    slot.close_after = parcel.close_after;
    --conn.open_slots;
    if (FlushConn(worker, conn)) UpdateInterest(worker, conn);
  }
}

void EventLoop::HarvestIdle(Worker& worker) {
  if (config_.idle_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - worker.last_sweep < config_.idle_timeout / 4) return;
  worker.last_sweep = now;
  std::uint64_t closed = 0;
  for (auto it = worker.conns.begin(); it != worker.conns.end();) {
    Conn& conn = it->second;
    // Never harvest a connection with unanswered requests — a slow model
    // is not an idle peer. Quiet partial frames (slow loris) and stuck
    // writers both have open_slots == 0 and no socket activity.
    if (conn.open_slots == 0 &&
        now - conn.last_activity > config_.idle_timeout) {
      ::close(conn.fd);
      metrics_.write_buffer_bytes->Sub(
          static_cast<std::int64_t>(conn.out.size()));
      it = worker.conns.erase(it);
      metrics_.connections_live->Sub(1);
      metrics_.connections_harvested->Add();
      ++closed;
    } else {
      ++it;
    }
  }
  // Last-sweep visibility (the lifetime harvested count hides storms):
  // sweep duration plus how many connections this particular sweep closed.
  // Workers overwrite each other's "last" values; any recent sweep is an
  // equally good storm signal.
  const auto swept_us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - now);
  metrics_.harvest_sweeps->Add();
  metrics_.harvest_last_sweep_us->Set(swept_us.count());
  metrics_.harvest_last_sweep_closed->Set(static_cast<std::int64_t>(closed));
}

}  // namespace grafics::serve
