// Nonblocking epoll transport for the serving daemon.
//
// A fixed pool of worker threads, each with its own epoll instance; every
// accepted connection is handed to exactly one worker and never migrates,
// so all per-connection state (read reassembly buffer, reply slots, write
// buffer) is touched by a single thread and needs no locks. Level-triggered
// readiness drives incremental frame reassembly on the way in and buffered
// flushing on the way out — no thread ever blocks on a socket or a future,
// which is what lets a handful of workers hold 10k+ connections where the
// old thread-per-connection transport capped out at thread-stack memory.
//
// Pipelining: a client may send many frames without waiting. Each complete
// frame opens a reply *slot* in arrival order and is handed to the frame
// handler together with a Completion; the handler (or anything it forwards
// the Completion to — a predict-pool callback, an ops-pool task) later
// fills the slot with encoded reply bytes from any thread. The worker
// flushes only the ready prefix of the slot queue, so responses always leave
// in request order no matter how out-of-order the completions arrive.
//
// Cross-thread completion delivery goes through a per-worker mailbox
// (mutex + deque + eventfd). A completion sent from the worker's own thread
// (by its frame handler) skips the eventfd: the worker drains the mailbox
// before its next epoll_wait anyway. The mailbox outlives the worker via
// shared_ptr and is marked closed after the worker exits, so a completion
// that fires during shutdown (e.g. from a predict drain) is a silent no-op
// instead of a use-after-free.
//
// Idle harvesting: connections with no unanswered requests that have been
// quiet past the configured timeout are closed by a periodic sweep — this
// reclaims fds from abandoned peers and slow-loris partial frames alike.
//
// The event loop is transport-only: it never looks inside a payload. The
// owner (serve::Server) supplies the frame handler and an encoder for the
// best-effort error frame sent when a peer declares an oversized length.
//
// Transport telemetry lives in the grafics_transport_* instruments of the
// obs registry the loop is given, updated as each event happens; the owner
// reads them back through instruments().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"

namespace grafics::serve {

/// One step of cutting a connection's unparsed input into frames.
struct ExtractResult {
  enum class Status {
    kNeedMore,  ///< no complete frame yet; wait for more bytes
    kFrame,     ///< `payload` is one frame; drop `consumed` input bytes
    kError,     ///< framing violation; reply with `error` and hang up
  };
  Status status = Status::kNeedMore;
  std::size_t consumed = 0;
  std::string payload;
  std::string error;
};

/// How raw socket bytes become handler-visible frames. Called on the
/// worker thread with the connection's unparsed input; invoked repeatedly
/// until it reports kNeedMore (or kError). The default is the GRAFICS
/// 4-byte length-prefix framing; the obs admin listener substitutes an
/// HTTP/1.0 request extractor to reuse this loop unchanged.
using FrameExtractor = std::function<ExtractResult(const std::string& in)>;

struct EventLoopConfig {
  /// Epoll worker threads; each owns a share of the connections.
  std::size_t workers = 2;
  /// Harvest connections with no unanswered requests after this long
  /// without socket activity; zero disables harvesting.
  std::chrono::milliseconds idle_timeout{0};
  /// Frames declaring a payload longer than this get the framing-error
  /// reply and a hang-up before any allocation happens (length-prefix
  /// framing only; a custom extractor enforces its own bounds).
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Framing override; nullptr selects the length-prefix default.
  FrameExtractor extractor;
};

/// The loop's transport instruments, summed across all workers (see
/// TransportStats for the wire-level meaning of the shared quantities).
struct LoopInstruments {
  explicit LoopInstruments(obs::Registry& obs);

  obs::Gauge* connections_live;
  obs::Counter* connections_harvested;
  obs::Counter* frames_in;
  obs::Counter* frames_out;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  /// Reply bytes buffered across all connections, waiting for sockets to
  /// accept them — the backpressure signal for slow readers.
  obs::Gauge* write_buffer_bytes;
  /// Idle-harvest sweep visibility (not on the wire): total sweeps run, how
  /// long the most recent sweep took, and how many connections it closed —
  /// a harvest storm shows up as a closed-count spike with a rising sweep
  /// duration.
  obs::Counter* harvest_sweeps;
  obs::Gauge* harvest_last_sweep_us;
  obs::Gauge* harvest_last_sweep_closed;
};

class EventLoop {
 public:
  /// Fills one reply slot, from any thread, at most once. Copyable so it
  /// can ride through std::function into predict callbacks; extra copies
  /// just address the same slot, and duplicate Sends are dropped. Safe to
  /// call after the connection died or the loop stopped (silent no-op).
  class Completion {
   public:
    Completion() = default;

    /// `frame` is a fully encoded wire frame (length prefix included) or
    /// empty for "no reply". close_after flushes this slot, drops any
    /// later pipelined slots, and hangs up — the error-path behavior.
    void Send(std::string frame, bool close_after = false) const;

   private:
    friend class EventLoop;
    struct Mailbox;
    Completion(std::shared_ptr<Mailbox> mailbox, std::uint64_t conn,
               std::uint64_t slot)
        : mailbox_(std::move(mailbox)), conn_(conn), slot_(slot) {}

    std::shared_ptr<Mailbox> mailbox_;
    std::uint64_t conn_ = 0;
    std::uint64_t slot_ = 0;
  };

  /// Called on a worker thread for every complete frame payload (without
  /// the length prefix). `inflight` counts this connection's unanswered
  /// requests including this one — the admission-control input. The
  /// handler must arrange for `done.Send` to be called exactly once; it
  /// must not block (hand blocking work to a pool and complete from
  /// there). Short bounded CPU work may run in place — it delays this
  /// worker's other connections by its length — and a Send made before the
  /// handler returns is flushed in the same loop iteration.
  using FrameHandler = std::function<void(
      std::string payload, std::size_t inflight, Completion done)>;
  /// Encodes the best-effort error frame for a framing violation that is
  /// detected before a payload exists (oversized declared length). May
  /// return an empty string to hang up without a reply.
  using FramingErrorEncoder =
      std::function<std::string(const std::string& what)>;

  /// Resolves the loop's instruments from `obs`, which the loop keeps
  /// alive.
  EventLoop(EventLoopConfig config, std::shared_ptr<obs::Registry> obs,
            FrameHandler on_frame, FramingErrorEncoder on_framing_error);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the workers. Throws grafics::Error when epoll/eventfd setup
  /// fails.
  void Start();
  /// Closes every connection and joins the workers; in-flight Completions
  /// become no-ops. Idempotent; also run by the destructor.
  void Stop();

  /// Takes ownership of a connected socket and assigns it to a worker
  /// (round-robin). The fd is made nonblocking here. Closes the fd
  /// immediately when the loop is stopped.
  void Adopt(int fd);

  const LoopInstruments& instruments() const { return metrics_; }

 private:
  /// One pipelined reply in arrival order. Opened unfilled when the frame
  /// is parsed; filled by a mailbox parcel; flushed only as part of the
  /// ready prefix of the queue.
  struct Slot {
    bool ready = false;
    bool close_after = false;
    std::string bytes;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string in;   // unparsed bytes, at most one partial frame + chunk
    std::string out;  // encoded replies the socket has not accepted yet
    std::deque<Slot> slots;
    std::uint64_t base_slot = 0;  // absolute index of slots.front()
    std::size_t open_slots = 0;   // unfilled slots (admission input)
    std::uint32_t armed = 0;      // epoll interest currently registered
    std::chrono::steady_clock::time_point last_activity;
    bool peer_eof = false;      // recv saw EOF; serve what's queued, then go
    bool stop_reading = false;  // framing violation; flush the error, close
    bool closing = false;       // a close_after slot was flushed
  };

  struct Parcel {
    std::uint64_t conn = 0;
    std::uint64_t slot = 0;
    std::string bytes;
    bool close_after = false;
  };

  struct Worker {
    int epoll_fd = -1;
    std::shared_ptr<Completion::Mailbox> mailbox;
    std::thread thread;
    std::unordered_map<std::uint64_t, Conn> conns;  // worker thread only
    std::chrono::steady_clock::time_point last_sweep;
  };

  void RunWorker(Worker& worker);
  void AddConn(Worker& worker, int fd);
  void CloseConn(Worker& worker, std::uint64_t id);
  /// Reads until EAGAIN, parses complete frames, flushes. Returns false
  /// when the connection was closed.
  bool ReadConn(Worker& worker, Conn& conn, std::string& scratch);
  void ParseFrames(Worker& worker, Conn& conn);
  /// Promotes ready head slots into the write buffer and writes as much as
  /// the socket takes; closes when done after EOF/close_after. Returns
  /// false when the connection was closed.
  bool FlushConn(Worker& worker, Conn& conn);
  void UpdateInterest(Worker& worker, Conn& conn);
  void DrainMailbox(Worker& worker);
  void HarvestIdle(Worker& worker);

  const EventLoopConfig config_;
  const std::shared_ptr<obs::Registry> obs_;  // keeps metrics_ valid
  const LoopInstruments metrics_;
  const FrameHandler on_frame_;
  const FramingErrorEncoder on_framing_error_;
  const FrameExtractor extractor_;  // config override or built-in default

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> next_worker_{0};
  std::atomic<std::uint64_t> next_conn_id_{1};  // 0 is the eventfd token
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace grafics::serve
