// The shipped grafics_served binary as a child process.
//
// Only deployment flags are passed: the model path, an ephemeral port with
// a port file, and the journal and store directories. Every tuning flag
// stays at the daemon's default, so a change to a default (or a retired
// flag) changes the measured program, not the benchmark.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>

namespace perfbench {

struct DaemonPaths {
  std::string binary;
  std::string model_name;
  std::string model_path;
  std::string journal_dir;
  std::string store_dir;
  /// Working directory for the port file and the daemon's log.
  std::string run_dir;
};

class Daemon {
 public:
  explicit Daemon(DaemonPaths paths) : paths_(std::move(paths)) {}
  ~Daemon() { Stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and blocks until a Ping on the model is answered.
  /// Returns seconds from spawn to that answer (the daemon's set-up or
  /// restore time). Throws when the daemon exits or is not ready within
  /// `timeout_s`.
  double StartAndWaitReady(double timeout_s = 60.0);

  /// SIGTERM, then waits for exit (SIGKILL after a grace period). The
  /// daemon drains its ingest pipeline before exiting. Idempotent.
  void Stop();

  std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the running daemon, megabytes.
  double PeakRssMb() const;

 private:
  DaemonPaths paths_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  int spawns_ = 0;
};

}  // namespace perfbench
