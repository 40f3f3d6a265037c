#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "util.h"

namespace perfbench {

double Daemon::StartAndWaitReady(double timeout_s) {
  Stop();
  const std::string port_file =
      paths_.run_dir + "/port." + std::to_string(spawns_);
  const std::string log_file = paths_.run_dir + "/daemon.log";
  ++spawns_;
  std::vector<std::string> args = {
      paths_.binary,
      "--model", paths_.model_name + "=" + paths_.model_path,
      "--port", "0",
      "--port-file", port_file,
      "--journal-dir", paths_.journal_dir,
      "--store-dir", paths_.store_dir,
  };
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const double spawned = Now();
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child == 0) {
    // Never outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_file.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = child;

  // The port file appears once the listener is bound; the first answered
  // Ping on the model is "ready".
  while (Now() - spawned < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("grafics_served exited during start-up; see " +
                               log_file);
    }
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0) {
      try {
        grafics::serve::Client client("127.0.0.1",
                                      static_cast<std::uint16_t>(port));
        const grafics::serve::Pong pong = client.Ping(paths_.model_name);
        if (pong.ok) {
          port_ = static_cast<std::uint16_t>(port);
          return Now() - spawned;
        }
      } catch (const std::exception&) {
        // Listener not accepting yet; retry.
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("grafics_served not ready within timeout");
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const double deadline = Now() + 60.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (Now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  port_ = 0;
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not readable for the daemon");
}

}  // namespace perfbench
