#include "obs/admin_server.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "common/error.h"

namespace grafics::obs {

namespace {

/// Bound on one request head; a scraper that needs more than this is not a
/// scraper.
constexpr std::size_t kMaxRequestHeadBytes = 8 * 1024;

constexpr char kMetricsContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

/// Cuts the input at the HTTP header terminator (CRLFCRLF, with bare LFLF
/// tolerated for hand-typed requests). The "frame" handed to the handler is
/// the raw request head; request bodies are unsupported, so any bytes after
/// the terminator belong to the next (pipelined) request — which the
/// close-on-reply semantics will never answer, matching HTTP/1.0.
serve::ExtractResult HttpExtract(const std::string& in) {
  serve::ExtractResult result;
  std::size_t end = in.find("\r\n\r\n");
  std::size_t terminator = 4;
  if (end == std::string::npos) {
    end = in.find("\n\n");
    terminator = 2;
  }
  if (end == std::string::npos) {
    if (in.size() > kMaxRequestHeadBytes) {
      result.status = serve::ExtractResult::Status::kError;
      result.error = "request head exceeds " +
                     std::to_string(kMaxRequestHeadBytes) + " bytes";
    }
    return result;
  }
  if (end > kMaxRequestHeadBytes) {
    result.status = serve::ExtractResult::Status::kError;
    result.error = "request head exceeds " +
                   std::to_string(kMaxRequestHeadBytes) + " bytes";
    return result;
  }
  result.status = serve::ExtractResult::Status::kFrame;
  result.consumed = end + terminator;
  result.payload = in.substr(0, end);
  return result;
}

std::string HttpResponse(int status, const std::string& reason,
                         const std::string& content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(status) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Splits "METHOD PATH HTTP/x.y" out of the request head's first line;
/// false when it is not even that.
bool ParseRequestLine(const std::string& head, std::string* method,
                      std::string* path) {
  const std::size_t line_end = head.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t first_space = line.find(' ');
  if (first_space == std::string::npos || first_space == 0) return false;
  const std::size_t second_space = line.find(' ', first_space + 1);
  if (second_space == std::string::npos ||
      second_space == first_space + 1) {
    return false;
  }
  *method = line.substr(0, first_space);
  *path = line.substr(first_space + 1, second_space - first_space - 1);
  // Query strings are legal on probes (?verbose=1); routing ignores them.
  const std::size_t query = path->find('?');
  if (query != std::string::npos) path->erase(query);
  return true;
}

}  // namespace

AdminServer::AdminServer(AdminServerConfig config, MetricsRenderer metrics,
                         ReadyProbe ready)
    : config_(std::move(config)),
      metrics_(std::move(metrics)),
      ready_(std::move(ready)) {
  Require(metrics_ != nullptr, "AdminServer: metrics renderer required");
}

AdminServer::~AdminServer() { Stop(); }

std::string AdminServer::Handle(const std::string& request_head) const {
  std::string method;
  std::string path;
  if (!ParseRequestLine(request_head, &method, &path)) {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "malformed request line\n");
  }
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  if (path == "/metrics") {
    try {
      return HttpResponse(200, "OK", kMetricsContentType, metrics_());
    } catch (const std::exception& e) {
      return HttpResponse(500, "Internal Server Error", "text/plain",
                          std::string("metrics render failed: ") + e.what() +
                              "\n");
    }
  }
  if (path == "/healthz") {
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/readyz") {
    bool ready = true;
    if (ready_ != nullptr) {
      try {
        ready = ready_();
      } catch (...) {
        ready = false;
      }
    }
    return ready ? HttpResponse(200, "OK", "text/plain", "ready\n")
                 : HttpResponse(503, "Service Unavailable", "text/plain",
                                "not ready\n");
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "unknown path " + path + "\n");
}

void AdminServer::Start() {
  Require(!started_.exchange(true), "AdminServer::Start: already started");

  serve::EventLoopConfig loop_config;
  loop_config.workers = 1;  // scrape traffic never needs more
  loop_config.idle_timeout = config_.idle_timeout;
  loop_config.extractor = HttpExtract;
  // A private obs registry: admin scrapes must not show up in the serving
  // daemon's grafics_transport_* counts.
  loop_ = std::make_unique<serve::EventLoop>(
      loop_config, std::make_shared<Registry>(),
      [this](std::string head, std::size_t /*inflight*/,
             serve::EventLoop::Completion done) {
        // Every response closes the connection: HTTP/1.0 semantics, and it
        // maps straight onto the transport's close_after error path.
        done.Send(Handle(head), /*close_after=*/true);
      },
      [](const std::string& what) {
        return HttpResponse(431, "Request Header Fields Too Large",
                            "text/plain", what + "\n");
      });

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* addresses = nullptr;
  const int rc =
      ::getaddrinfo(config_.host.c_str(), std::to_string(config_.port).c_str(),
                    &hints, &addresses);
  Require(rc == 0, "AdminServer: cannot resolve " + config_.host + ": " +
                       std::string(::gai_strerror(rc)));
  std::string reason = "no addresses";
  for (const addrinfo* ai = addresses; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 64) == 0) {
      listen_fd_ = fd;
      break;
    }
    reason = std::strerror(errno);
    ::close(fd);
  }
  ::freeaddrinfo(addresses);
  Require(listen_fd_ >= 0, "AdminServer: cannot listen on " + config_.host +
                               ":" + std::to_string(config_.port) + ": " +
                               reason);
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    if (bound.ss_family == AF_INET) {
      bound_port_ =
          ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      bound_port_ =
          ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  if (bound_port_ == 0) bound_port_ = config_.port;

  loop_->Start();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void AdminServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop (or a fatal accept error)
    }
    loop_->Adopt(fd);
  }
}

void AdminServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // Shutdown before close pops a blocked accept() on every platform.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (loop_ != nullptr) loop_->Stop();
}

}  // namespace grafics::obs
