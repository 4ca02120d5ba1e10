#include "sunchase/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"
#include "sunchase/obs/metrics.h"
#include "sunchase/obs/profiler.h"

namespace sunchase::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Per-recv slice so a blocked read re-checks the stop flag and the
/// request deadline a few times a second.
constexpr int kRecvSliceMillis = 200;

void set_recv_timeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

}  // namespace

HttpServer::HttpServer(RouteService& service, HttpServerOptions options)
    : service_(service),
      options_(std::move(options)),
      rejected_(obs::Registry::global().counter("serve.rejected")),
      request_timeouts_(
          obs::Registry::global().counter("serve.request_timeouts")),
      deadline_expired_(
          obs::Registry::global().counter("serve.deadline_expired")),
      connections_(obs::Registry::global().counter("serve.connections")),
      inflight_(obs::Registry::global().gauge("serve.inflight")),
      queue_depth_(obs::Registry::global().gauge("serve.queue_depth")) {
  if (options_.workers == 0)
    throw InvalidArgument("HttpServer: workers must be positive");
  if (options_.queue_capacity == 0)
    throw InvalidArgument("HttpServer: queue_capacity must be positive");
}

HttpServer::~HttpServer() {
  request_stop();
  join();
}

void HttpServer::start() {
  if (listen_fd_ >= 0) throw IoError("HttpServer: already started");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw IoError("HttpServer: bad listen address '" + options_.host + "'");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw IoError(std::string("HttpServer: socket: ") + std::strerror(errno));
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError("HttpServer: bind " + options_.host + ":" +
                  std::to_string(options_.port) + ": " + std::strerror(err));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    throw IoError(std::string("HttpServer: listen: ") + std::strerror(err));
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw IoError(std::string("HttpServer: getsockname: ") +
                  std::strerror(err));
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;

  if (!options_.access_log_path.empty()) {
    access_log_.open(options_.access_log_path, std::ios::app);
    if (!access_log_)
      throw IoError("HttpServer: cannot open access log '" +
                    options_.access_log_path + "'");
  }

  {
    const std::lock_guard<std::mutex> lock(join_mutex_);
    joined_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  service_.set_draining(false);
  worker_threads_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  SUNCHASE_LOG(Info) << "serve: listening on " << options_.host << ":"
                     << port_ << " (" << options_.workers << " workers)";
}

void HttpServer::join() {
  const std::lock_guard<std::mutex> lock(join_mutex_);
  if (joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : worker_threads_)
    if (worker.joinable()) worker.join();
  worker_threads_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_relaxed);
  joined_ = true;
  SUNCHASE_LOG(Info) << "serve: drained and stopped";
}

void HttpServer::accept_loop() {
  pollfd pfd{};
  pfd.fd = listen_fd_;
  pfd.events = POLLIN;

  while (!stop_requested_.load(std::memory_order_relaxed)) {
    // The 100 ms tick bounds how long a signal-delivered stop request
    // waits before the drain actually begins.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      SUNCHASE_LOG(Error) << "serve: poll: " << std::strerror(errno);
      break;
    }
    if (ready == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      SUNCHASE_LOG(Error) << "serve: accept: " << std::strerror(errno);
      break;
    }
    connections_.add();

    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_.size() < options_.queue_capacity) {
        pending_.push_back(conn);
        queue_depth_.set(static_cast<double>(pending_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      // Overload: answer 429 inline and close — the accept loop does
      // no parsing, so the rejection costs one write.
      rejected_.add();
      const std::string bytes =
          RouteService::error_response(429, "server overloaded, retry later")
              .to_bytes(/*close_connection=*/true);
      write_all(conn, bytes);
      ::close(conn);
    }
  }

  // Drain: stop admitting, flip the health signal, and wake every
  // worker so they can finish the queue and exit.
  service_.set_draining(true);
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
}

void HttpServer::worker_loop() {
  // Register this worker's span stack up front: an idle worker samples
  // as "idle" from its first profiler tick instead of being invisible
  // until its first request (and sampling a registered-but-spanless
  // thread must be safe — tests hammer exactly this).
  obs::Profiler::global().thread_stack();
  for (;;) {
    int conn = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !pending_.empty(); });
      if (pending_.empty()) return;  // closed and drained
      conn = pending_.front();
      pending_.pop_front();
      queue_depth_.set(static_cast<double>(pending_.size()));
    }
    serve_connection(conn);
  }
}

void HttpServer::serve_connection(int fd) {
  set_recv_timeout(fd, kRecvSliceMillis);
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);

  HttpParser parser(HttpParser::Kind::Request, options_.limits);
  Clock::time_point request_start = Clock::now();
  char buf[16 * 1024];

  for (;;) {
    // A completed request may already be buffered (pipelining, or the
    // leftover from the previous keep-alive round's reset()).
    while (parser.state() == HttpParser::State::NeedMore) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n > 0) {
        parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) {  // peer closed
        ::close(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        const bool stopping = stop_requested_.load(std::memory_order_relaxed);
        if (seconds_since(request_start) > options_.read_timeout_seconds ||
            (stopping && !parser.has_partial())) {
          if (parser.has_partial()) {
            // Mid-request: the peer deserves to know why the connection
            // died. Idle keep-alive connections just close.
            request_timeouts_.add();
            write_all(fd, RouteService::error_response(
                              408, "request not received in time")
                              .to_bytes(/*close_connection=*/true));
          }
          ::close(fd);
          return;
        }
        continue;
      }
      ::close(fd);
      return;
    }

    if (parser.state() == HttpParser::State::Error) {
      write_all(fd, RouteService::error_response(parser.error_status(),
                                                 parser.error_reason())
                        .to_bytes(/*close_connection=*/true));
      ::close(fd);
      return;
    }

    const HttpRequest& request = parser.message();
    const bool close_after =
        !request.keep_alive() ||
        stop_requested_.load(std::memory_order_relaxed);
    const HttpResponse response = process(request);
    write_all(fd, response.to_bytes(close_after));
    if (close_after) {
      ::close(fd);
      return;
    }
    parser.reset();
    request_start = Clock::now();
  }
}

HttpResponse HttpServer::process(const HttpRequest& request) {
  const Clock::time_point start = Clock::now();
  const double cpu_start = obs::thread_cpu_seconds();
  inflight_.add(1.0);

  if (options_.test_hooks) {
    if (const std::string* delay = request.header("x-sunchase-test-delay-ms"))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::strtol(delay->c_str(), nullptr, 10)));
  }

  HttpResponse response = service_.handle(request);

  const double elapsed = seconds_since(start);
  if (options_.deadline_seconds > 0.0 &&
      elapsed > options_.deadline_seconds) {
    // The search ran to completion (it is not interruptible) but blew
    // its budget; the client gets the timeout, not a stale answer.
    deadline_expired_.add();
    response = RouteService::error_response(
        504, "deadline of " + std::to_string(options_.deadline_seconds) +
                 "s exceeded");
  }

  inflight_.add(-1.0);
  // Endpoint comes from the bounded route_label set and status from the
  // fixed code set, so cardinality cannot run away.
  const obs::Labels endpoint_labels{
      {"endpoint", RouteService::route_label(request.target)},
      {"status", std::to_string(response.status)}};
  obs::Registry::global().counter("serve.requests", endpoint_labels).add();
  // Windowed: /metrics exports both the cumulative series and a
  // serve.latency_seconds.window sibling holding only the last ~60 s,
  // so soak-run dashboards see recent p99s instead of since-boot ones.
  obs::Registry::global()
      .windowed_histogram(
          "serve.latency_seconds",
          {{"endpoint", RouteService::route_label(request.target)}},
          obs::latency_bounds())
      .observe(elapsed);
  // HTTP-worker CPU per endpoint (single-query /plan work runs on this
  // thread; /batch pool workers account separately via mlc.cpu_seconds).
  obs::Registry::global()
      .gauge("serve.cpu_seconds",
             {{"endpoint", RouteService::route_label(request.target)}})
      .add(obs::thread_cpu_seconds() - cpu_start);
  log_access(request, response, response.body.size(), elapsed * 1000.0);
  return response;
}

void HttpServer::write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    // MSG_NOSIGNAL: a peer that hung up mid-write yields EPIPE, not a
    // process-killing SIGPIPE.
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // peer gone; nothing useful to do
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void HttpServer::log_access(const HttpRequest& request,
                            const HttpResponse& response, std::size_t bytes,
                            double millis) {
  if (!access_log_.is_open()) return;
  const std::lock_guard<std::mutex> lock(access_log_mutex_);
  access_log_ << request.method << ' ' << request.target << ' '
              << response.status << ' ' << bytes << ' ' << millis << '\n';
  access_log_.flush();
}

}  // namespace sunchase::serve
