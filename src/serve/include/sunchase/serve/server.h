// The socket front-end of the route server: a thread-per-connection
// HTTP/1.1 listener that feeds parsed requests to a RouteService. The
// listener knows nothing about routing; the service knows nothing about
// sockets (see service.h for why the layers are split).
//
// Operational behavior, in the order a request meets it:
//
//  - Admission control: the accept loop hands connections to a bounded
//    queue; when the queue is full the connection is answered 429 and
//    closed immediately (serve.rejected counts them) instead of letting
//    backlog latency grow without bound.
//  - Read deadline: a connection that has sent part of a request but
//    not finished it within read_timeout_seconds is answered 408; an
//    idle keep-alive connection is closed silently.
//  - Handling deadline: a request whose handling exceeds
//    deadline_seconds is answered 504 (serve.deadline_expired). The
//    search itself is not interruptible, so the deadline is enforced on
//    the response, bounding what a slow query can occupy a worker for
//    from the client's point of view.
//  - Graceful drain: request_stop() is async-signal-safe (one atomic
//    store — call it from a SIGTERM handler). The accept loop notices
//    within its 100 ms poll tick, stops accepting, flips the service to
//    draining, and lets workers finish in-flight and queued requests
//    with "Connection: close" before join() returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sunchase/serve/http.h"
#include "sunchase/serve/service.h"

namespace sunchase::obs {
class Counter;
class Gauge;
}  // namespace sunchase::obs

namespace sunchase::serve {

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one from port() after
  /// start() — how tests and CI avoid port collisions.
  std::uint16_t port = 0;
  std::size_t workers = 4;
  /// Accepted connections waiting for a worker beyond this answer 429.
  std::size_t queue_capacity = 64;
  /// Handling budget per request (504 past it); <= 0 disables.
  double deadline_seconds = 10.0;
  /// Budget for receiving one full request (408 past it) and the idle
  /// keep-alive timeout.
  double read_timeout_seconds = 5.0;
  HttpLimits limits{};
  /// Enables the x-sunchase-test-delay-ms request header, which sleeps
  /// inside the handler — deterministic deadline tests only; never
  /// enable in production.
  bool test_hooks = false;
  /// When non-empty, appends one "METHOD TARGET STATUS bytes ms" line
  /// per request.
  std::string access_log_path;
};

class HttpServer {
 public:
  /// The service must outlive the server.
  HttpServer(RouteService& service, HttpServerOptions options = {});
  /// Stops and joins (drains in-flight requests).
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept loop + worker pool. Throws
  /// IoError when the socket cannot be set up (bad host, port in use).
  void start();

  /// The bound port (resolves ephemeral binds). 0 before start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Begins a graceful drain. Async-signal-safe: one relaxed atomic
  /// store, no locks, no allocation — the accept loop does the actual
  /// teardown on its next poll tick.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  /// Waits until the accept loop and every worker have exited (all
  /// queued and in-flight requests answered). Idempotent.
  void join();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const HttpServerOptions& options() const noexcept {
    return options_;
  }

 private:
  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Handles one parsed request end-to-end (metrics, deadline, access
  /// log). `close_connection` is what to_bytes() will be told.
  [[nodiscard]] HttpResponse process(const HttpRequest& request);
  void write_all(int fd, std::string_view bytes);
  void log_access(const HttpRequest& request, const HttpResponse& response,
                  std::size_t bytes, double millis);

  RouteService& service_;
  HttpServerOptions options_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  bool joined_ = true;  ///< guarded by join_mutex_

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;     ///< accepted fds awaiting a worker
  bool queue_closed_ = false;   ///< guarded by queue_mutex_

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::mutex join_mutex_;

  std::mutex access_log_mutex_;
  std::ofstream access_log_;

  // Registry handles resolved once at construction (stable for the
  // registry's lifetime; see obs::Registry).
  obs::Counter& rejected_;
  obs::Counter& request_timeouts_;
  obs::Counter& deadline_expired_;
  obs::Counter& connections_;
  obs::Gauge& inflight_;
  obs::Gauge& queue_depth_;
};

}  // namespace sunchase::serve
