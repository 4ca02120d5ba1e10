// The route server's request handlers, separated from the socket
// front-end (couchbase-lite-core's REST-vs-Networking split): a
// RouteService maps parsed HttpRequests to HttpResponses over the
// embedded planning engine and owns no connection state, so every
// endpoint is unit-testable without a socket and the listener stays a
// dumb byte pump. Endpoints:
//
//   POST /plan            one query -> candidate routes (+ query_id)
//   POST /batch           query array -> BatchPlanner live mode
//   GET  /explain/{id}    per-edge energy ledger of an answered query,
//                         replayed on its pinned world snapshot
//   GET  /metrics         Prometheus text from the global obs registry
//   GET  /healthz         liveness + current world version + drain state
//   POST /world/publish   fold crowd observations (or just re-publish)
//                         into the next world version via WorldStore
//   GET  /debug/trace     Chrome trace JSON of recorded spans
//                         (?since=<us> polls incrementally)
//   GET  /debug/queries   last n QueryLog records (?n=, default 32)
//   GET  /debug/worlds    WorldStore lineage: live versions + pins
//   GET  /debug/profile   sampling profiler folds as collapsed-stack
//                         text (flamegraph-ready); ?format=json for a
//                         structured document, ?reset=1 to drop the
//                         folds after snapshotting
//
// Every query resolves store.current() when picked up; a concurrent
// /world/publish never blocks or tears an in-flight query (the World
// MVCC contract), which is what makes the admin endpoint safe to call
// under full load.
//
// Request tracing: handle() adopts the caller's W3C `traceparent` (or
// generates a fresh 128-bit trace id), installs it as the thread's
// current trace context for the whole request, and echoes it in the
// `x-sunchase-request-id` and `traceparent` response headers. Planner
// spans — batch.query on pool workers included — parent back to the
// ingress serve.request span, and QueryLog records carry the same
// trace_id, so one id joins response, log line and trace export.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "sunchase/core/batch_planner.h"
#include "sunchase/core/planner.h"
#include "sunchase/core/world_store.h"
#include "sunchase/serve/http.h"
#include "sunchase/serve/query_ledger.h"

namespace sunchase::obs {
class QueryLog;
}  // namespace sunchase::obs

namespace sunchase::serve {

class JsonValue;

struct RouteServiceOptions {
  RouteServiceOptions() {
    // A route server is the fleet workload: slot-quantized pricing
    // through the world-owned shared cost cache (the batch default).
    mlc.pricing = core::PricingMode::SlotQuantized;
  }

  core::MlcOptions mlc{};
  core::SelectionOptions selection{};
  /// Worker threads per /batch request; 0 means one per hardware
  /// thread. Kept small by default — request-level parallelism comes
  /// from the HTTP worker pool.
  std::size_t batch_workers = 2;
  /// /batch bodies with more queries than this answer 413.
  std::size_t max_batch_queries = 512;
  /// How many answered queries stay explainable (each holds a world
  /// snapshot pin; see QueryLedger).
  std::size_t ledger_capacity = 256;
  /// When set, every planned query appends one JSONL QueryRecord
  /// (borrowed; keep alive while serving).
  obs::QueryLog* query_log = nullptr;
};

class RouteService {
 public:
  /// The store must outlive the service. Throws InvalidArgument when
  /// the options are rejected by the planning layer (bad MLC options,
  /// unknown vehicle index) — at construction, not per request.
  explicit RouteService(core::WorldStore& store,
                        RouteServiceOptions options = RouteServiceOptions{});

  /// Dispatches one request. Never throws: planning/parse errors map to
  /// 400/404/405/413/422, anything unexpected to 500.
  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

  /// Drain flag surfaced in /healthz and the serve.draining gauge; the
  /// listener sets it when shutdown begins.
  void set_draining(bool draining) noexcept;
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const core::WorldStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] const QueryLedger& ledger() const noexcept {
    return ledger_;
  }
  [[nodiscard]] const RouteServiceOptions& options() const noexcept {
    return options_;
  }

  /// A response with Content-Type application/json and `body`.
  [[nodiscard]] static HttpResponse json_response(int status,
                                                  std::string body);
  /// {"error": message} with the right Content-Type — also used by the
  /// listener for 408/429/504 answers so every error body has one shape.
  [[nodiscard]] static HttpResponse error_response(int status,
                                                   std::string_view message);

  /// Maps a request target onto the server's bounded endpoint set
  /// ("/plan", "/explain", "/debug", ..., "other") — the only endpoint
  /// value metrics labels may carry, so a hostile target can never
  /// explode `serve.requests{endpoint=...}` cardinality.
  [[nodiscard]] static const char* route_label(
      std::string_view target) noexcept;

 private:
  HttpResponse dispatch(const HttpRequest& request);
  HttpResponse handle_plan(const HttpRequest& request);
  HttpResponse handle_batch(const HttpRequest& request);
  HttpResponse handle_explain(std::uint64_t query_id);
  HttpResponse handle_publish(const HttpRequest& request);
  HttpResponse handle_healthz();
  HttpResponse handle_metrics(const std::string& target);
  HttpResponse handle_debug_trace(const std::string& target);
  HttpResponse handle_debug_queries(const std::string& target);
  HttpResponse handle_debug_worlds();
  HttpResponse handle_debug_profile(const std::string& target);

  /// Per-request MLC options: service defaults overridden by the
  /// request body's pricing / time_budget / vehicle fields.
  [[nodiscard]] core::MlcOptions mlc_options_from(const JsonValue& body);

  /// Stores an answered query's recommended route `chosen`, priced on
  /// `world` under `mlc`, in the explain ledger and returns its
  /// query_id — the one place /plan and /batch build a LedgerEntry.
  [[nodiscard]] std::uint64_t record_answer(
      core::WorldPtr world, const core::BatchQuery& query,
      const core::MlcOptions& mlc, const core::CandidateRoute& chosen,
      const core::MlcStats& stats, double cpu_seconds);

  core::WorldStore& store_;
  RouteServiceOptions options_;
  QueryLedger ledger_;
  /// Construction time, the /healthz uptime origin.
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::mutex publish_mutex_;  ///< serializes /world/publish fold+publish
  std::atomic<bool> draining_{false};
};

}  // namespace sunchase::serve
