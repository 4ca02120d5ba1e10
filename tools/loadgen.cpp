// loadgen — HTTP load generator for the route server (sunchase_cli
// serve): replays a fleet query file as POST /plan requests at stepped
// concurrency and writes a BENCH_serve.json latency/throughput report
// (bench/bench_report.h layout) for CI gating (tools/bench_compare.py).
//
//   loadgen --port N [--host ADDR] [--queries FILE]
//       [--rows N --cols N --seed S]    lattice of the server's city
//       [--concurrency LIST]            e.g. 1,2,4 (default)
//       [--requests-per-step N]         total requests per step (60)
//       [--out FILE]                    BENCH_serve.json report
//       [--publish-mid-step]            POST /world/publish once half of
//                                       each step's requests are done
//       [--explain-every N]             GET /explain/{id} for every Nth
//                                       ok plan and check "conserves"
//                                       (0 disables; default 3)
//       [--batch-every N]               additionally POST /batch (a small
//                                       query bundle) for every Nth
//                                       request, exercising the pool
//                                       workers the profiler samples
//                                       (0 disables; default 8)
//       [--profile-out FILE]            dump the server's /debug/profile
//                                       collapsed stacks after the run
//
// After each step loadgen scrapes GET /metrics?format=json and stamps
// the step's sample with the rolling-window p99 of
// serve.latency_seconds.window{endpoint="/plan"} (the server's own
// last-60s view, next to loadgen's client-side p99) and the step's
// serve.cpu_seconds delta (worker CPU burned per step). After the last
// step it scrapes GET /debug/profile and embeds a fold count + whether
// a serve.request;batch.query;... stack was captured.
//
// The query file is the same "FROM_R,FROM_C TO_R,TO_C HH:MM" lattice
// format the batch CLI reads; loadgen regenerates the grid city with
// the same rows/cols/seed to map lattice coordinates to node ids, so
// it must be started with the world options the server was.
//
// Every request carries a synthetic deterministic W3C `traceparent`
// header, and the server must echo the same trace id back in
// `x-sunchase-request-id` — per-step coverage lands in the report as
// `request_id_coverage`, and any missing echo fails the run.
//
// Exit codes: 0 all good; 2 usage; 3 any transport error or HTTP 5xx;
// 4 an /explain replay failed energy conservation (a response did not
// match its pinned world); 5 --publish-mid-step saw only one world
// version (the publish never surfaced); 6 a response was missing (or
// mismatched) the echoed request-id header.
#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "sunchase/common/error.h"
#include "sunchase/common/time_of_day.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/serve/client.h"
#include "sunchase/serve/json.h"

using namespace sunchase;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string queries_path = "data/fleet_queries.txt";
  int rows = 10, cols = 10;
  std::uint64_t seed = 7;
  std::vector<std::size_t> concurrency = {1, 2, 4};
  std::size_t requests_per_step = 60;
  std::string out_path = "BENCH_serve.json";
  bool publish_mid_step = false;
  std::size_t explain_every = 3;
  std::size_t batch_every = 8;
  std::string profile_out;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: loadgen --port N [--host ADDR] [--queries FILE]\n"
      "       [--rows N] [--cols N] [--seed S] [--concurrency 1,2,4]\n"
      "       [--requests-per-step N] [--out FILE] [--publish-mid-step]\n"
      "       [--explain-every N] [--batch-every N] [--profile-out FILE]\n");
  return 2;
}

/// The request bodies replayed by every step, pre-rendered once.
std::vector<std::string> load_bodies(const Options& opt) {
  roadnet::GridCityOptions city_options;
  city_options.rows = opt.rows;
  city_options.cols = opt.cols;
  city_options.seed = opt.seed;
  const roadnet::GridCity city(city_options);

  std::ifstream in(opt.queries_path);
  if (!in) throw IoError("loadgen: cannot open " + opt.queries_path);
  std::vector<std::string> bodies;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    int fr, fc, tr, tc, hh, mm;
    if (std::sscanf(line.c_str(), "%d,%d %d,%d %d:%d", &fr, &fc, &tr, &tc,
                    &hh, &mm) != 6)
      throw IoError("loadgen: malformed query at " + opt.queries_path + ":" +
                    std::to_string(lineno) + ": " + line);
    std::string body = "{\"origin\":";
    body += std::to_string(city.node_at(fr, fc));
    body += ",\"destination\":";
    body += std::to_string(city.node_at(tr, tc));
    body += ",\"departure\":\"";
    body += TimeOfDay::hms(hh, mm).to_string();
    body += "\"}";
    bodies.push_back(std::move(body));
  }
  if (bodies.empty())
    throw IoError("loadgen: no queries in " + opt.queries_path);
  return bodies;
}

/// Shared tallies of one concurrency step.
struct StepResult {
  std::size_t requests = 0;
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> http_4xx{0};
  std::atomic<std::size_t> http_5xx{0};
  std::atomic<std::size_t> transport_errors{0};
  std::atomic<std::size_t> conservation_failures{0};
  std::atomic<std::size_t> responses{0};           ///< HTTP responses seen
  std::atomic<std::size_t> request_id_missing{0};  ///< echo absent/mismatched
  std::atomic<std::size_t> batch_requests{0};      ///< POST /batch probes
  std::atomic<std::size_t> batch_ok{0};
  double wall_seconds = 0.0;
  std::mutex latency_mutex;
  std::vector<double> latencies_ms;  ///< guarded by latency_mutex
  std::mutex version_mutex;
  std::set<std::uint64_t> versions;  ///< guarded by version_mutex
};

/// One scrape of the server's own telemetry (/metrics?format=json):
/// the rolling-window p99 for /plan and the cumulative worker CPU,
/// summed over every serve.cpu_seconds{endpoint=...} series so /batch
/// worker time counts too. Deltas between scrapes give per-step CPU.
struct MetricsProbe {
  bool ok = false;
  double window_p99_ms = 0.0;
  double cpu_seconds_total = 0.0;
};

MetricsProbe scrape_metrics(const Options& opt) {
  MetricsProbe probe;
  try {
    serve::HttpClient client(opt.host, static_cast<std::uint16_t>(opt.port));
    const serve::HttpResponse response = client.get("/metrics?format=json");
    if (response.status != 200) return probe;
    const serve::JsonValue doc = serve::JsonValue::parse(response.body);
    if (const serve::JsonValue* gauges = doc.find("gauges");
        gauges != nullptr && gauges->is_object())
      for (const auto& [key, value] : gauges->as_object())
        if (key.rfind("serve.cpu_seconds", 0) == 0 && value.is_number())
          probe.cpu_seconds_total += value.as_number();
    if (const serve::JsonValue* histograms = doc.find("histograms");
        histograms != nullptr)
      if (const serve::JsonValue* window = histograms->find(
              "serve.latency_seconds.window{endpoint=\"/plan\"}"))
        probe.window_p99_ms = window->number_or("p99", 0.0) * 1e3;
    probe.ok = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: metrics scrape: %s\n", e.what());
  }
  return probe;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void run_worker(const Options& opt, std::size_t step_index,
                const std::vector<std::string>& bodies,
                std::atomic<std::size_t>& next, StepResult& step) {
  serve::HttpClient client(opt.host, static_cast<std::uint16_t>(opt.port));
  std::vector<double> local_ms;
  for (;;) {
    const std::size_t i = next.fetch_add(1);
    if (i >= step.requests) break;
    const std::string& body = bodies[i % bodies.size()];
    // Every Nth request also pushes a small POST /batch bundle through
    // the pool workers: that is the request shape whose samples fold to
    // serve.request;batch.query;mlc.search when the server profiles.
    // Batch probes keep their own tallies — their latency would skew
    // the /plan percentiles the report gates on.
    if (opt.batch_every != 0 && i % opt.batch_every == 0) {
      std::string bundle = "{\"queries\":[";
      const std::size_t bundle_size = std::min<std::size_t>(4, bodies.size());
      for (std::size_t b = 0; b < bundle_size; ++b) {
        if (b != 0) bundle += ',';
        bundle += bodies[(i + b) % bodies.size()];
      }
      bundle += "]}";
      step.batch_requests.fetch_add(1);
      try {
        const serve::HttpResponse response =
            client.post("/batch", bundle);
        if (response.status == 200)
          step.batch_ok.fetch_add(1);
        else if (response.status >= 500)
          step.http_5xx.fetch_add(1);
        else
          step.http_4xx.fetch_add(1);
      } catch (const std::exception& e) {
        step.transport_errors.fetch_add(1);
        std::fprintf(stderr, "loadgen: batch probe %zu: %s\n", i, e.what());
      }
    }
    // A deterministic synthetic trace per request: the server must echo
    // exactly these 32 hex chars back in x-sunchase-request-id.
    char trace_id[33];
    std::snprintf(trace_id, sizeof trace_id, "%016llx%016llx",
                  0x10adull + static_cast<unsigned long long>(step_index),
                  static_cast<unsigned long long>(i) + 1);
    const std::string traceparent =
        "00-" + std::string(trace_id) + "-00000000000000a1-01";
    const auto start = std::chrono::steady_clock::now();
    try {
      const serve::HttpResponse response = client.request(
          "POST", "/plan", body, {{"traceparent", traceparent}});
      local_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
      step.responses.fetch_add(1);
      const std::string* echoed = response.header("x-sunchase-request-id");
      if (echoed == nullptr || *echoed != trace_id)
        step.request_id_missing.fetch_add(1);
      if (response.status >= 500) {
        step.http_5xx.fetch_add(1);
        continue;
      }
      if (response.status >= 400) {
        step.http_4xx.fetch_add(1);
        continue;
      }
      step.ok.fetch_add(1);

      const serve::JsonValue parsed = serve::JsonValue::parse(response.body);
      const auto version =
          static_cast<std::uint64_t>(parsed.number_or("world_version", 0.0));
      {
        const std::lock_guard<std::mutex> lock(step.version_mutex);
        step.versions.insert(version);
      }
      // Spot-check: replay the response's route on its pinned world via
      // /explain; a conservation failure means the response and the
      // world version it claims do not match.
      if (opt.explain_every != 0 && i % opt.explain_every == 0) {
        const auto id =
            static_cast<std::uint64_t>(parsed.number_or("query_id", 0.0));
        const serve::HttpResponse explain =
            client.get("/explain/" + std::to_string(id));
        if (explain.status != 200) {
          step.http_5xx.fetch_add(explain.status >= 500 ? 1 : 0);
          continue;
        }
        const serve::JsonValue ledger =
            serve::JsonValue::parse(explain.body);
        const serve::JsonValue* conserves = ledger.find("conserves");
        if (conserves == nullptr || !conserves->as_bool())
          step.conservation_failures.fetch_add(1);
      }
    } catch (const std::exception& e) {
      step.transport_errors.fetch_add(1);
      std::fprintf(stderr, "loadgen: request %zu: %s\n", i, e.what());
    }
  }
  const std::lock_guard<std::mutex> lock(step.latency_mutex);
  step.latencies_ms.insert(step.latencies_ms.end(), local_ms.begin(),
                           local_ms.end());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next()))
      opt.host = v;
    else if (arg == "--port" && (v = next()))
      opt.port = std::atoi(v);
    else if (arg == "--queries" && (v = next()))
      opt.queries_path = v;
    else if (arg == "--rows" && (v = next()))
      opt.rows = std::atoi(v);
    else if (arg == "--cols" && (v = next()))
      opt.cols = std::atoi(v);
    else if (arg == "--seed" && (v = next()))
      opt.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--concurrency" && (v = next())) {
      opt.concurrency.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const unsigned long long c = std::strtoull(p, &end, 10);
        if (end == p || c == 0) return usage();
        opt.concurrency.push_back(static_cast<std::size_t>(c));
        p = *end == ',' ? end + 1 : end;
      }
      if (opt.concurrency.empty()) return usage();
    } else if (arg == "--requests-per-step" && (v = next()))
      opt.requests_per_step =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--out" && (v = next()))
      opt.out_path = v;
    else if (arg == "--publish-mid-step")
      opt.publish_mid_step = true;
    else if (arg == "--explain-every" && (v = next()))
      opt.explain_every =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--batch-every" && (v = next()))
      opt.batch_every =
          static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    else if (arg == "--profile-out" && (v = next()))
      opt.profile_out = v;
    else
      return usage();
  }
  if (opt.port <= 0 || opt.port > 65535) return usage();

  try {
    const std::vector<std::string> bodies = load_bodies(opt);

    std::size_t total_requests = 0, total_ok = 0, total_4xx = 0,
                total_5xx = 0, total_transport = 0, total_conservation = 0,
                total_request_id_missing = 0, total_batch = 0,
                total_batch_ok = 0;
    std::set<std::uint64_t> all_versions;
    bench::Report report("loadgen_serve");
    double peak_qps = 0.0;
    double best_p99_ms = 0.0;

    // Baseline scrape: per-step CPU is the delta between consecutive
    // scrapes of the cumulative serve.cpu_seconds gauges.
    MetricsProbe previous_probe = scrape_metrics(opt);

    for (std::size_t s = 0; s < opt.concurrency.size(); ++s) {
      const std::size_t concurrency = opt.concurrency[s];
      StepResult step;
      step.requests = opt.requests_per_step;
      std::atomic<std::size_t> next_request{0};

      const auto start = std::chrono::steady_clock::now();
      std::vector<std::thread> workers;
      for (std::size_t w = 0; w < concurrency; ++w)
        workers.emplace_back([&, s] {
          run_worker(opt, s, bodies, next_request, step);
        });

      // Mid-step world publish: wait until half the step's requests are
      // answered, then roll the version — the remaining half must pin
      // the new snapshot while completed responses stay consistent with
      // the old one (their /explain replays still conserve).
      std::thread publisher;
      if (opt.publish_mid_step)
        publisher = std::thread([&] {
          const std::size_t half = step.requests / 2;
          while (step.ok.load() + step.http_4xx.load() +
                     step.http_5xx.load() + step.transport_errors.load() <
                 half)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          try {
            serve::HttpClient admin(opt.host,
                                    static_cast<std::uint16_t>(opt.port));
            const serve::HttpResponse response =
                admin.post("/world/publish", "");
            if (response.status != 200) step.http_5xx.fetch_add(1);
          } catch (const std::exception& e) {
            step.transport_errors.fetch_add(1);
            std::fprintf(stderr, "loadgen: publish: %s\n", e.what());
          }
        });

      for (std::thread& worker : workers) worker.join();
      if (publisher.joinable()) publisher.join();
      step.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();

      std::sort(step.latencies_ms.begin(), step.latencies_ms.end());
      const double p50 = percentile(step.latencies_ms, 0.50);
      const double p99 = percentile(step.latencies_ms, 0.99);
      const double max_ms =
          step.latencies_ms.empty() ? 0.0 : step.latencies_ms.back();
      const double qps =
          step.wall_seconds > 0.0
              ? static_cast<double>(step.requests) / step.wall_seconds
              : 0.0;
      const std::size_t responses = step.responses.load();
      const double request_id_coverage =
          responses == 0
              ? 0.0
              : static_cast<double>(responses -
                                    step.request_id_missing.load()) /
                    static_cast<double>(responses);

      // The server's own view of this step: rolling-window p99 (its
      // last-60s serve.latency_seconds.window quantile) and the CPU
      // the step burned (delta of the cumulative cpu_seconds gauges).
      const MetricsProbe probe = scrape_metrics(opt);
      const double step_cpu_seconds =
          (probe.ok && previous_probe.ok)
              ? std::max(0.0, probe.cpu_seconds_total -
                                  previous_probe.cpu_seconds_total)
              : 0.0;
      if (probe.ok) previous_probe = probe;

      std::printf("concurrency %zu: %zu requests in %.3f s — %.1f req/s, "
                  "p50 %.1f ms, p99 %.1f ms, window p99 %.1f ms, "
                  "cpu %.3f s (%zu ok, %zu 4xx, %zu 5xx, %zu transport, "
                  "%zu/%zu batch)\n",
                  concurrency, step.requests, step.wall_seconds, qps, p50,
                  p99, probe.window_p99_ms, step_cpu_seconds, step.ok.load(),
                  step.http_4xx.load(), step.http_5xx.load(),
                  step.transport_errors.load(), step.batch_ok.load(),
                  step.batch_requests.load());

      const bench::Labels at = {{"concurrency", std::to_string(concurrency)}};
      auto count = [](std::size_t c) { return static_cast<double>(c); };
      report.add("requests", at, count(step.requests), "count");
      report.add("ok", at, count(step.ok.load()), "count");
      report.add("http_4xx", at, count(step.http_4xx.load()), "count");
      report.add("http_5xx", at, count(step.http_5xx.load()), "count");
      report.add("transport_errors", at, count(step.transport_errors.load()),
                 "count");
      report.add("wall_seconds", at, step.wall_seconds, "s");
      report.add("queries_per_second", at, qps, "1/s");
      report.add("p50_ms", at, p50, "ms");
      report.add("p99_ms", at, p99, "ms");
      report.add("max_ms", at, max_ms, "ms");
      report.add("request_id_coverage", at, request_id_coverage, "ratio");
      report.add("window_p99_ms", at, probe.window_p99_ms, "ms");
      report.add("cpu_seconds", at, step_cpu_seconds, "s");
      report.add("batch_requests", at, count(step.batch_requests.load()),
                 "count");
      report.add("batch_ok", at, count(step.batch_ok.load()), "count");
      peak_qps = std::max(peak_qps, qps);
      best_p99_ms = s == 0 ? p99 : std::min(best_p99_ms, p99);

      total_requests += step.requests;
      total_ok += step.ok.load();
      total_4xx += step.http_4xx.load();
      total_5xx += step.http_5xx.load();
      total_transport += step.transport_errors.load();
      total_conservation += step.conservation_failures.load();
      total_request_id_missing += step.request_id_missing.load();
      total_batch += step.batch_requests.load();
      total_batch_ok += step.batch_ok.load();
      all_versions.insert(step.versions.begin(), step.versions.end());
    }

    // Pull the server's sampling-profiler folds (collapsed-stack text,
    // one "outer;inner COUNT" line each). Empty when the server was not
    // started with --profile — the report records that as folds 0
    // rather than failing, so CI can assert on it explicitly.
    std::size_t profile_folds = 0;
    bool profile_has_batch_stack = false;
    std::string profile_text;
    try {
      serve::HttpClient client(opt.host,
                               static_cast<std::uint16_t>(opt.port));
      const serve::HttpResponse response = client.get("/debug/profile");
      if (response.status == 200) profile_text = response.body;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "loadgen: profile scrape: %s\n", e.what());
    }
    for (std::size_t pos = 0; pos < profile_text.size();) {
      const std::size_t eol = profile_text.find('\n', pos);
      const std::string_view line(profile_text.data() + pos,
                                  (eol == std::string::npos
                                       ? profile_text.size()
                                       : eol) - pos);
      if (!line.empty()) {
        ++profile_folds;
        if (line.rfind("serve.request;batch.query", 0) == 0)
          profile_has_batch_stack = true;
      }
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
    if (!opt.profile_out.empty()) {
      std::ofstream prof(opt.profile_out);
      if (!prof) throw IoError("loadgen: cannot write " + opt.profile_out);
      prof << profile_text;
      std::printf("wrote %s (%zu folds)\n", opt.profile_out.c_str(),
                  profile_folds);
    }

    const std::uint64_t version_min =
        all_versions.empty() ? 0 : *all_versions.begin();
    const std::uint64_t version_max =
        all_versions.empty() ? 0 : *all_versions.rbegin();

    // Wide bounds (35% below the peak, 3x the best p99): the baseline
    // came from a dev container, CI runs on shared runners.
    report.add("peak_queries_per_second", {}, peak_qps, "1/s",
               bench::baseline_at_least(0.65));
    report.add("best_p99_ms", {}, best_p99_ms, "ms",
               bench::baseline_at_most(3.0));
    const auto total = [&report](const char* name, std::size_t value) {
      report.add(name, {}, static_cast<double>(value), "count");
    };
    total("queries", bodies.size());
    total("requests", total_requests);
    total("ok", total_ok);
    total("http_4xx", total_4xx);
    total("http_5xx", total_5xx);
    total("transport_errors", total_transport);
    total("conservation_failures", total_conservation);
    total("request_id_missing", total_request_id_missing);
    total("batch_requests", total_batch);
    total("batch_ok", total_batch_ok);
    report.add("world_version_min", {}, static_cast<double>(version_min),
               "version");
    report.add("world_version_max", {}, static_cast<double>(version_max),
               "version");
    total("profile_folds", profile_folds);
    report.add("profile_has_batch_stack", {},
               profile_has_batch_stack ? 1.0 : 0.0, "bool");
    if (!report.write(opt.out_path))
      throw IoError("loadgen: cannot write " + opt.out_path);
    std::printf("%zu/%zu ok, world versions %llu..%llu\n", total_ok,
                total_requests,
                static_cast<unsigned long long>(version_min),
                static_cast<unsigned long long>(version_max));

    if (total_conservation != 0) {
      std::fprintf(stderr,
                   "loadgen: %zu responses failed the pinned-world "
                   "conservation replay\n",
                   total_conservation);
      return 4;
    }
    if (total_5xx != 0 || total_transport != 0) return 3;
    if (opt.publish_mid_step && all_versions.size() < 2) {
      std::fprintf(stderr,
                   "loadgen: mid-step publish never surfaced a new world "
                   "version\n");
      return 5;
    }
    if (total_request_id_missing != 0) {
      std::fprintf(stderr,
                   "loadgen: %zu responses were missing (or mismatched) "
                   "the x-sunchase-request-id echo\n",
                   total_request_id_missing);
      return 6;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 3;
  }
}
