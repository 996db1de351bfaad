// The layer ladder (the paper's Table III method applied to the serving
// stack): a fixed sample of the workload's queries goes through each
// layer's public entry point in turn — verify kernel, engine, batch driver,
// engine host, server, router — with a span around every call. A layer's
// own cost is the difference between adjacent rungs; its work counts come
// from the SearchStats, ServerCounters and RouterCounters sinks.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/edit_distance.h"
#include "core/lane_pool.h"
#include "core/searcher.h"
#include "core/simd_verify.h"
#include "server/client.h"
#include "stacks.h"
#include "util/kernel_dispatch.h"
#include "util/search_stats.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace ss = sss::server;

namespace {

constexpr size_t kPipelineDepth = 8;

double Us(Clock::duration d) { return Seconds(d) * 1e6; }

struct Sample {
  sss::QuerySet queries;
  sss::SearchResults reference;
};

// Whether `got` is the reference answer of sample query `i`; a miss is
// recorded as a wrong answer.
bool Check(const Sample& sample, size_t i, const sss::MatchList& got,
           const char* layer, Report* report) {
  report->Count(1, got == sample.reference[i] ? 0 : 1);
  if (got == sample.reference[i]) return true;
  report->Wrong(std::string(layer) + " k=" +
                std::to_string(sample.queries[i].max_distance) + " '" +
                sample.queries[i].text + "'");
  return false;
}

struct Ladder {
  const WorkloadSpec& spec;
  const RunOptions& options;
  const Inputs& in;
  const std::vector<std::string>& shard_paths;
  const std::vector<uint32_t>& id_bases;
  Report* report;
  SpanLog spans;
  Sample sample;
  size_t threads = LoadThreads();
  // Carried between rungs.
  double scalar_ns = 0;
  double lane_ns = 0;
  double scan_us = 0;

  // Untimed calls that precede each timed per-call loop (connections
  // warm, lazy set-up done).
  size_t warm() const { return std::min<size_t>(sample.queries.size(), 8); }
  // Timed passes over the sample in the per-call loops (the DNA sample's
  // calls are long enough to time in one pass).
  size_t passes() const { return spec.dna ? 1 : 5; }
  // Each sample query once per pass.
  std::vector<size_t> Order() const {
    std::vector<size_t> order;
    for (size_t p = 0; p < passes(); ++p) {
      for (size_t i = 0; i < sample.queries.size(); ++i) order.push_back(i);
    }
    return order;
  }

  void M(const std::string& name, double value, const std::string& unit) {
    report->Metric(name, value, unit);
  }

  void Kernel(uint32_t root);
  void Engine(uint32_t root);
  void Host(uint32_t root);
  void Server(uint32_t root);
  void Router(uint32_t root);
  void Replay(uint32_t root);
};

void Ladder::Kernel(uint32_t root) {
  const sss::Dataset& data = in.dataset;
  // Scalar tier: BoundedMyers on every length-filtered candidate pair.
  sss::EditDistanceWorkspace ws;
  uint64_t pairs = 0;
  Clock::duration busy{};
  for (size_t i = 0; i < sample.queries.size(); ++i) {
    const sss::Query& q = sample.queries[i];
    const int64_t qlen = static_cast<int64_t>(q.text.size());
    sss::MatchList hits;
    ScopedSpan span(&spans, "kernel.scalar", root);
    const Clock::time_point t0 = Clock::now();
    for (uint32_t id = 0; id < data.size(); ++id) {
      const int64_t len = static_cast<int64_t>(data.Length(id));
      if (std::abs(len - qlen) > q.max_distance) continue;
      ++pairs;
      if (sss::BoundedMyers(q.text, data.View(id), q.max_distance, &ws) <=
          q.max_distance) {
        hits.push_back(id);
      }
    }
    busy += Clock::now() - t0;
    Check(sample, i, hits, "kernel.scalar", report);
  }
  scalar_ns = Ratio(Seconds(busy) * 1e9, static_cast<double>(pairs));
  M("kernel.scalar_ns_per_pair", scalar_ns, "ns");
  M("kernel.pairs_per_query",
    Ratio(static_cast<double>(pairs), static_cast<double>(sample.queries.size())),
    "count");

  // Lane tier: LaneVerifyRange at the tier `auto` resolves to.
  const sss::LanePool pool = sss::LanePool::Build(data);
  const sss::KernelTier tier =
      sss::ResolveKernelTier(sss::KernelTierChoice::kAuto);
  sss::StatsSink sink;
  sss::SearchContext ctx;
  ctx.stats = &sink;
  busy = {};
  for (size_t i = 0; i < sample.queries.size(); ++i) {
    if (sample.queries[i].text.empty()) continue;  // per-pair path only
    sss::MatchList hits;
    ScopedSpan span(&spans, "kernel.lane", root);
    const Clock::time_point t0 = Clock::now();
    sss::LaneVerifyRange(pool, sample.queries[i], ctx, tier, 0,
                         static_cast<uint32_t>(data.size()), &hits)
        .AbortIfNotOK();
    busy += Clock::now() - t0;
    Check(sample, i, hits, "kernel.lane", report);
  }
  lane_ns = Ratio(Seconds(busy) * 1e9,
                  static_cast<double>(sink.Collected().simd_lanes_verified));
  M("kernel.lane_ns_per_pair", lane_ns, "ns");
  report->Detail("kernel.tier", std::string(sss::ToString(tier)));
}

void Ladder::Engine(uint32_t root) {
  auto scan = std::move(sss::MakeSearcher(sss::EngineKind::kSequentialScan,
                                          in.dataset))
                  .ValueOrDie();
  auto trie = std::move(sss::MakeSearcher(sss::EngineKind::kCompressedTrieIndex,
                                          in.dataset))
                  .ValueOrDie();
  const double n = static_cast<double>(sample.queries.size());
  const std::vector<size_t> order = Order();
  const double calls = static_cast<double>(order.size());

  // Serial Search, default (scalar) context: what one server request runs.
  for (const bool is_scan : {true, false}) {
    const sss::Searcher& engine = is_scan ? *scan : *trie;
    sss::StatsSink sink;
    sss::SearchContext ctx;
    ctx.stats = &sink;
    for (size_t i = 0; i < warm(); ++i) engine.Search(sample.queries[i]);
    Clock::duration busy{};
    for (const size_t i : order) {
      sss::MatchList out;
      ScopedSpan span(&spans, is_scan ? "engine.scan" : "engine.trie", root);
      const Clock::time_point t0 = Clock::now();
      engine.Search(sample.queries[i], ctx, &out).AbortIfNotOK();
      busy += Clock::now() - t0;
      Check(sample, i, out, "engine", report);
    }
    const sss::SearchStats st = sink.Collected();
    const double us = Us(busy) / calls;
    if (is_scan) {
      scan_us = us;
      M("engine.scan_us_per_query", us, "us");
      M("engine.length_filter_share",
        Ratio(st.length_filter_rejects, st.candidates_considered), "ratio");
      M("engine.matches_per_verify", Ratio(st.matches_found, st.verify_calls),
        "ratio");
      M("kernel.early_abort_share",
        Ratio(st.dp_early_aborts, st.kernel_myers_calls + st.kernel_banded_calls),
        "ratio");
    } else {
      M("engine.trie_us_per_query", us, "us");
      M("engine.trie_nodes_per_query", st.trie_nodes_visited / calls, "count");
      M("engine.trie_prune_share",
        Ratio(st.trie_nodes_pruned, st.trie_nodes_visited + st.trie_nodes_pruned),
        "ratio");
    }
  }

  // Batch driver: the same sample, serial then sharded, both at the auto
  // tier so the difference is the driver's, not the kernel's. Timed over
  // repeated passes (median); counted on one pass.
  sss::SearchContext ctx;
  ctx.kernel_tier = sss::KernelTierChoice::kAuto;
  sss::ExecutionOptions serial;
  sss::ExecutionOptions sharded;
  sharded.strategy = sss::ExecutionStrategy::kSharded;
  sharded.num_threads = threads;
  auto time_batch = [&](const sss::ExecutionOptions& exec, const char* name) {
    std::vector<double> times;
    const Clock::time_point start = Clock::now();
    while (times.size() < 3 || (times.size() < 50 && SecondsSince(start) < 0.5)) {
      ScopedSpan span(&spans, name, root);
      const Clock::time_point t0 = Clock::now();
      const sss::BatchResult r = scan->SearchBatch(sample.queries, exec, ctx);
      times.push_back(SecondsSince(t0));
      for (size_t i = 0; i < sample.queries.size(); ++i) {
        Check(sample, i, r.matches[i], name, report);
      }
    }
    return Median(times);
  };
  const double serial_s = time_batch(serial, "batch.serial");
  const double sharded_s = time_batch(sharded, "batch.sharded");
  sss::StatsSink sink;
  sss::SearchContext counted = ctx;
  counted.stats = &sink;
  scan->SearchBatch(sample.queries, sharded, counted);
  const sss::SearchStats st = sink.Collected();
  M("batch.serial_s", serial_s, "s");
  M("batch.sharded_s", sharded_s, "s");
  M("batch.efficiency", Ratio(serial_s, sharded_s * static_cast<double>(threads)),
    "ratio");
  M("batch.steal_share", Ratio(st.tasks_stolen, st.tasks_executed), "ratio");
  M("batch.planner_skip_share", Ratio(st.planner_skipped_queries, n), "ratio");
  M("kernel.simd_share", Ratio(st.simd_lanes_verified, st.verify_calls), "ratio");
  // How much of the sharded batch's thread time the verify kernel alone
  // accounts for: lane pairs at the lane cost, fallback pairs at the scalar.
  const double kernel_s = (st.simd_lanes_verified * lane_ns +
                           st.simd_fallback_pairs * scalar_ns) * 1e-9;
  M("ladder.kernel_share_of_batch",
    Ratio(kernel_s, sharded_s * static_cast<double>(threads)), "ratio");
  M("engine.index_bytes.scan", static_cast<double>(scan->memory_bytes()), "bytes");
  M("engine.index_bytes.trie", static_cast<double>(trie->memory_bytes()), "bytes");
}

void Ladder::Host(uint32_t root) {
  sss::EngineHostOptions host_options;
  host_options.alphabet = in.alphabet;
  sss::EngineHost host(spec.engines, host_options);
  Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(&spans, "host.load", root);
    host.LoadFile(in.path).AbortIfNotOK();
  }
  M("host.load_s", SecondsSince(t0), "s");
  t0 = Clock::now();
  {
    ScopedSpan span(&spans, "host.reload", root);
    host.Reload().AbortIfNotOK();
  }
  M("host.reload_s", SecondsSince(t0), "s");
  M("host.reload_build_us",
    static_cast<double>(host.counters().last_build_micros.load()), "us");
  M("host.reloads_failed",
    static_cast<double>(host.counters().reloads_failed.load()), "count");
}

void Ladder::Server(uint32_t root) {
  ServeStack stack;
  stack.Start(in.path, in.alphabet,
              {sss::EngineSpec::For(sss::EngineKind::kSequentialScan)})
      .AbortIfNotOK();
  auto client = std::move(ss::Client::Connect("127.0.0.1", stack.port()))
                    .ValueOrDie();
  const size_t n = sample.queries.size();
  auto request = [&](size_t i) {
    ss::Request r;
    r.k = static_cast<uint32_t>(sample.queries[i].max_distance);
    r.query = sample.queries[i].text;
    return r;
  };
  // Depth 1: one Client::Call at a time.
  for (size_t i = 0; i < warm(); ++i) {
    ss::Response response;
    client.Call(request(i), &response).AbortIfNotOK();
  }
  const std::vector<size_t> order = Order();
  Clock::duration busy{};
  for (const size_t i : order) {
    ss::Response response;
    ScopedSpan span(&spans, "server.call", root);
    const Clock::time_point t0 = Clock::now();
    client.Call(request(i), &response).AbortIfNotOK();
    busy += Clock::now() - t0;
    Check(sample, i, response.matches, "server.call", report);
  }
  const double call_us = Us(busy) / static_cast<double>(order.size());
  M("server.call_us", call_us, "us");
  M("server.overhead_us", call_us - scan_us, "us");
  M("ladder.server_over_engine", Ratio(call_us - scan_us, scan_us), "ratio");

  // Pipelined: kPipelineDepth requests in flight on the one connection.
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(&spans, "server.pipelined", root);
    std::vector<size_t> query_of(n + 1);
    size_t next = 0;
    auto send = [&] {
      const uint64_t id = std::move(client.Send(request(next))).ValueOrDie();
      if (id >= query_of.size()) query_of.resize(id + 1);
      query_of[id] = next++;
    };
    while (next < n && client.outstanding() < kPipelineDepth) send();
    while (client.outstanding() > 0) {
      ss::Response response;
      client.Receive(&response).AbortIfNotOK();
      Check(sample, query_of[response.request_id], response.matches,
            "server.pipelined", report);
      if (next < n) send();
    }
  }
  M("server.pipelined_us_per_request", Us(Clock::now() - t0) / n, "us");
  stack.Stop();

  const sss::SearchStats st = stack.sink().Collected();
  const ss::ServerCounters& c = stack.server().counters();
  const double requests = static_cast<double>(
      c.requests_ok + c.requests_shed + c.requests_cancelled +
      c.requests_rejected);
  M("server.window_depth_mean",
    Ratio(st.server_window_depth_sum, st.server_windows_batched), "count");
  M("server.batched_share", Ratio(st.server_window_depth_sum, requests), "ratio");
  M("server.shed_share", Ratio(c.requests_shed, requests), "ratio");
  M("server.bytes_per_request",
    Ratio(static_cast<double>(c.bytes_in + c.bytes_out), requests), "bytes");
  // The executor-spawn sentinel: pools opened by the server's batched
  // windows (a pool per window would make this track the window count).
  M("batch.pool_opens", static_cast<double>(st.pool_opens), "count");
  report->Detail("server.windows_batched",
                 static_cast<double>(st.server_windows_batched));
}

void Ladder::Router(uint32_t root) {
  RouterStack stack;
  stack.Start(shard_paths, id_bases, in.alphabet).AbortIfNotOK();
  const size_t n = sample.queries.size();
  auto request = [&](size_t i, uint64_t id) {
    ss::Request r;
    r.request_id = id;
    r.k = static_cast<uint32_t>(sample.queries[i].max_distance);
    r.query = sample.queries[i].text;
    return r;
  };
  // In-process Router::Dispatch, one request at a time.
  for (size_t i = 0; i < warm(); ++i) stack.router().Dispatch(request(i, i + 1));
  const std::vector<size_t> order = Order();
  Clock::duration dispatch{};
  for (const size_t i : order) {
    ScopedSpan span(&spans, "router.dispatch", root);
    const Clock::time_point t0 = Clock::now();
    const ss::Response response = stack.router().Dispatch(request(i, i + 1));
    dispatch += Clock::now() - t0;
    Check(sample, i, response.matches, "router.dispatch", report);
  }
  // The same queries straight to each shard: the slowest shard bounds what
  // a perfect fan-out could do.
  std::vector<ss::Client> shard_clients;
  for (auto& shard : stack.shards()) {
    shard_clients.push_back(
        std::move(ss::Client::Connect("127.0.0.1", shard->port())).ValueOrDie());
  }
  for (size_t i = 0; i < warm(); ++i) {
    for (ss::Client& shard : shard_clients) {
      ss::Response response;
      shard.Call(request(i, 0), &response).AbortIfNotOK();
    }
  }
  Clock::duration slowest{};
  for (const size_t i : order) {
    Clock::duration worst{};
    for (ss::Client& shard : shard_clients) {
      ss::Response response;
      ScopedSpan span(&spans, "router.shard_call", root);
      const Clock::time_point t0 = Clock::now();
      shard.Call(request(i, 0), &response).AbortIfNotOK();
      worst = std::max(worst, Clock::now() - t0);
    }
    slowest += worst;
  }
  auto frontend = std::move(ss::Client::Connect("127.0.0.1", stack.port()))
                      .ValueOrDie();
  for (size_t i = 0; i < warm(); ++i) {
    ss::Response response;
    frontend.Call(request(i, 0), &response).AbortIfNotOK();
  }
  Clock::duration front{};
  for (const size_t i : order) {
    ss::Response response;
    ScopedSpan span(&spans, "router.frontend_call", root);
    const Clock::time_point t0 = Clock::now();
    frontend.Call(request(i, 0), &response).AbortIfNotOK();
    front += Clock::now() - t0;
    Check(sample, i, response.matches, "router.frontend", report);
  }
  const double dn = static_cast<double>(order.size());
  const double dispatch_us = Us(dispatch) / dn;
  M("router.dispatch_us", dispatch_us, "us");
  M("router.overhead_us", dispatch_us - Us(slowest) / dn, "us");
  M("router.frontend_us", Us(front) / dn, "us");

  // Concurrent fan-outs through the front-end (phase A's shape), with the
  // process thread count sampled throughout.
  const int idle_threads = ProcessThreads();
  std::atomic<bool> done{false};
  std::atomic<int> peak{idle_threads};
  std::thread sampler([&] {
    while (!done) {
      peak = std::max(peak.load(), ProcessThreads());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  const uint64_t before = stack.router().counters().requests;
  const PhaseStats burst =
      RunClosedLoop(stack.port(), MakeFeed(in, options.seed), threads,
                    spec.dna ? 1 : kPipelineDepth,
                    std::min(1.0, 0.1 * options.seconds), 0, &spans);
  done = true;
  sampler.join();
  report->Count(burst.sent, burst.failed());
  for (uint64_t i = 0; i < burst.wrong; ++i) report->Wrong("router burst");
  stack.Stop();

  const ss::RouterCounters& c = stack.router().counters();
  const double requests = static_cast<double>(c.requests.load());
  M("router.multiplexed_share",
    Ratio(c.channel_multiplexed,
          static_cast<double>(c.requests - before) * stack.shards().size()),
    "ratio");
  M("router.threads_peak", peak - idle_threads, "count");
  M("router.retry_share", Ratio(c.retries, requests), "ratio");
  M("router.hedge_share", Ratio(c.hedges_fired, requests), "ratio");
  M("router.degraded_share", Ratio(c.degraded_responses, requests), "ratio");
}

// A short replay of the workload's own end-to-end loop, untraced then
// traced, for the tracing overhead (and, on the served workloads, the
// open-loop sender's lateness).
void Ladder::Replay(uint32_t root) {
  const double s = std::max(0.5, 0.1 * options.seconds);
  if (spec.offered_rate == 0) {
    auto scan = std::move(sss::MakeSearcher(sss::EngineKind::kSequentialScan,
                                            in.dataset))
                    .ValueOrDie();
    sss::SearchContext ctx;
    ctx.kernel_tier = sss::KernelTierChoice::kAuto;
    sss::ExecutionOptions exec;
    exec.strategy = sss::ExecutionStrategy::kSharded;
    exec.num_threads = threads;
    scan->SearchBatch(in.queries, exec, ctx);  // builds the lane pool
    double per_mode[2] = {0, 0};
    for (const bool traced : {false, true}) {
      spans.set_enabled(traced);
      std::vector<double> times;
      const Clock::time_point start = Clock::now();
      while (times.size() < 2 || SecondsSince(start) < s) {
        ScopedSpan span(&spans, "replay.batch", root);
        const Clock::time_point t0 = Clock::now();
        scan->SearchBatch(in.queries, exec, ctx);
        times.push_back(SecondsSince(t0));
      }
      per_mode[traced] = Median(times);
    }
    M("trace.overhead_share", per_mode[1] / per_mode[0] - 1, "ratio");
    M("gen.late_ms_p99", 0, "ms");
    report->Detail("gen.late_ms_p99",
                   "unavailable: dna_batch has no open-loop sender");
    return;
  }
  std::unique_ptr<ServeStack> serve;
  std::unique_ptr<RouterStack> routed;
  uint16_t port = 0;
  if (spec.routed) {
    routed = std::make_unique<RouterStack>();
    routed->Start(shard_paths, id_bases, in.alphabet).AbortIfNotOK();
    port = routed->port();
  } else {
    serve = std::make_unique<ServeStack>();
    serve->Start(in.path, in.alphabet, spec.engines).AbortIfNotOK();
    port = serve->port();
  }
  const QueryFeed feed = MakeFeed(in, options.seed);
  double per_request[2] = {0, 0};
  for (const bool traced : {false, true}) {
    spans.set_enabled(traced);
    const PhaseStats a =
        RunClosedLoop(port, feed, threads, kPipelineDepth, s, 0, &spans);
    report->Count(a.sent, a.failed());
    for (uint64_t i = 0; i < a.wrong; ++i) report->Wrong("replay");
    per_request[traced] = Ratio(a.elapsed_s, static_cast<double>(a.ok));
  }
  const PhaseStats b =
      RunOpenLoop(port, feed, spec.offered_rate, s, 0, &spans);
  report->Count(b.sent, b.failed());
  for (uint64_t i = 0; i < b.wrong; ++i) report->Wrong("replay");
  if (serve != nullptr) serve->Stop();
  if (routed != nullptr) routed->Stop();
  M("trace.overhead_share", per_request[1] / per_request[0] - 1, "ratio");
  M("gen.late_ms_p99", Percentile(b.late_ms, 0.99), "ms");
  report->Detail("replay.phase_b.samples",
                 static_cast<double>(b.latency_ms.size()));
}

}  // namespace

void RunLadder(const WorkloadSpec& spec, const RunOptions& options,
               const Inputs& inputs,
               const std::vector<std::string>& shard_paths,
               const std::vector<uint32_t>& id_bases, Report* report) {
  Ladder ladder{spec, options, inputs, shard_paths, id_bases, report};
  ladder.spans.set_enabled(true);
  const size_t n = std::min(spec.ladder_sample, inputs.queries.size());
  ladder.sample.queries.assign(inputs.queries.begin(),
                               inputs.queries.begin() + n);
  ladder.sample.reference.assign(inputs.reference.begin(),
                                 inputs.reference.begin() + n);
  const struct {
    const char* name;
    void (Ladder::*rung)(uint32_t);
  } rungs[] = {
      {"rung.kernel", &Ladder::Kernel}, {"rung.engine", &Ladder::Engine},
      {"rung.host", &Ladder::Host},     {"rung.server", &Ladder::Server},
      {"rung.router", &Ladder::Router}, {"rung.replay", &Ladder::Replay},
  };
  for (const auto& r : rungs) {
    ladder.spans.set_enabled(true);
    ScopedSpan span(&ladder.spans, r.name);
    (ladder.*r.rung)(span.id());
  }
  const std::string path = options.work_dir + "/spans-" + spec.name + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (ladder.spans.Write(path)) report->Detail("trace.spans_file", path);
  report->Detail("trace.spans", static_cast<double>(ladder.spans.size()));
  report->Detail("ladder.sample", static_cast<double>(n));
}

}  // namespace perfbench
