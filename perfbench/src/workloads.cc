#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/searcher.h"
#include "server/client.h"
#include "stacks.h"
#include "wire.h"

namespace perfbench {

namespace ss = sss::server;

namespace {

constexpr uint8_t kScanId =
    static_cast<uint8_t>(sss::EngineKind::kSequentialScan);
constexpr uint8_t kTrieId =
    static_cast<uint8_t>(sss::EngineKind::kCompressedTrieIndex);
// Shard servers the router fans out to (the ladder's router rung uses the
// same split on every workload).
constexpr size_t kShards = 3;
// A run is split into cycles, each running every measured phase once, so
// a slow spell of the machine lands on every metric alike; each metric is
// the best, or near-best, of its per-cycle samples (see Best, NearBest).
constexpr int kCycles = 20;
// Set-ups (and, where the workload reloads between phases, reloads)
// measured per cycle.
constexpr int kSetupsPerCycle = 2;
// Phase B is timed in windows of this many requests, enough for a p99 with
// ten samples beyond it.
constexpr double kPhaseBWindowSamples = 1000;
// Phase A is timed in this many windows per cycle.
constexpr int kPhaseAWindows = 5;
// Phase A: every load connection keeps this many requests in flight.
constexpr size_t kPipelineDepth = 8;
// Phase B is invalid when the sender ran behind its schedule for most of
// it: median lateness above this. (A stall of the machine delays a few
// sends, which latency from the due time already charges; a sender that
// cannot keep the rate at all measures nothing.)
constexpr double kMaxMedianLateMs = 1.0;
// Queries per in-process batch on the city corpus.
constexpr size_t kCityBatch = 2000;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"dna_batch", true, 0.1, 16 * kCycles,
       {sss::EngineSpec::For(sss::EngineKind::kSequentialScan),
        sss::EngineSpec::For(sss::EngineKind::kCompressedTrieIndex)},
       false, 0, 16},
      {"city_serve", false, 0.01, 24000,
       {sss::EngineSpec::For(sss::EngineKind::kSequentialScan)}, false, 5000,
       64},
      {"city_router", false, 0.01, 24000,
       {sss::EngineSpec::For(sss::EngineKind::kSequentialScan)}, true, 1000,
       64},
  };
  return specs;
}

sss::ExecutionOptions ShardedExec() {
  sss::ExecutionOptions exec;
  exec.strategy = sss::ExecutionStrategy::kSharded;
  exec.num_threads = LoadThreads();
  return exec;
}

sss::SearchContext AutoTier() {
  sss::SearchContext ctx;
  ctx.kernel_tier = sss::KernelTierChoice::kAuto;
  return ctx;
}

std::string Describe(const sss::Query& q) {
  return "k=" + std::to_string(q.max_distance) + " '" + q.text + "'";
}

// Runs queries [first, first + count) as one batch on `engine`, checks
// the answers against the reference, and returns the batch's wall time.
double TimedBatch(const sss::Searcher& engine, const Inputs& in, size_t first,
                  size_t count, Report* report) {
  const sss::QuerySet batch(in.queries.begin() + first,
                            in.queries.begin() + first + count);
  const Clock::time_point t0 = Clock::now();
  const sss::BatchResult result =
      engine.SearchBatch(batch, ShardedExec(), AutoTier());
  const double dt = SecondsSince(t0);
  uint64_t failed = 0;
  for (size_t i = 0; i < count; ++i) {
    if (!result.statuses[i].ok()) {
      ++failed;
    } else if (result.matches[i] != in.reference[first + i]) {
      ++failed;
      report->Wrong(Describe(in.queries[first + i]));
    }
  }
  report->Count(count, failed);
  return dt;
}

// Admin-reloads every server in `ports` at once, each from its own file
// (identical content), over fresh connections; returns the wall time, or a
// negative value when any reload failed.
double ReloadAll(const std::vector<uint16_t>& ports) {
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  const Clock::time_point t0 = Clock::now();
  for (uint16_t port : ports) {
    threads.emplace_back([port, &ok] {
      auto client = ss::Client::Connect("127.0.0.1", port);
      ss::Response response;
      if (!client.ok() || !client->Reload("", &response).ok() ||
          response.code != sss::StatusCode::kOk) {
        ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double dt = SecondsSince(t0);
  return ok ? dt : -1;
}

// Reload samples and failures, reported together.
struct Reloads {
  std::vector<double> seconds;
  uint64_t failed = 0;

  void Add(double dt) {
    if (dt < 0) {
      ++failed;
    } else {
      seconds.push_back(dt);
    }
  }
  void ReportTo(Report* report) const {
    report->Count(seconds.size() + failed, failed);
    report->Metric("reload_s", NearBest(seconds, false), "s");
    report->Detail("reloads", static_cast<double>(seconds.size()));
  }
};

void ReportPhase(const std::string& name, const PhaseStats& p,
                 Report* report) {
  report->Detail(name + ".sent", static_cast<double>(p.sent));
  report->Detail(name + ".ok", static_cast<double>(p.ok));
  report->Detail(name + ".shed", static_cast<double>(p.shed));
  report->Detail(name + ".not_ok", static_cast<double>(p.not_ok));
  report->Detail(name + ".degraded", static_cast<double>(p.degraded));
  report->Detail(name + ".transport", static_cast<double>(p.transport));
  report->Count(p.sent, p.failed());
  for (uint64_t i = 0; i < p.wrong; ++i) report->Wrong(name + " answer");
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += " ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    out += buf;
  }
  return out;
}

// ---- dna_batch ------------------------------------------------------------

// Loads the corpus into a fresh host and answers the first query on both
// engines: the set-up a user of the library pays before a batch.
std::unique_ptr<sss::EngineHost> SetUpHost(const WorkloadSpec& spec,
                                           const Inputs& in,
                                           std::vector<double>* setup_s,
                                           Report* report) {
  sss::EngineHostOptions options;
  options.alphabet = in.alphabet;
  auto host = std::make_unique<sss::EngineHost>(spec.engines, options);
  const sss::QuerySet first(in.queries.begin(), in.queries.begin() + 1);
  const Clock::time_point t0 = Clock::now();
  host->LoadFile(in.path).AbortIfNotOK();
  const sss::EngineSetHandle set = host->Acquire();
  const sss::BatchResult scan_first =
      set->Find(kScanId)->SearchBatch(first, ShardedExec(), AutoTier());
  const sss::MatchList trie_first = set->Find(kTrieId)->Search(first[0]);
  setup_s->push_back(SecondsSince(t0));
  const bool ok = scan_first.statuses[0].ok() &&
                  scan_first.matches[0] == in.reference[0] &&
                  trie_first == in.reference[0];
  report->Count(1, ok ? 0 : 1);
  if (!ok) report->Wrong(Describe(first[0]));
  return host;
}

// Single-query Search calls from LoadThreads() callers for `seconds`,
// each pinning the host's current generation as a server worker would: the
// in-process request path, with no batching, server or router.
void RunCalls(sss::EngineHost* host, const Inputs& in, double seconds,
              uint64_t* cursor, std::vector<double>* latency_ms,
              std::vector<double>* qps, Report* report) {
  std::atomic<uint64_t> next{*cursor};
  std::vector<std::vector<double>> latency(LoadThreads());
  std::vector<uint64_t> failed(LoadThreads(), 0);
  std::vector<std::thread> callers;
  const Clock::time_point start = Clock::now();
  for (size_t t = 0; t < LoadThreads(); ++t) {
    callers.emplace_back([&, t] {
      const sss::SearchContext ctx = AutoTier();
      while (SecondsSince(start) < seconds) {
        const size_t q = next.fetch_add(1) % in.queries.size();
        const sss::EngineSetHandle pinned = host->Acquire();
        sss::MatchList out;
        const Clock::time_point t0 = Clock::now();
        const sss::Status st =
            pinned->default_engine->Search(in.queries[q], ctx, &out);
        latency[t].push_back(SecondsSince(t0) * 1e3);
        if (!st.ok() || out != in.reference[q]) ++failed[t];
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const double elapsed = SecondsSince(start);
  *cursor = next.load();
  uint64_t calls = 0;
  uint64_t calls_failed = 0;
  for (size_t t = 0; t < latency.size(); ++t) {
    latency_ms->insert(latency_ms->end(), latency[t].begin(), latency[t].end());
    calls += latency[t].size();
    calls_failed += failed[t];
  }
  report->Count(calls, calls_failed);
  for (uint64_t i = 0; i < calls_failed; ++i) report->Wrong("single call");
  qps->push_back(static_cast<double>(calls - calls_failed) / elapsed);
}

bool RunDnaBatch(const WorkloadSpec& spec, const RunOptions& options,
                 const Inputs& in, Report* report) {
  const double cycle_s = options.seconds / kCycles;
  const size_t slice = std::max<size_t>(1, in.queries.size() / kCycles);
  std::vector<double> setup_s, scan_qps, trie_qps, call_qps, latency_ms,
      index_mb;
  size_t batched = 0;
  Reloads reloads;
  uint64_t cursor = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const Clock::time_point cycle_start = Clock::now();
    // Each cycle serves from a freshly set-up host and reloads it last.
    std::unique_ptr<sss::EngineHost> host;
    for (int r = 0; r < kSetupsPerCycle; ++r) {
      host = SetUpHost(spec, in, &setup_s, report);
    }
    {
      // The cycle's slice of the batch (every slice mixes all thresholds),
      // on the best scan and then the best index.
      const sss::EngineSetHandle set = host->Acquire();
      const size_t first = (cycle * slice) % in.queries.size();
      const size_t count = std::min(slice, in.queries.size() - first);
      const double n = static_cast<double>(count);
      scan_qps.push_back(
          n / TimedBatch(*set->Find(kScanId), in, first, count, report));
      trie_qps.push_back(
          n / TimedBatch(*set->Find(kTrieId), in, first, count, report));
      batched += count;
      size_t bytes = 0;
      for (const auto& engine : set->engines) bytes += engine->memory_bytes();
      index_mb.push_back(static_cast<double>(bytes) / (1 << 20));
    }
    // The calls take what is left of the cycle once its reloads (about
    // 0.3 s) are set aside.
    const double left = cycle_s - SecondsSince(cycle_start) - 0.3;
    RunCalls(host.get(), in, std::max(0.2 * cycle_s, left), &cursor,
             &latency_ms, &call_qps, report);
    for (int r = 0; r < kSetupsPerCycle; ++r) {
      const Clock::time_point t0 = Clock::now();
      const sss::Status st = host->Reload();
      reloads.Add(st.ok() ? SecondsSince(t0) : -1);
    }
  }
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("scan_qps", NearBest(scan_qps, true), "queries/s");
  report->Metric("trie_qps", NearBest(trie_qps, true), "queries/s");
  report->Metric("index_mb", Median(index_mb), "MiB");
  report->Metric("qps", NearBest(call_qps, true), "requests/s");
  // A cycle's calls are too few for its own p99: the percentiles pool
  // every call of the run.
  report->Metric("p50_ms", Percentile(latency_ms, 0.5), "ms");
  report->Metric("p99_ms", Percentile(latency_ms, 0.99), "ms");
  reloads.ReportTo(report);
  report->Detail("setup.samples", static_cast<double>(setup_s.size()));
  report->Detail("calls.samples", static_cast<double>(latency_ms.size()));
  report->Detail("batch.queries", static_cast<double>(batched));
  return true;
}

// ---- city_serve / city_router --------------------------------------------

// The stack a served workload drives: one server over the host, or the
// router over its shard servers.
struct Served {
  std::unique_ptr<ServeStack> serve;
  std::unique_ptr<RouterStack> routed;

  uint16_t port() const { return serve ? serve->port() : routed->port(); }
  std::vector<uint16_t> backend_ports() const {
    if (serve) return {serve->port()};
    std::vector<uint16_t> ports;
    for (auto& shard : routed->shards()) ports.push_back(shard->port());
    return ports;
  }
  size_t index_bytes() const {
    if (serve) return IndexBytes(serve->host());
    size_t bytes = 0;
    for (auto& shard : routed->shards()) bytes += IndexBytes(shard->host());
    return bytes;
  }
  void Stop() {
    if (serve) serve->Stop();
    if (routed) routed->Stop();
  }
};

// Starts the workload's stack and answers the first query over the wire.
Served SetUpServed(const WorkloadSpec& spec, const Inputs& in,
                   const std::vector<std::string>& shard_paths,
                   const std::vector<uint32_t>& id_bases,
                   std::vector<double>* setup_s, Report* report) {
  Served served;
  sss::MatchList first;
  const Clock::time_point t0 = Clock::now();
  if (spec.routed) {
    served.routed = std::make_unique<RouterStack>();
    served.routed->Start(shard_paths, id_bases, in.alphabet).AbortIfNotOK();
  } else {
    served.serve = std::make_unique<ServeStack>();
    served.serve->Start(in.path, in.alphabet, spec.engines).AbortIfNotOK();
  }
  CallOnce(served.port(), in.queries[0], &first).AbortIfNotOK();
  setup_s->push_back(SecondsSince(t0));
  report->Count(1, first == in.reference[0] ? 0 : 1);
  if (first != in.reference[0]) report->Wrong(Describe(in.queries[0]));
  return served;
}

bool RunServed(const WorkloadSpec& spec, const RunOptions& options,
               const Inputs& in, const std::vector<std::string>& shard_paths,
               const std::vector<uint32_t>& id_bases, Report* report) {
  const double cycle_s = options.seconds / kCycles;
  std::vector<double> setup_s, scan_qps, trie_qps, qps, index_mb, p50, p99;
  Reloads reloads;
  Served served =
      SetUpServed(spec, in, shard_paths, id_bases, &setup_s, report);
  // Fig. 6 on the served corpus: in-process batches, no wire involved.
  auto scan = std::move(sss::MakeSearcher(sss::EngineKind::kSequentialScan,
                                          in.dataset))
                  .ValueOrDie();
  auto trie = std::move(sss::MakeSearcher(
                            sss::EngineKind::kCompressedTrieIndex, in.dataset))
                  .ValueOrDie();
  const double batch = static_cast<double>(std::min(kCityBatch, in.queries.size()));
  const QueryFeed feed = MakeFeed(in, options.seed);
  SpanLog no_spans;
  PhaseStats a_total, b_total;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int r = 0; r < kSetupsPerCycle; ++r) {
      SetUpServed(spec, in, shard_paths, id_bases, &setup_s, report).Stop();
    }
    for (int r = 0; r < 4; ++r) {
      scan_qps.push_back(batch / TimedBatch(*scan, in, 0, batch, report));
      trie_qps.push_back(batch / TimedBatch(*trie, in, 0, batch, report));
    }

    // Phase A: closed loop, LoadThreads() connections x kPipelineDepth,
    // in kPhaseAWindows windows, each timed on its own.
    for (int w = 0; w < kPhaseAWindows; ++w) {
      const PhaseStats a = RunClosedLoop(
          served.port(), feed, LoadThreads(), kPipelineDepth,
          0.35 * cycle_s / kPhaseAWindows, a_total.sent + b_total.sent,
          &no_spans);
      qps.push_back(static_cast<double>(a.ok) / a.elapsed_s);
      a_total.Merge(a);
    }
    index_mb.push_back(static_cast<double>(served.index_bytes()) / (1 << 20));

    // Phase B: open loop at the workload's fixed rate, in windows of
    // kPhaseBWindowSamples requests, each timed on its own. city_serve
    // reloads the same corpus file halfway through every window;
    // city_router reloads its shards once the load has stopped.
    const double window_s = kPhaseBWindowSamples / spec.offered_rate;
    const long windows = std::max(1L, std::lround(0.45 * cycle_s / window_s));
    for (long w = 0; w < windows; ++w) {
      std::thread reloader;
      if (!spec.routed) {
        reloader = std::thread([&] {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(window_s / 2));
          reloads.Add(ReloadAll(served.backend_ports()));
        });
      }
      const PhaseStats b =
          RunOpenLoop(served.port(), feed, spec.offered_rate, window_s,
                      a_total.sent + b_total.sent, &no_spans);
      if (reloader.joinable()) reloader.join();
      p50.push_back(Percentile(b.latency_ms, 0.5));
      p99.push_back(Percentile(b.latency_ms, 0.99));
      b_total.Merge(b);
    }
    for (int r = 0; spec.routed && r < kSetupsPerCycle; ++r) {
      reloads.Add(ReloadAll(served.backend_ports()));
    }
  }
  served.Stop();

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("scan_qps", NearBest(scan_qps, true), "queries/s");
  report->Metric("trie_qps", NearBest(trie_qps, true), "queries/s");
  report->Metric("qps", NearBest(qps, true), "requests/s");
  report->Metric("index_mb", Median(index_mb), "MiB");
  // Each phase B window's percentiles, then the best window's: a stall of
  // the machine in some windows does not set the run's tail.
  report->Metric("p50_ms", Best(p50, false), "ms");
  report->Metric("p99_ms", Best(p99, false), "ms");
  report->Detail("phase_b.p99_ms_pooled", Percentile(b_total.latency_ms, 0.99));
  report->Detail("phase_b.p99_ms_by_window", JoinNumbers(p99));
  report->Detail("phase_a.qps_by_window", JoinNumbers(qps));
  reloads.ReportTo(report);
  ReportPhase("phase_a", a_total, report);
  ReportPhase("phase_b", b_total, report);
  const double late_p50 = Percentile(b_total.late_ms, 0.5);
  report->Detail("phase_b.samples",
                 static_cast<double>(b_total.latency_ms.size()));
  report->Detail("gen.late_ms_p50", late_p50);
  report->Detail("gen.late_ms_p99", Percentile(b_total.late_ms, 0.99));
  report->Detail("offered_rate", spec.offered_rate);
  report->Detail("setup.samples", static_cast<double>(setup_s.size()));
  if (late_p50 > kMaxMedianLateMs) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the open-loop sender ran %.3f ms "
                 "behind its schedule at the median (limit %.1f ms)\n",
                 late_p50, kMaxMedianLateMs);
    return false;
  }
  return true;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeWorkloadInputs(const WorkloadSpec& spec, const RunOptions& options,
                          std::vector<std::string>* shard_paths,
                          std::vector<uint32_t>* id_bases) {
  const std::string tag = spec.name + "-" + std::to_string(options.seed) +
                          "-" + std::to_string(static_cast<long long>(getpid()));
  Inputs in = MakeInputs(spec.dna, spec.scale, spec.num_queries, options.seed,
                         options.work_dir, tag);
  const size_t n = in.dataset.size();
  for (size_t s = 0; s < kShards; ++s) {
    const size_t begin = n * s / kShards;
    const size_t end = n * (s + 1) / kShards;
    shard_paths->push_back(options.work_dir + "/" + tag + ".shard" +
                           std::to_string(s) + ".txt");
    id_bases->push_back(static_cast<uint32_t>(begin));
    WriteSlice(in.dataset, begin, end, shard_paths->back());
  }
  return in;
}

bool RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options,
                 const Inputs& inputs,
                 const std::vector<std::string>& shard_paths,
                 const std::vector<uint32_t>& id_bases, Report* report) {
  if (spec.offered_rate == 0) return RunDnaBatch(spec, options, inputs, report);
  return RunServed(spec, options, inputs, shard_paths, id_bases, report);
}

}  // namespace perfbench
