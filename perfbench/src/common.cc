#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "core/searcher.h"
#include "gen/query_generator.h"
#include "gen/workload.h"
#include "io/reader.h"
#include "io/writer.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Best(const std::vector<double>& samples, bool higher_is_better) {
  if (samples.empty()) return 0;
  return higher_is_better ? *std::max_element(samples.begin(), samples.end())
                          : *std::min_element(samples.begin(), samples.end());
}

double NearBest(const std::vector<double>& samples, bool higher_is_better) {
  return Percentile(samples, higher_is_better ? 0.9 : 0.1);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

size_t LoadThreads() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, 4);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JoinObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, "{\"value\": " + JsonNumber(value) +
                                  ", \"unit\": " + JsonString(unit) + "}");
}

void Report::Detail(const std::string& key, double value) {
  details_.emplace_back(key, JsonNumber(value));
}

void Report::Detail(const std::string& key, const std::string& value) {
  details_.emplace_back(key, JsonString(value));
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Wrong(const std::string& what) {
  if (wrong_++ < 5) std::fprintf(stderr, "perfbench: wrong answer: %s\n",
                                 what.c_str());
}

void Report::Print() const {
  auto details = details_;
  details.emplace_back("wrong_answers", std::to_string(wrong_));
  std::printf("{\"detail\": %s}\n", JoinObject(details).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), JoinObject(metrics_).c_str());
  std::fflush(stdout);
}

namespace {

sss::SearchResults ReferenceAnswers(const sss::Dataset& dataset,
                                    const sss::QuerySet& queries) {
  auto scan = std::move(sss::MakeSearcher(sss::EngineKind::kSequentialScan,
                                          dataset))
                  .ValueOrDie();
  sss::ExecutionOptions exec;
  exec.strategy = sss::ExecutionStrategy::kFixedPool;
  exec.num_threads = LoadThreads();
  return scan->SearchBatch(queries, exec);
}

}  // namespace

Inputs MakeInputs(bool dna, double scale, size_t num_queries, uint64_t seed,
                  const std::string& work_dir, const std::string& tag) {
  const auto kind =
      dna ? sss::gen::WorkloadKind::kDnaReads : sss::gen::WorkloadKind::kCityNames;
  Inputs in;
  in.alphabet = dna ? sss::AlphabetKind::kDna : sss::AlphabetKind::kGeneric;
  in.path = work_dir + "/" + tag + ".txt";
  {
    const sss::gen::Workload generated =
        sss::gen::MakeWorkload(kind, scale, seed);
    sss::WriteDatasetFile(in.path, generated.dataset).AbortIfNotOK();
  }
  // The engines see the file, so the reference answers are computed over
  // exactly what the file reads back as.
  in.dataset = std::move(sss::ReadDatasetFile(in.path, tag, in.alphabet))
                   .ValueOrDie();

  sss::gen::QueryGeneratorOptions options;
  options.num_queries = num_queries;
  options.thresholds = sss::gen::ThresholdsFor(kind);
  const sss::QuerySet drawn = sss::gen::MakeQuerySet(
      in.dataset, options, seed ^ 0x9E3779B97F4A7C15ull);
  std::unordered_set<std::string> seen;
  for (const sss::Query& q : drawn) {
    if (seen.insert(std::to_string(q.max_distance) + "\t" + q.text).second) {
      in.queries.push_back(q);
    }
  }
  in.reference = ReferenceAnswers(in.dataset, in.queries);
  return in;
}

void WriteSlice(const sss::Dataset& dataset, size_t begin, size_t end,
                const std::string& path) {
  sss::Dataset slice("slice", dataset.alphabet());
  for (size_t i = begin; i < end; ++i) slice.Add(dataset.View(i));
  sss::WriteDatasetFile(path, slice).AbortIfNotOK();
}

int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

uint32_t SpanLog::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  const int64_t now = Clock::now().time_since_epoch().count();
  spans_.push_back(Span{name, parent, now, now});
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = Clock::now().time_since_epoch().count();
}

void SpanLog::Append(const SpanLog& other) {
  const auto offset = static_cast<uint32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent != 0) span.parent += offset;
    spans_.push_back(span);
  }
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i + 1, s.parent, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
