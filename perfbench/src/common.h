// Shared pieces of the repository benchmark: clocks and order statistics,
// the result report a run prints, generated inputs with their exact
// reference answers, and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double SecondsSince(Clock::time_point t) {
  return Seconds(Clock::now() - t);
}

/// \brief Median of `values` (mean of the two middle values when even);
/// 0 for an empty list.
double Median(std::vector<double> values);

/// \brief Nearest-rank percentile, `q` in [0, 1]; 0 for an empty list.
double Percentile(std::vector<double> values, double q);

/// \brief A run's figure for a metric sampled once per cycle (or more):
/// the best sample — the highest rate, the lowest time or latency.
/// Interference from other work on a shared machine only ever slows a
/// cycle down, so the least disturbed cycle is the one that measures the
/// program; a slowdown of the program itself shows in every cycle.
double Best(const std::vector<double>& samples, bool higher_is_better);

/// \brief The sample a tenth of the way from the best end (nearest rank;
/// the second best of 20, the tenth best of 100). Used for the rates and
/// times a run samples many times: a slice or window that drew easier
/// queries than most does not set the figure, while up to nine in ten
/// samples may still be disturbed. Phase B's latencies keep Best: a
/// disturbance of the machine moves a tail far more than a rate.
double NearBest(const std::vector<double>& samples, bool higher_is_better);

/// \brief num / den, or 0 when den is 0 (a share of nothing is nothing).
double Ratio(double num, double den);

/// \brief Worker threads and connections the benchmark drives with: the
/// machine's hardware threads, capped at 4 so every host runs the same
/// shape.
size_t LoadThreads();

/// \brief One run's command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for corpus files and the span log.
  std::string work_dir = ".";
};

/// \brief What one run prints: the metrics, the attempted/failed base, the
/// correctness verdict, and detail fields (rates with their bases, sample
/// counts, notes) on a line of their own before the result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::string& value);
  /// \brief Adds to the run's attempted/failed operation counts.
  void Count(uint64_t attempted, uint64_t failed);
  /// \brief Records a wrong answer; the run reports correct=false.
  void Wrong(const std::string& what);

  bool correct() const { return wrong_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// \brief Prints {"detail": {...}} and then the result line (always the
  /// last line of standard output).
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> details_;  // key, JSON
  std::vector<std::pair<std::string, std::string>> metrics_;  // name, JSON
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

/// \brief A workload's generated inputs: the corpus (as the engines read it
/// back from its file), distinct queries, and each query's exact answer
/// from the reference scan, computed untimed.
struct Inputs {
  sss::Dataset dataset;
  std::string path;  // the corpus file EngineHost::LoadFile reads
  sss::AlphabetKind alphabet = sss::AlphabetKind::kGeneric;
  sss::QuerySet queries;
  sss::SearchResults reference;
};

/// \brief Generates the corpus (Table I shape at `scale` of the paper's
/// size, from `seed`), writes it under `work_dir`, reads it back, draws
/// `num_queries` candidate queries on the Table I threshold ladder, drops
/// repeated (k, text) pairs, and computes the reference answers with the
/// default sequential scan (scalar per-pair kernel, a fixed pool of
/// LoadThreads() workers).
Inputs MakeInputs(bool dna, double scale, size_t num_queries, uint64_t seed,
                  const std::string& work_dir, const std::string& tag);

/// \brief Writes `dataset` ids [begin, end) to `path`, one per line.
void WriteSlice(const sss::Dataset& dataset, size_t begin, size_t end,
                const std::string& path);

/// \brief Thread count of this process, from /proc/self/status.
int ProcessThreads();

/// \brief Spans of the traced run, kept in memory and written out at the
/// end: one per call into a layer's public entry point, children pointing
/// at the rung that caused them.
class SpanLog {
 public:
  /// \brief Opens a span; returns its id (0 when logging is off).
  uint32_t Begin(const char* name, uint32_t parent = 0);
  void End(uint32_t id);
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }
  /// \brief Appends `other`'s spans (a load thread's own log), keeping
  /// their parent links.
  void Append(const SpanLog& other);
  /// \brief Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// \brief RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent = 0)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  uint32_t id() const { return id_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace perfbench
