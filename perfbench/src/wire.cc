#include "wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "util/random.h"

namespace perfbench {

namespace ss = sss::server;

// A request that never gets a usable answer misses every latency limit.
constexpr double kFailedLatencyMs = 1e6;
// How long a phase waits past its end for outstanding answers.
constexpr auto kDrainGrace = std::chrono::seconds(10);
// Open loop: requests one connection keeps in flight at most, below the
// server's default admission watermark (ServerOptions::max_inflight, 64).
// A stall of the machine longer than the watermark's worth of schedule
// would otherwise shed the backlog; capped, the sender holds the due
// requests back and sends them once answers return, each still timed from
// its due time, so the stall shows in latency and lateness instead.
constexpr size_t kOpenLoopMaxInFlight = 48;

sss::Status WireConn::Connect(uint16_t port) {
  auto socket = sss::net::ConnectTcp("127.0.0.1", port);
  if (!socket.ok()) return socket.status();
  socket_ = std::move(*socket);
  return sss::net::SetNoDelay(socket_.fd());
}

sss::Status WireConn::Send(const ss::Request& request) {
  out_.clear();
  ss::EncodeRequest(request, &out_);
  return sss::net::WriteFull(socket_.fd(), out_.data(), out_.size());
}

sss::Status WireConn::Poll(Clock::time_point until,
                           std::vector<ss::Response>* out) {
  const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  pollfd pfd{socket_.fd(), POLLIN, 0};
  const int ready = ppoll(&pfd, 1, &ts, nullptr);
  if (ready < 0 && errno != EINTR) return sss::Status::IOError("ppoll failed");
  bool closed = false;
  if (ready > 0) {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = recv(socket_.fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
      break;
    }
  }
  const ss::ProtocolLimits limits;
  while (in_.size() - in_off_ >= ss::kResponseHeaderBytes) {
    const auto* header = reinterpret_cast<const uint8_t*>(in_.data() + in_off_);
    ss::Response response;
    uint32_t payload_len = 0;
    sss::Status st =
        ss::DecodeResponseHeader(header, limits, &response, &payload_len);
    if (!st.ok()) return st;
    if (in_.size() - in_off_ < ss::kResponseHeaderBytes + payload_len) break;
    st = ss::DecodeResponsePayload(
        std::string_view(in_.data() + in_off_ + ss::kResponseHeaderBytes,
                         payload_len),
        &response);
    if (!st.ok()) return st;
    out->push_back(std::move(response));
    in_off_ += ss::kResponseHeaderBytes + payload_len;
  }
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  }
  return closed ? sss::Status::IOError("connection closed") : sss::Status::OK();
}

void PhaseStats::Merge(const PhaseStats& other) {
  sent += other.sent;
  ok += other.ok;
  wrong += other.wrong;
  not_ok += other.not_ok;
  shed += other.shed;
  degraded += other.degraded;
  transport += other.transport;
  elapsed_s = std::max(elapsed_s, other.elapsed_s);
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
}

QueryFeed MakeFeed(const Inputs& inputs, uint64_t seed) {
  QueryFeed feed;
  feed.queries = &inputs.queries;
  feed.reference = &inputs.reference;
  feed.order.resize(inputs.queries.size());
  std::iota(feed.order.begin(), feed.order.end(), 0u);
  sss::Xoshiro256 rng(seed);
  for (size_t i = feed.order.size(); i > 1; --i) {
    std::swap(feed.order[i - 1], feed.order[rng.Uniform(i)]);
  }
  return feed;
}

namespace {

struct Pending {
  uint32_t query = 0;
  Clock::time_point due;
  uint32_t span = 0;
};

// Scores one answer against the reference and records its latency.
void Score(const ss::Response& response, const QueryFeed& feed,
           const Pending& pending, Clock::time_point now, PhaseStats* stats) {
  bool usable = false;
  if (response.code == sss::StatusCode::kUnavailable) {
    ++stats->shed;
  } else if (response.code != sss::StatusCode::kOk) {
    ++stats->not_ok;
  } else if (response.degraded) {
    ++stats->degraded;
  } else if (response.matches != (*feed.reference)[pending.query]) {
    ++stats->wrong;
  } else {
    ++stats->ok;
    usable = true;
  }
  stats->latency_ms.push_back(usable ? Seconds(now - pending.due) * 1e3
                                     : kFailedLatencyMs);
}

ss::Request MakeRequest(const QueryFeed& feed, uint32_t query, uint64_t id) {
  ss::Request request;
  request.request_id = id;
  request.k = static_cast<uint32_t>((*feed.queries)[query].max_distance);
  request.query = (*feed.queries)[query].text;
  return request;
}

// Reads answers until `until`, scoring each; `on_answer` runs after each.
// Returns false once the connection is unusable.
template <typename OnAnswer>
bool Collect(WireConn* conn, Clock::time_point until, const QueryFeed& feed,
             std::unordered_map<uint64_t, Pending>* pending, SpanLog* spans,
             Clock::time_point* last_answer, PhaseStats* stats,
             OnAnswer on_answer) {
  std::vector<ss::Response> answers;
  const sss::Status st = conn->Poll(until, &answers);
  const Clock::time_point now = Clock::now();
  for (const ss::Response& response : answers) {
    auto it = pending->find(response.request_id);
    if (it == pending->end()) continue;
    Score(response, feed, it->second, now, stats);
    spans->End(it->second.span);
    pending->erase(it);
    *last_answer = now;
    on_answer();
  }
  return st.ok();
}

void Unanswered(const std::unordered_map<uint64_t, Pending>& pending,
                PhaseStats* stats) {
  stats->transport += pending.size();
  stats->latency_ms.insert(stats->latency_ms.end(), pending.size(),
                           kFailedLatencyMs);
}

template <typename Body>
PhaseStats RunThreads(size_t connections, SpanLog* spans, Body body) {
  std::vector<PhaseStats> per(connections);
  std::vector<SpanLog> logs(connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    logs[c].set_enabled(spans->enabled());
    threads.emplace_back([&, c] { body(c, &logs[c], &per[c]); });
  }
  for (std::thread& t : threads) t.join();
  PhaseStats total;
  for (size_t c = 0; c < connections; ++c) {
    total.Merge(per[c]);
    spans->Append(logs[c]);
  }
  return total;
}

}  // namespace

PhaseStats RunClosedLoop(uint16_t port, const QueryFeed& feed,
                         size_t connections, size_t depth, double seconds,
                         uint64_t first_draw, SpanLog* spans) {
  std::atomic<uint64_t> cursor{first_draw};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  return RunThreads(connections, spans, [&](size_t, SpanLog* log,
                                            PhaseStats* stats) {
    WireConn conn;
    if (!conn.Connect(port).ok()) return;
    std::unordered_map<uint64_t, Pending> pending;
    uint64_t next_id = 1;
    Clock::time_point last_answer = start;
    bool healthy = true;
    auto send_one = [&] {
      const uint32_t q = feed.At(cursor.fetch_add(1));
      const uint64_t id = next_id++;
      Pending p{q, Clock::now(), log->Begin("wire.request")};
      if (!conn.Send(MakeRequest(feed, q, id)).ok()) {
        healthy = false;
        return;
      }
      ++stats->sent;
      pending.emplace(id, p);
    };
    for (size_t d = 0; d < depth && healthy; ++d) send_one();
    while (healthy && !pending.empty() && Clock::now() < end + kDrainGrace) {
      healthy = Collect(&conn, Clock::now() + std::chrono::milliseconds(50),
                        feed, &pending, log, &last_answer, stats, [&] {
                          if (healthy && Clock::now() < end) send_one();
                        });
    }
    Unanswered(pending, stats);
    stats->elapsed_s = Seconds(last_answer - start);
  });
}

PhaseStats RunOpenLoop(uint16_t port, const QueryFeed& feed, double rate,
                       double seconds, uint64_t first_draw, SpanLog* spans) {
  PhaseStats stats;
  WireConn conn;
  if (!conn.Connect(port).ok()) return stats;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1 / rate));
  std::unordered_map<uint64_t, Pending> pending;
  Clock::time_point due = start;
  uint64_t draw = first_draw;
  uint64_t next_id = 1;
  Clock::time_point last_answer = start;
  bool healthy = true;
  while (healthy) {
    Clock::time_point now = Clock::now();
    while (healthy && due <= now && due < end &&
           pending.size() < kOpenLoopMaxInFlight) {
      const uint32_t q = feed.At(draw++);
      const uint64_t id = next_id++;
      Pending p{q, due, spans->Begin("wire.request")};
      now = Clock::now();
      stats.late_ms.push_back(Seconds(now - due) * 1e3);
      healthy = conn.Send(MakeRequest(feed, q, id)).ok();
      if (healthy) {
        ++stats.sent;
        pending.emplace(id, p);
      }
      due += interval;
    }
    const bool schedule_done = due >= end;
    if (schedule_done && pending.empty()) break;
    if (now > end + kDrainGrace) break;
    const bool capped = pending.size() >= kOpenLoopMaxInFlight;
    const Clock::time_point wake = schedule_done || capped
                                       ? now + std::chrono::milliseconds(50)
                                       : due;
    healthy = Collect(&conn, wake, feed, &pending, spans, &last_answer, &stats,
                      [] {});
  }
  Unanswered(pending, &stats);
  stats.elapsed_s = Seconds(last_answer - start);
  return stats;
}

}  // namespace perfbench
