// Load generation over loopback: one connection per load thread, written
// against the public wire protocol (server/protocol.h). Unlike
// server::Client, a WireConn sends and receives from one thread without
// blocking on either, which is what an open-loop sender needs: requests go
// out on their schedule whether or not earlier answers have arrived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/protocol.h"
#include "util/net.h"

namespace perfbench {

class WireConn {
 public:
  sss::Status Connect(uint16_t port);
  /// \brief Writes one request frame (blocking until the kernel took it).
  sss::Status Send(const sss::server::Request& request);
  /// \brief Waits until `until` for response bytes, then decodes every
  /// complete frame received so far into `out`. A closed or broken
  /// connection returns a non-OK status.
  sss::Status Poll(Clock::time_point until,
                   std::vector<sss::server::Response>* out);

 private:
  sss::net::Socket socket_;
  std::string out_;
  std::string in_;
  size_t in_off_ = 0;
};

/// \brief How one driven phase went, from the client side. Every request
/// is either answered (ok + wrong + not_ok + shed + degraded) or lost to
/// the transport.
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;         // kOk, complete, and equal to the reference
  uint64_t wrong = 0;      // kOk but ids differ from the reference
  uint64_t not_ok = 0;     // any other server-side status except shedding
  uint64_t shed = 0;       // kUnavailable
  uint64_t degraded = 0;   // kOk flagged partial (router)
  uint64_t transport = 0;  // sent but never answered
  double elapsed_s = 0;    // first send to last answer
  std::vector<double> latency_ms;  // per answered request
  std::vector<double> late_ms;     // open loop: send time minus due time

  uint64_t failed() const { return wrong + not_ok + shed + degraded + transport; }
  void Merge(const PhaseStats& other);
};

/// \brief Which corpus ids each query must return, and the order queries
/// are drawn in: a shuffled pass over all distinct queries, then another.
struct QueryFeed {
  const sss::QuerySet* queries = nullptr;
  const sss::SearchResults* reference = nullptr;
  std::vector<uint32_t> order;
  /// \brief The i-th query drawn (wraps around the shuffled order).
  uint32_t At(uint64_t i) const {
    return order[static_cast<size_t>(i % order.size())];
  }
};
QueryFeed MakeFeed(const Inputs& inputs, uint64_t seed);

/// \brief Closed loop: `connections` threads, each keeping `depth` requests
/// in flight on its own connection, for `seconds`, drawing queries from
/// draw `first_draw` on.
PhaseStats RunClosedLoop(uint16_t port, const QueryFeed& feed,
                         size_t connections, size_t depth, double seconds,
                         uint64_t first_draw, SpanLog* spans);

/// \brief Open loop: one connection, sent from the calling thread, offering
/// `rate` requests/s on a fixed schedule for `seconds`, each request timed
/// from its due time. One sender keeps up with the offered rates easily and
/// leaves the machine's other cores to the server. At most 48 requests are
/// in flight (below the server's admission watermark); due requests past
/// that wait, and their wait counts as latency and as sender lateness.
/// Waits for every answer before returning.
PhaseStats RunOpenLoop(uint16_t port, const QueryFeed& feed, double rate,
                       double seconds, uint64_t first_draw, SpanLog* spans);

}  // namespace perfbench
