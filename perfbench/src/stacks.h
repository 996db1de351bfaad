// The serving stacks the benchmark drives, wired the way the shipped tools
// wire them: an EngineHost behind a default-options server::Server (as
// sss_server does), and shard servers behind a Router fronted by a Server
// through RegisterHandler (as sss_router does). All in this process, on
// ephemeral loopback ports.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/engine_host.h"
#include "server/router.h"
#include "server/server.h"
#include "util/search_stats.h"

namespace perfbench {

class ServeStack {
 public:
  /// \brief Loads `path` into a host building `specs`, then serves it.
  sss::Status Start(const std::string& path, sss::AlphabetKind alphabet,
                    std::vector<sss::EngineSpec> specs);
  void Stop();

  uint16_t port() const { return server_->port(); }
  sss::EngineHost& host() { return *host_; }
  const sss::server::Server& server() const { return *server_; }
  const sss::StatsSink& sink() const { return sink_; }

 private:
  sss::StatsSink sink_;
  std::unique_ptr<sss::EngineHost> host_;
  std::unique_ptr<sss::server::Server> server_;
};

class RouterStack {
 public:
  /// \brief Serves each shard file from its own ServeStack (scan engine),
  /// then starts the router over them and the front-end server.
  sss::Status Start(const std::vector<std::string>& shard_paths,
                    const std::vector<uint32_t>& id_bases,
                    sss::AlphabetKind alphabet);
  void Stop();

  uint16_t port() const { return frontend_->port(); }
  sss::server::Router& router() { return *router_; }
  const sss::server::Server& frontend() const { return *frontend_; }
  std::vector<std::unique_ptr<ServeStack>>& shards() { return shards_; }
  const sss::StatsSink& sink() const { return sink_; }

 private:
  std::vector<std::unique_ptr<ServeStack>> shards_;
  sss::StatsSink sink_;
  std::unique_ptr<sss::server::Router> router_;
  std::unique_ptr<sss::server::Server> frontend_;
};

/// \brief Auxiliary engine bytes of the host's current generation.
size_t IndexBytes(const sss::EngineHost& host);

/// \brief One depth-1 search over a fresh connection; kOk answers only.
sss::Status CallOnce(uint16_t port, const sss::Query& query,
                     std::vector<uint32_t>* matches);

}  // namespace perfbench
