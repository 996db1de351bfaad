#include "stacks.h"

#include "server/client.h"

namespace perfbench {

namespace ss = sss::server;

// sss_router's defaults: router dispatch blocks on shard sockets, so its
// front-end runs far more workers than a CPU-bound search server.
constexpr size_t kRouterFrontendWorkers = 32;

sss::Status ServeStack::Start(const std::string& path,
                              sss::AlphabetKind alphabet,
                              std::vector<sss::EngineSpec> specs) {
  sss::EngineHostOptions host_options;
  host_options.alphabet = alphabet;
  host_options.stats = &sink_;
  host_ = std::make_unique<sss::EngineHost>(std::move(specs), host_options);
  sss::Status st = host_->LoadFile(path);
  if (!st.ok()) return st;
  ss::ServerOptions options;
  options.stats = &sink_;
  server_ = std::make_unique<ss::Server>(options);
  st = server_->RegisterHost(host_.get());
  return st.ok() ? server_->Start() : st;
}

void ServeStack::Stop() {
  if (server_ != nullptr) server_->Stop();
}

sss::Status RouterStack::Start(const std::vector<std::string>& shard_paths,
                               const std::vector<uint32_t>& id_bases,
                               sss::AlphabetKind alphabet) {
  std::vector<ss::ShardSpec> specs;
  for (size_t s = 0; s < shard_paths.size(); ++s) {
    auto shard = std::make_unique<ServeStack>();
    sss::Status st = shard->Start(
        shard_paths[s], alphabet,
        {sss::EngineSpec::For(sss::EngineKind::kSequentialScan)});
    if (!st.ok()) return st;
    specs.push_back(ss::ShardSpec{"127.0.0.1", shard->port(), id_bases[s]});
    shards_.push_back(std::move(shard));
  }
  ss::RouterOptions router_options;
  router_options.stats = &sink_;
  router_ = std::make_unique<ss::Router>(ss::ShardSet(std::move(specs)),
                                         router_options);
  ss::ServerOptions options;
  options.worker_threads = kRouterFrontendWorkers;
  options.stats = &sink_;
  frontend_ = std::make_unique<ss::Server>(options);
  sss::Status st = frontend_->RegisterHandler(
      [router = router_.get()](const ss::Request& request) {
        return router->Dispatch(request);
      });
  return st.ok() ? frontend_->Start() : st;
}

void RouterStack::Stop() {
  if (frontend_ != nullptr) frontend_->Stop();
  for (auto& shard : shards_) shard->Stop();
}

size_t IndexBytes(const sss::EngineHost& host) {
  const sss::EngineSetHandle set = host.Acquire();
  size_t bytes = 0;
  if (set == nullptr) return 0;
  for (const auto& engine : set->engines) bytes += engine->memory_bytes();
  return bytes;
}

sss::Status CallOnce(uint16_t port, const sss::Query& query,
                     std::vector<uint32_t>* matches) {
  auto client = ss::Client::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  ss::Response response;
  sss::Status st = client->Search(
      query.text, static_cast<uint32_t>(query.max_distance), 0, &response);
  if (!st.ok()) return st;
  if (response.code != sss::StatusCode::kOk || response.degraded) {
    return sss::Status::IOError("first query not answered in full");
  }
  *matches = std::move(response.matches);
  return sss::Status::OK();
}

}  // namespace perfbench
