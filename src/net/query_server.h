// The read-side HTTP endpoint: consistent marginals, the fitted tree
// model, and the collector's metrics, served from query::MarginalCache
// snapshots and the collector's registry.
//
// A thin routing layer over net::HttpServer, answering:
//
//   GET /v1/marginal?collection=<id>&attrs=<i,j,...>
//       -> 200 application/json: the consistency-post-processed marginal
//          over the named attributes, with the snapshot's watermark and
//          epoch. Cells are compact-index order (cell index c packs the
//          selected attributes, lowest attribute = bit 0), rendered with
//          17 significant digits so the JSON round-trips the doubles.
//   GET /v1/model?collection=<id>
//       -> 200 application/json: the Chow-Liu tree fitted over the
//          collection's cached 2-way marginals — edges with mutual
//          information, total MI, and every node's CPT.
//   GET /v1/collections
//       -> 200 application/json: the registered collections and their
//          cache parameters.
//   GET /metrics (alias /stats)
//       -> 200 text/plain: the collector registry's Prometheus text
//          exposition — every layer (engine, collector, net, query)
//          publishes into it. Every read it performs is a relaxed atomic
//          load, so a scrape never blocks a shard worker or a reader.
//   GET /healthz -> 200 "ok".
//
// Error surface is byte-precise and tested (tests/net/query_server_test):
// missing/malformed parameters are 400 with a body naming the parameter
// and the offending token; an unknown collection or path is 404; non-GET
// is 405 (from the shared plumbing).
//
// One MarginalCache per collection, created lazily on first touch, so
// collections registered after Start() are served too. Every request
// checks the id against the collector's registry: the cache of an
// unregistered collection is dropped (404), and an id registered again
// gets a cache over its new engine. Reads that hit a live snapshot never
// merge shards or take the refresh lock — the endpoint's throughput is
// the cache-hit rate (bench/query_serve.cc).
//
// The collector must outlive the server.

#ifndef LDPM_NET_QUERY_SERVER_H_
#define LDPM_NET_QUERY_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/status.h"
#include "core/sync.h"
#include "engine/collector.h"
#include "net/http_server.h"
#include "query/marginal_cache.h"

namespace ldpm {
namespace net {

struct QueryServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// No-progress deadline per connection (HttpServerOptions::idle_timeout:
  /// 408 mid-head, close when idle, reset when not reading). Must be > 0.
  std::chrono::milliseconds idle_timeout{10000};
};

/// The query endpoint (see the file comment). Start() binds and serves
/// until Stop()/destruction.
class QueryServer {
 public:
  static StatusOr<std::unique_ptr<QueryServer>> Start(
      engine::Collector* collector,
      const QueryServerOptions& options = QueryServerOptions());

  ~QueryServer() = default;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return http_->port(); }

  /// Stops accepting, wakes any in-flight request read, joins. Idempotent.
  void Stop() { http_->Stop(); }

  /// Requests answered so far (any status). Also published as
  /// ldpm_query_http_requests_total, next to the open-connection gauge
  /// ldpm_query_http_connections and ldpm_query_http_connections_shed_total.
  uint64_t requests_served() const { return http_->requests_served(); }

  /// The cache serving the collection registered under `collection` now
  /// (created on its first touch, or again after the id was registered
  /// anew) — the library-side view of exactly what HTTP answers serve, for
  /// smoke tests that diff the two. NotFound once the id is unregistered.
  /// The pointer stays valid until a later call or request finds the id
  /// unregistered or registered anew.
  StatusOr<query::MarginalCache*> CacheFor(const std::string& collection);

 private:
  explicit QueryServer(engine::Collector* collector);

  /// CacheFor with shared ownership, so a request keeps its cache alive
  /// while another caller drops it.
  StatusOr<std::shared_ptr<query::MarginalCache>> Cache(
      const std::string& collection);

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleMarginal(const HttpRequest& request);
  HttpResponse HandleModel(const HttpRequest& request);
  HttpResponse HandleCollections();

  engine::Collector* const collector_;

  core::Mutex caches_mu_;
  std::map<std::string, std::shared_ptr<query::MarginalCache>> caches_
      LDPM_GUARDED_BY(caches_mu_);

  std::unique_ptr<HttpServer> http_;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_QUERY_SERVER_H_
