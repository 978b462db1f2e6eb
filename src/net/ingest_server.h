// Blocking-socket network ingest front-end for the Collector.
//
// The paper's deployment model is millions of users each sending one
// perturbed report to an aggregator; this server is that aggregator's
// listening edge. Each accepted TCP connection carries one session stream
// of collection frames (protocols/wire.h) which a dedicated reader thread
// routes through Collector::IngestFrames into the wire path, where each
// frame's payload is copied once at routing and then absorbed in place —
// one socket can interleave every registered collection.
//
// Design points:
//
//   * Blocking sockets, one reader thread per connection. The scaling
//     unit is the collector's shard worker pool, not the connection
//     count: readers only move bytes and route frames; all protocol work
//     happens on shard workers.
//   * Backpressure, not buffering. A reader ingests the whole frames its
//     receive buffer holds before reading more, so when the collector is
//     saturated the reader stops consuming the socket and the kernel's
//     TCP flow control pushes back on the client. With a shared
//     IngestBudget configured, readers additionally gate on budget
//     headroom with stop-aware timed probes (IngestBudget::AcquireFor), so
//     a saturated collector never wedges server shutdown.
//   * Byte-precise failure. A mid-stream violation (unknown collection
//     id, malformed frame, oversized frame) stops the connection with an
//     error reply naming the exact stream offset of the first unconsumed
//     byte; frames before it stay ingested (the Collector's documented
//     partial-stream semantics, surfaced by IngestFramesResult).
//   * Resumable sessions. Every client names its stream with a session
//     token; the server remembers how many session-stream bytes it has
//     routed, tells a reconnecting client exactly where to resume (hello
//     record), and acks progress as it routes — exactly-once frame
//     delivery through connection churn (see net/protocol.h).
//   * One no-progress deadline. A connection that delivers no bytes, or
//     accepts none of a hello, ack or final reply, within idle_timeout
//     (10 s by default) is closed with a reset instead of holding a
//     reader thread and a connection-cap slot forever (half-open clients,
//     clients that stopped reading). Its session keeps the routed offset,
//     so a client that merely paused reconnects and resumes.
//   * Graceful stop. Stop() stops accepting, wakes and joins every
//     reader at a frame boundary, then runs Collector::Drain() — so a
//     server shutdown flushes every queued batch and (when the collector
//     has a checkpoint_path) writes the shutdown checkpoint. The
//     destructor calls Stop().
//
// The Collector must outlive the server. See docs/wire-format.md
// ("Network stream framing") for the connection protocol bytes and
// net::FrameClient for the matching client.

#ifndef LDPM_NET_INGEST_SERVER_H_
#define LDPM_NET_INGEST_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.h"
#include "engine/collector.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace ldpm {
namespace net {

/// Resume sessions one IngestServer remembers; creating one past the cap
/// evicts the least-recently-used inactive session (a client resuming an
/// evicted session restarts at offset 0 and fails its replay loudly).
inline constexpr size_t kMaxIngestSessions = 1024;

/// Tuning knobs for an IngestServer. The defaults run a loopback server
/// on an ephemeral port with generous frame and connection bounds.
struct IngestServerOptions {
  /// Numeric IPv4 address to bind.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  uint16_t port = 0;
  /// Live connection cap; connections beyond it are shed at accept with
  /// an error reply. 0 = unbounded.
  int max_connections = 64;
  /// A single collection frame larger than this rejects its connection
  /// (the bound on per-connection receive buffering).
  size_t max_frame_bytes = 64 * 1024 * 1024;
  /// Socket read size per recv call.
  size_t read_chunk_bytes = 64 * 1024;
  /// The no-progress deadline on every socket operation of a connection:
  /// one that delivers no bytes for this long, or does not accept the
  /// server's hello, ack or final reply within it, is reaped — closed
  /// with a reset and no reply record, so half-open, stalled or
  /// non-reading clients cannot hold reader threads and connection-cap
  /// slots forever. Applies to the preamble/handshake reads too. The
  /// session keeps its routed offset, so a client that only paused
  /// reconnects and resumes on its next send. Must be > 0.
  std::chrono::milliseconds idle_timeout{10000};
};

/// Monotonic counters describing everything the server has done so far.
/// A point-in-time view over the server's registry counters (the same
/// series /stats serves).
struct IngestServerStats {
  uint64_t connections_accepted = 0;
  /// Connections rejected at accept (connection cap).
  uint64_t connections_shed = 0;
  /// Whole collection frames routed into the collector.
  uint64_t frames_routed = 0;
  /// Wire batches handed to engines (empty-payload frames route without
  /// enqueueing work).
  uint64_t batches_enqueued = 0;
  /// Bytes of routed frames (excluding preambles and partial tails).
  uint64_t bytes_routed = 0;
  /// Connections reaped by the no-progress deadline (idle_timeout).
  uint64_t connections_reaped = 0;
  /// Sessions re-attached by a reconnecting client.
  uint64_t sessions_resumed = 0;
  /// Ack records written to clients.
  uint64_t acks_sent = 0;
};

/// The listening front-end (see the file comment).
class IngestServer {
 public:
  /// Binds, listens, and starts the accept thread. The collector must
  /// outlive the returned server.
  static StatusOr<std::unique_ptr<IngestServer>> Start(
      engine::Collector* collector,
      const IngestServerOptions& options = IngestServerOptions());

  /// Stop(), ignoring its Status (call Stop() first when it matters).
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Graceful stop: stop accepting, wake and join every connection
  /// reader, then Drain() the collector. Idempotent; every
  /// call returns the first stop's drain Status. Safe to call while
  /// clients are mid-stream: their connections end with a server-stopping
  /// error reply (best effort — a client still blasting may observe the
  /// closing reset before reading it) and everything already routed
  /// stays ingested.
  Status Stop() LDPM_EXCLUDES(stop_mu_, connections_mu_);

  /// True once Stop() has begun (readers observe this between blocking
  /// operations).
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  IngestServerStats stats() const;

  /// Connections currently being served (accepted, not yet finished).
  size_t active_connections() const;

 private:
  struct Connection {
    explicit Connection(Socket s) : socket(std::move(s)) {}
    Socket socket;
    std::thread reader;
    std::atomic<bool> finished{false};
  };

  /// A reader's verdict on its stream: OK for a clean end-of-stream, or
  /// the error to report, anchored at the session offset of the first
  /// unconsumed frame byte — plus what the session routed, for the reply
  /// record.
  struct StreamOutcome {
    Status status;
    uint64_t stream_offset = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;
  };

  /// One resume session: how far into the session's logical frame
  /// stream the server had routed when its last connection released it.
  /// Lives in server memory — it survives connection churn (its purpose),
  /// not server restarts.
  struct Session {
    uint64_t routed_bytes = 0;
    uint64_t routed_frames = 0;
    /// A connection currently owns this session; its socket (valid while
    /// the owning reader runs) lets a superseding reconnect wake it.
    bool active = false;
    Socket* owner = nullptr;
    uint64_t last_used = 0;  // logical tick for LRU eviction
  };

  IngestServer(engine::Collector* collector,
               const IngestServerOptions& options);

  void AcceptLoop();
  void ServeConnection(Connection& connection)
      LDPM_EXCLUDES(connections_mu_);
  StreamOutcome ServeStream(Socket& socket);
  /// Routes the session's frames, counting on from `start`'s routed
  /// frames and bytes.
  StreamOutcome ServeStreamBody(Socket& socket, StreamOutcome start);
  /// Claims the session for `socket`, waking and waiting out a half-open
  /// previous owner. On success `start` holds the session's routed frames
  /// and bytes — where this connection's stream starts.
  Status AcquireSession(uint64_t token, Socket& socket, StreamOutcome* start)
      LDPM_EXCLUDES(sessions_mu_);
  /// Frees the session, publishing the owning reader's routing progress
  /// (session-absolute) — the exactly-once line a reconnect resumes from.
  /// Publishing at release is soon enough: a reconnect reads the progress
  /// only once AcquireSession has seen this release.
  void ReleaseSession(uint64_t token, uint64_t routed_bytes,
                      uint64_t routed_frames) LDPM_EXCLUDES(sessions_mu_);
  /// Waits (stop-aware) until the collector's shared budget shows
  /// headroom; non-OK on stop.
  Status GateOnBudget();
  /// Writes the final ok/error record under the idle deadline.
  Status SendReply(Socket& socket, const StreamOutcome& outcome);
  /// Joins and drops connections whose readers have finished (called from
  /// the accept thread so a long-lived server does not accumulate them).
  void ReapFinishedLocked() LDPM_REQUIRES(connections_mu_);

  engine::Collector* const collector_;
  const IngestServerOptions options_;
  Socket listener_;
  uint16_t port_ = 0;
  /// True once Start fully succeeded; a half-constructed server's Stop()
  /// must not Drain() the collector.
  bool started_ = false;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  mutable core::Mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      LDPM_GUARDED_BY(connections_mu_);

  core::Mutex sessions_mu_;
  core::CondVar sessions_cv_;  // signaled on session release
  std::map<uint64_t, Session> sessions_ LDPM_GUARDED_BY(sessions_mu_);
  uint64_t session_tick_ LDPM_GUARDED_BY(sessions_mu_) = 0;

  core::Mutex stop_mu_;  // serializes Stop(); guards stopped_/stop_status_
  bool stopped_ LDPM_GUARDED_BY(stop_mu_) = false;
  Status stop_status_ LDPM_GUARDED_BY(stop_mu_);

  /// Server metrics, in the collector's registry. The IngestServerStats
  /// accessors read the same counters, so the admin endpoint and the
  /// in-process view always agree.
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_shed_ = nullptr;
  obs::Counter* frames_routed_ = nullptr;
  obs::Counter* batches_enqueued_ = nullptr;
  obs::Counter* bytes_routed_ = nullptr;
  obs::Counter* connections_reaped_ = nullptr;
  obs::Counter* sessions_resumed_ = nullptr;
  obs::Counter* acks_sent_ = nullptr;
  obs::Gauge* connections_active_ = nullptr;
  obs::Histogram* route_latency_ = nullptr;
  obs::Histogram* drain_duration_ = nullptr;
};

}  // namespace net
}  // namespace ldpm

#endif  // LDPM_NET_INGEST_SERVER_H_
