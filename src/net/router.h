#ifndef MACE_NET_ROUTER_H_
#define MACE_NET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "serve/qos.h"
#include "wire/frame.h"
#include "wire/messages.h"

namespace mace::net {

struct RouterOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral
  /// Backend addresses, "host:port". Placement is a consistent-hash ring
  /// over these strings, so the same list (in any order) yields the same
  /// tenant → backend map in every process.
  std::vector<std::string> backends;
  /// Virtual nodes per backend on the ring.
  size_t vnodes = 64;
  /// Requests in flight per backend before new ones are rejected
  /// (backpressure surfaces to the client as a rejected response, not as
  /// unbounded router memory).
  size_t max_inflight_per_backend = 8192;
  size_t max_connections = 4096;
  /// Unflushed bytes per peer. A backend past it rejects new requests as
  /// overloaded; a client past it stops being read until its backlog
  /// drains below half (a client that never reads throttles its own
  /// request stream instead of growing router memory).
  size_t write_buffer_limit = 4u << 20;
  /// Router-level per-tenant admission control (fleet-wide QoS sits here,
  /// in front of every backend). rate_per_tenant <= 0 disables.
  serve::QosConfig qos;
};

/// \brief MWIREv1 fan-in router: consistent-hashes tenants across N
/// backend scoring processes.
///
/// One EventLoop owns the listening socket, every client connection and
/// every backend connection, so all state is single-threaded. Score and
/// close requests are routed on the tenant prefix (PeekScoreRouting) and
/// the payload bytes are forwarded verbatim — the router never decodes
/// observations. Request ids are remapped (client ids collide across
/// connections) through a pending table and restored on the way back.
/// Backends are never read-paused: a backend past write_buffer_limit
/// unflushed bytes or max_inflight_per_backend rejects new requests as
/// overloaded instead.
///
/// Sessions are stateful, so a dead backend's tenants are NOT re-hashed:
/// in-flight requests get error responses and later requests are
/// rejected until the backend set is restored by a restart.
class Router final : private FrameHandler {
 public:
  static Result<std::unique_ptr<Router>> Start(RouterOptions options);

  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void Stop();

  uint16_t port() const { return port_; }
  uint64_t forwarded() const { return forwarded_.value(); }
  uint64_t rejected() const { return rejected_.value(); }
  uint64_t backend_errors() const { return backend_errors_.value(); }
  uint64_t protocol_errors() const { return loop_.protocol_errors(); }
  uint64_t read_pauses() const { return loop_.read_pauses(); }
  /// send() calls that moved bytes, to clients and backends together.
  uint64_t socket_writes() const { return loop_.socket_writes(); }

  /// The ring's backend index for a tenant — the same ring and lookup
  /// the router routes with, exposed so tests can assert placement
  /// without a live router.
  static size_t RingPick(const std::vector<std::string>& backends,
                         size_t vnodes, const std::string& tenant);

 private:
  /// (hash, backend index), sorted by hash.
  using Ring = std::vector<std::pair<uint64_t, size_t>>;
  static Ring BuildRing(const std::vector<std::string>& backends,
                        size_t vnodes);
  static size_t Pick(const Ring& ring, const std::string& tenant);

  struct Backend final : FrameHandler {
    Backend(Router* router, size_t index, std::string address)
        : router(router), index(index), address(std::move(address)) {}
    bool OnFrame(FramedConn&, wire::OwnedFrame frame) override {
      return router->HandleBackendFrame(index, std::move(frame));
    }
    void OnClose(FramedConn&, const std::string& reason) override {
      router->FailBackend(index, "backend " + reason);
    }
    bool alive() const { return !conn->closed(); }

    Router* const router;
    const size_t index;
    const std::string address;
    std::shared_ptr<FramedConn> conn;
    size_t inflight = 0;
  };

  struct Pending {
    uint64_t client_conn_id = 0;
    uint64_t client_request_id = 0;
    size_t backend = 0;
    /// Frame type of the reply (score or close response), also for the
    /// error reply when the backend fails.
    wire::FrameType response_type = wire::FrameType::kScoreResponse;
  };

  explicit Router(RouterOptions options);

  Status Init();
  /// Client frames.
  bool OnFrame(FramedConn& client, wire::OwnedFrame frame) override;
  void ForwardOrReject(FramedConn& client, const wire::OwnedFrame& frame,
                       const std::string& tenant, uint8_t priority);
  bool HandleBackendFrame(size_t backend_index, wire::OwnedFrame frame);
  /// Fails every pending request on `backend_index` (the loop already
  /// closed its connection).
  void FailBackend(size_t backend_index, const std::string& reason);
  void SendRejection(FramedConn& client, wire::FrameType type,
                     uint64_t request_id, const std::string& message);
  std::string StatsLine() const;

  const RouterOptions options_;
  serve::QosController qos_;
  uint16_t port_ = 0;

  std::vector<std::unique_ptr<Backend>> backends_;
  Ring ring_;
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_router_id_ = 1;

  InstanceCounter forwarded_;
  InstanceCounter rejected_;
  InstanceCounter backend_errors_;
  obs::Gauge* const inflight_gauge_;

  EventLoop loop_;
};

}  // namespace mace::net

#endif  // MACE_NET_ROUTER_H_
