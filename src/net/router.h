#ifndef MACE_NET_ROUTER_H_
#define MACE_NET_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
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
/// One epoll loop owns the listening socket, every client connection and
/// every backend connection, so all state is single-threaded. Score and
/// close requests are routed on the tenant prefix (PeekScoreRouting) and
/// the payload bytes are forwarded verbatim — the router never decodes
/// observations. Request ids are remapped (client ids collide across
/// connections) through a pending table and restored on the way back.
///
/// Writes are append-and-mark: forwarding, responding and rejecting only
/// append to the peer's outbound buffer and mark it dirty. After each
/// epoll_wait pass the loop flushes every dirty backend, then every dirty
/// client, so a pipelined burst costs one send() per peer per pass rather
/// than one per frame.
///
/// Sessions are stateful, so a dead backend's tenants are NOT re-hashed:
/// in-flight requests get error responses and later requests are
/// rejected until the backend set is restored by a restart.
class Router {
 public:
  static Result<std::unique_ptr<Router>> Start(RouterOptions options);

  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void Stop();

  uint16_t port() const { return port_; }
  uint64_t forwarded() const { return forwarded_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t backend_errors() const { return backend_errors_; }
  uint64_t protocol_errors() const { return protocol_errors_; }
  uint64_t read_pauses() const { return read_pauses_; }
  /// send() calls that moved bytes, to clients and backends together.
  uint64_t socket_writes() const { return socket_writes_; }

  /// The ring's backend index for a tenant — exposed so tests can assert
  /// placement stability without a live router.
  static size_t RingPick(const std::vector<std::string>& backends,
                         size_t vnodes, const std::string& tenant);

 private:
  struct ClientConn {
    explicit ClientConn(Fd fd, uint64_t id) : fd(std::move(fd)), id(id) {}
    Fd fd;
    uint64_t id;
    wire::FrameDecoder decoder;
    std::vector<uint8_t> outbound;
    size_t sent = 0;
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool read_paused = false;  ///< EPOLLIN currently disarmed
    bool dirty = false;        ///< queued in dirty_clients_
    bool closed = false;       ///< CloseClient ran; output is dropped
  };

  struct Backend {
    std::string address;
    Fd fd;
    wire::FrameDecoder decoder;
    std::vector<uint8_t> outbound;
    size_t sent = 0;
    bool want_write = false;
    bool dirty = false;  ///< queued in dirty_backends_
    bool alive = false;
    size_t inflight = 0;
  };

  struct Pending {
    uint64_t client_conn_id = 0;
    uint64_t client_request_id = 0;
    size_t backend = 0;
  };

  explicit Router(RouterOptions options);

  Status Init();
  void Loop();
  void Accept();
  void HandleClientReadable(const std::shared_ptr<ClientConn>& conn);
  void HandleBackendReadable(size_t backend_index);
  bool DispatchClientFrame(const std::shared_ptr<ClientConn>& conn,
                           wire::OwnedFrame frame);
  void ForwardOrReject(const std::shared_ptr<ClientConn>& conn,
                       const wire::OwnedFrame& frame,
                       const std::string& tenant, uint8_t priority);
  void HandleBackendFrame(size_t backend_index, wire::OwnedFrame frame);
  /// Fails every pending request on `backend_index` and marks it dead.
  void FailBackend(size_t backend_index, const std::string& reason);
  /// Appends a frame to the client's outbound buffer and marks it dirty.
  void SendToClient(const std::shared_ptr<ClientConn>& conn,
                    wire::FrameType type, uint64_t request_id,
                    const std::vector<uint8_t>& payload);
  void SendRejection(const std::shared_ptr<ClientConn>& conn,
                     wire::FrameType type, uint64_t request_id,
                     const std::string& message);
  void MarkClientDirty(const std::shared_ptr<ClientConn>& conn);
  void MarkBackendDirty(size_t backend_index);
  /// End of a pass: flushes dirty backends, then dirty clients. Backends
  /// go first because a failed backend flush runs FailBackend, which
  /// queues error responses to clients.
  void FlushDirty();
  void FlushClient(const std::shared_ptr<ClientConn>& conn);
  void FlushBackend(size_t backend_index);
  /// Pauses reading a client whose unflushed backlog passed
  /// write_buffer_limit and resumes it below half; true when the pause
  /// state changed (the caller updates epoll).
  bool UpdateReadPause(ClientConn* conn);
  /// Sends `outbound[sent..]` until the socket would block; counts each
  /// send() that moved bytes. True while the connection is healthy.
  bool Flush(int fd, std::vector<uint8_t>* outbound, size_t* sent);
  void CloseClient(int fd);
  /// epoll interest update helpers (fd key encodes client vs backend).
  void UpdateClientEpoll(ClientConn* conn);
  void UpdateBackendEpoll(size_t backend_index);
  void WakeLoop();
  std::string StatsLine() const;

  const RouterOptions options_;
  serve::QosController qos_;
  uint16_t port_ = 0;

  Fd listen_fd_;
  Fd epoll_fd_;
  Fd wake_fd_;
  std::vector<Backend> backends_;
  /// Ring: (hash, backend index), sorted by hash.
  std::vector<std::pair<uint64_t, size_t>> ring_;
  std::unordered_map<int, std::shared_ptr<ClientConn>> clients_;
  std::unordered_map<uint64_t, std::shared_ptr<ClientConn>> clients_by_id_;
  std::unordered_map<int, size_t> backend_by_fd_;
  std::unordered_map<uint64_t, Pending> pending_;
  /// Peers with unflushed bytes from this pass (flag on the peer dedups).
  std::vector<size_t> dirty_backends_;
  std::vector<std::shared_ptr<ClientConn>> dirty_clients_;
  uint64_t next_router_id_ = 1;
  uint64_t next_client_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> backend_errors_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> read_pauses_{0};
  std::atomic<uint64_t> socket_writes_{0};

  obs::Counter* forwarded_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* backend_errors_counter_ = nullptr;
  obs::Counter* protocol_errors_counter_ = nullptr;
  obs::Counter* read_pauses_counter_ = nullptr;
  obs::Counter* socket_writes_counter_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;

  std::thread loop_;
};

}  // namespace mace::net

#endif  // MACE_NET_ROUTER_H_
