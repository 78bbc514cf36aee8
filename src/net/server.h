#ifndef MACE_NET_SERVER_H_
#define MACE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "serve/frontend.h"
#include "serve/qos.h"
#include "wire/frame.h"
#include "wire/messages.h"

namespace mace::net {

struct ScoreServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  size_t max_connections = 4096;
  /// Outbound bytes buffered per connection before the server stops
  /// *reading* from it (backpressure: a slow reader throttles its own
  /// request stream instead of growing server memory). Reading resumes
  /// once the buffer drains below half this limit.
  size_t write_buffer_limit = 4u << 20;
  /// Per-tenant admission control; rate_per_tenant <= 0 disables it.
  serve::QosConfig qos;
};

/// \brief Non-blocking MWIREv1 front door over a ServeFrontend.
///
/// One epoll event-loop thread owns every socket (edge-triggered accept /
/// read / write, per-connection FrameDecoder reassembly, bounded write
/// queues). Score and close requests are handed to the frontend's
/// completion-callback path, so the loop never blocks on scoring: shard
/// worker threads encode the response into the connection's outbound
/// buffer, queue the connection for a flush, and nudge the loop through
/// an eventfd only when that queue goes from empty to non-empty.
///
/// Every write is append-and-mark: the loop flushes each connection with
/// fresh bytes once, after the epoll_wait pass that produced them, so a
/// pipelined burst costs one send() per connection per pass.
///
/// Protocol errors (bad magic/version/CRC, unexpected frame type) are
/// connection-fatal; malformed *payloads* on an intact frame get an
/// error response and the connection lives on.
///
/// `frontend` is borrowed and must outlive the server. Stop() (also run
/// by the destructor) joins the loop, then flushes the frontend so every
/// in-flight callback lands before connection state is freed.
class ScoreServer {
 public:
  static Result<std::unique_ptr<ScoreServer>> Start(
      serve::ServeFrontend* frontend, ScoreServerOptions options);

  ~ScoreServer();
  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  void Stop();

  uint16_t port() const { return port_; }
  serve::QosController& qos() { return qos_; }

  uint64_t connections_opened() const { return connections_opened_; }
  uint64_t protocol_errors() const { return protocol_errors_; }
  uint64_t frames_received() const { return frames_received_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t read_pauses() const { return read_pauses_; }
  /// send() calls that moved bytes.
  uint64_t socket_writes() const { return socket_writes_; }

 private:
  struct Connection {
    explicit Connection(Fd fd) : fd(std::move(fd)) {}
    Fd fd;
    wire::FrameDecoder decoder;
    /// Outbound byte queue. Shard-worker callbacks append under `mu`;
    /// the loop thread drains. `sent` is the flushed prefix.
    std::mutex mu;
    std::vector<uint8_t> outbound;
    size_t sent = 0;
    bool want_write = false;   ///< EPOLLOUT currently armed (loop only)
    bool read_paused = false;  ///< EPOLLIN currently disarmed (loop only)
    bool dirty = false;        ///< queued in dirty_ (loop only)
    bool dead = false;         ///< closed; callbacks drop their output
    /// Queued in pending_flush_ (guarded by pending_mu_).
    bool flush_queued = false;
  };

  ScoreServer(serve::ServeFrontend* frontend, ScoreServerOptions options);

  Status Init();
  void Loop();
  void Accept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  /// Dispatches one reassembled frame. Returns false when the frame is a
  /// protocol violation and the connection must close.
  bool Dispatch(const std::shared_ptr<Connection>& conn,
                wire::OwnedFrame frame);
  void HandleScore(const std::shared_ptr<Connection>& conn,
                   uint64_t request_id, const wire::OwnedFrame& frame);
  /// Appends a frame to the connection's outbound queue; false when the
  /// connection is already closed (any thread).
  bool AppendOutbound(const std::shared_ptr<Connection>& conn,
                      wire::FrameType type, uint64_t request_id,
                      const std::vector<uint8_t>& payload);
  /// Loop thread: append, then mark the connection for the end-of-pass
  /// flush.
  void SendFrame(const std::shared_ptr<Connection>& conn,
                 wire::FrameType type, uint64_t request_id,
                 const std::vector<uint8_t>& payload);
  /// Completion callbacks (any thread): append, queue the connection in
  /// pending_flush_ at most once, and wake the loop on the empty →
  /// non-empty edge.
  void SendFrameFromCallback(const std::shared_ptr<Connection>& conn,
                             wire::FrameType type, uint64_t request_id,
                             const std::vector<uint8_t>& payload);
  void SendErrorResponse(const std::shared_ptr<Connection>& conn,
                         wire::FrameType type, uint64_t request_id,
                         StatusCode code, const std::string& message,
                         bool rejected);
  void MarkDirty(const std::shared_ptr<Connection>& conn);
  /// Moves pending_flush_ into dirty_ (loop only, after draining the
  /// eventfd).
  void TakePendingFlushes();
  /// Flushes every dirty connection once (loop only, end of each pass).
  void FlushDirty();
  /// Flushes as much outbound as the socket takes; arms/disarms
  /// EPOLLOUT and re-arms reading when backpressure clears (loop only).
  void FlushOutbound(const std::shared_ptr<Connection>& conn);
  /// Pauses reading past write_buffer_limit outbound bytes and resumes
  /// below half; true when the pause state changed (loop only).
  bool UpdateReadPause(Connection* conn, size_t backlog);
  void CloseConnection(int fd);
  void UpdateEpoll(Connection* conn);
  void WakeLoop();

  serve::ServeFrontend* const frontend_;
  const ScoreServerOptions options_;
  serve::QosController qos_;
  uint16_t port_ = 0;

  Fd listen_fd_;
  Fd epoll_fd_;
  Fd wake_fd_;  ///< eventfd: callbacks nudge the loop after appending
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  /// Connections with outbound bytes from this pass (loop only).
  std::vector<std::shared_ptr<Connection>> dirty_;
  /// Connections that completion callbacks appended to since the loop
  /// last took the list. The loop drains the eventfd before it takes the
  /// list, so a callback that finds the list non-empty can rely on the
  /// wake of the callback that made it non-empty.
  std::mutex pending_mu_;
  std::vector<std::shared_ptr<Connection>> pending_flush_;

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_opened_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> read_pauses_{0};
  std::atomic<uint64_t> socket_writes_{0};

  obs::Counter* connections_counter_ = nullptr;
  obs::Counter* frames_rx_counter_ = nullptr;
  obs::Counter* frames_tx_counter_ = nullptr;
  obs::Counter* protocol_errors_counter_ = nullptr;
  obs::Counter* read_pauses_counter_ = nullptr;
  obs::Counter* socket_writes_counter_ = nullptr;
  obs::Gauge* connections_gauge_ = nullptr;

  std::thread loop_;
};

}  // namespace mace::net

#endif  // MACE_NET_SERVER_H_
