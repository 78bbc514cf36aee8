#ifndef MACE_NET_SERVER_H_
#define MACE_NET_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "net/event_loop.h"
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
/// An EventLoop owns every socket. Score and close requests are handed
/// to the frontend's completion-callback path, so the loop never blocks
/// on scoring: a shard worker encodes the whole response frame and Posts
/// a task that appends it if the connection is still open.
///
/// Protocol errors (bad magic/version/CRC, unexpected frame type) are
/// connection-fatal; malformed *payloads* on an intact frame get an
/// error response and the connection lives on.
///
/// `frontend` is borrowed and must outlive the server. Stop() (also run
/// by the destructor) joins the loop, then flushes the frontend; the
/// responses its in-flight callbacks post are dropped unsent.
class ScoreServer final : private FrameHandler {
 public:
  static Result<std::unique_ptr<ScoreServer>> Start(
      serve::ServeFrontend* frontend, ScoreServerOptions options);

  ~ScoreServer();
  ScoreServer(const ScoreServer&) = delete;
  ScoreServer& operator=(const ScoreServer&) = delete;

  void Stop();

  uint16_t port() const { return port_; }
  serve::QosController& qos() { return qos_; }

  uint64_t connections_opened() const { return loop_.connections_opened(); }
  uint64_t protocol_errors() const { return loop_.protocol_errors(); }
  uint64_t frames_received() const { return loop_.frames_received(); }
  uint64_t frames_sent() const { return loop_.frames_sent(); }
  uint64_t read_pauses() const { return loop_.read_pauses(); }
  /// send() calls that moved bytes.
  uint64_t socket_writes() const { return loop_.socket_writes(); }

 private:
  ScoreServer(serve::ServeFrontend* frontend, ScoreServerOptions options);

  bool OnFrame(FramedConn& conn, wire::OwnedFrame frame) override;
  void HandleScore(FramedConn& conn, const wire::OwnedFrame& frame);
  /// The completion callback for `request_id` on `conn`: encodes the
  /// frame on the calling shard worker and posts its append to the loop.
  std::function<void(serve::ScoreBatch&&)> Reply(const FramedConn& conn,
                                                 wire::FrameType type,
                                                 uint64_t request_id);

  serve::ServeFrontend* const frontend_;
  const ScoreServerOptions options_;
  serve::QosController qos_;
  uint16_t port_ = 0;
  EventLoop loop_;
};

}  // namespace mace::net

#endif  // MACE_NET_SERVER_H_
