#ifndef MACE_NET_EVENT_LOOP_H_
#define MACE_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "wire/frame.h"

namespace mace::net {

/// Monotonic seconds, the clock QoS admission runs on.
double SteadySeconds();

/// \brief A per-instance count mirrored into the registry counter that
/// every instance of one role shares (tests run several per process, so
/// accessors read the instance value, scrapes the shared series).
class InstanceCounter {
 public:
  InstanceCounter(const std::string& name, const std::string& help,
                  const std::string& role)
      : counter_(obs::Metrics().GetCounter(name, help, {{"role", role}})) {}

  void Add(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    counter_->Increment(n);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  obs::Counter* const counter_;
};

class EventLoop;
class FramedConn;

/// \brief What a role does with the frames of its connections. Every
/// callback runs on the loop thread.
class FrameHandler {
 public:
  /// One reassembled frame; false means a protocol violation and the
  /// loop closes the connection.
  virtual bool OnFrame(FramedConn& conn, wire::OwnedFrame frame) = 0;
  /// The connection is gone (peer EOF, socket error, failed write or
  /// protocol violation); `reason` says which. Not called by Stop().
  virtual void OnClose(FramedConn& /*conn*/, const std::string& /*reason*/) {}

 protected:
  ~FrameHandler() = default;
};

/// \brief One MWIREv1 connection of an EventLoop, confined to the loop
/// thread (no locks).
///
/// Writes are append-and-mark: Send appends to the outbound buffer and
/// queues the connection on the loop's dirty list, which is flushed once
/// at the end of the epoll pass, so a pipelined burst costs one send()
/// per connection per pass. Accepted connections are read-paused past
/// the loop's write_buffer_limit unflushed bytes and resumed below half:
/// a client that never reads throttles its own request stream instead of
/// growing this process's memory. Dialed connections are never paused;
/// their owner bounds them by what it sends (the router's overload
/// check).
class FramedConn : public std::enable_shared_from_this<FramedConn> {
 public:
  FramedConn(EventLoop* loop, Fd fd, uint64_t id, FrameHandler* handler,
             bool accepted)
      : loop_(loop),
        fd_(std::move(fd)),
        id_(id),
        handler_(handler),
        accepted_(accepted) {}

  uint64_t id() const { return id_; }
  bool closed() const { return closed_; }
  /// Unflushed outbound bytes.
  size_t backlog() const { return outbound_.size() - sent_; }

  /// Appends one frame for the end-of-pass flush; dropped once closed.
  void Send(wire::FrameType type, uint64_t request_id,
            const std::vector<uint8_t>& payload);
  /// Appends one frame already encoded (header, CRC and payload).
  void SendEncoded(const std::vector<uint8_t>& frame);
  /// Sends a ScoreResponse-shaped error (score or close response).
  void SendError(wire::FrameType type, uint64_t request_id, StatusCode code,
                 const std::string& message, bool rejected);

 private:
  friend class EventLoop;

  EventLoop* const loop_;
  Fd fd_;
  const uint64_t id_;
  FrameHandler* const handler_;
  const bool accepted_;  ///< accepted by the listener: read-pausable
  wire::FrameDecoder decoder_;
  std::vector<uint8_t> outbound_;
  size_t sent_ = 0;          ///< flushed prefix of outbound_
  bool want_write_ = false;  ///< EPOLLOUT armed
  bool read_paused_ = false; ///< EPOLLIN disarmed
  bool dirty_ = false;       ///< queued on the loop's dirty list
  bool closed_ = false;
};

/// \brief One edge-triggered epoll thread owning a listener and every
/// FramedConn: the shared core of ScoreServer and Router.
///
/// Set-up (Open, Listen, Adopt) happens before Start; after it, Post is
/// the only entry point from other threads. Posted tasks go into an
/// inbox under one mutex, and the eventfd is written only on the inbox's
/// empty → non-empty edge. No wake is lost: the loop drains the eventfd
/// before it swaps the inbox, so a poster that finds the inbox non-empty
/// can rely on the wake of the poster that made it non-empty.
///
/// The dirty list is flushed in one indexed pass, so a connection marked
/// while the pass runs (a failed write closes a peer, whose handler
/// queues replies to others) is flushed in that same pass.
///
/// Metrics (`mace_net_*{role}`): connections accepted and open, frames
/// received and sent, protocol errors, read pauses and send() calls that
/// moved bytes.
class EventLoop {
 public:
  EventLoop(const std::string& role, size_t write_buffer_limit);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll fd and the eventfd.
  Status Open();
  /// Listens on host:port (0 = ephemeral) and returns the bound port.
  /// Accepted connections go to `handler`; past `max_connections` open
  /// ones, new ones are closed at once.
  Result<uint16_t> Listen(const std::string& host, uint16_t port,
                          size_t max_connections, FrameHandler* handler);
  /// Takes over a connection this process dialed (made non-blocking).
  Result<std::shared_ptr<FramedConn>> Adopt(Fd fd, FrameHandler* handler);
  /// Starts the loop thread.
  void Start();
  /// Runs `task` on the loop thread (any thread). A task posted after
  /// Stop() began may be destroyed unrun; none runs after Stop() returns.
  void Post(std::function<void()> task);
  /// Joins the loop thread, drops queued tasks unrun and releases every
  /// connection without calling OnClose. Idempotent.
  void Stop();

  /// Loop thread only: the open connection with this id, or nullptr.
  FramedConn* Find(uint64_t id) const;
  /// Loop thread only: accepted connections currently open.
  size_t accepted_open() const { return accepted_open_; }

  uint64_t connections_opened() const { return connections_.value(); }
  uint64_t protocol_errors() const { return protocol_errors_.value(); }
  uint64_t frames_received() const { return frames_rx_.value(); }
  uint64_t frames_sent() const { return frames_tx_.value(); }
  uint64_t read_pauses() const { return read_pauses_.value(); }
  uint64_t socket_writes() const { return socket_writes_.value(); }

 private:
  friend class FramedConn;

  void Run();
  void Accept();
  Result<std::shared_ptr<FramedConn>> Register(Fd fd, FrameHandler* handler,
                                               bool accepted);
  void RunPosted();
  /// Reads in 64 KiB chunks, dispatching frames after each chunk and
  /// checking the read pause per chunk.
  void HandleReadable(const std::shared_ptr<FramedConn>& conn);
  void MarkDirty(FramedConn* conn);
  void FlushDirty();
  void FlushConn(const std::shared_ptr<FramedConn>& conn);
  /// Sends outbound_[sent_..] until the socket would block; false on a
  /// hard error.
  bool Write(FramedConn* conn);
  /// Pause/resume hysteresis; true when the pause state changed.
  bool UpdateReadPause(FramedConn* conn);
  void UpdateEpoll(FramedConn* conn);
  void Close(const std::shared_ptr<FramedConn>& conn,
             const std::string& reason);
  void Wake();

  const size_t write_buffer_limit_;
  Fd epoll_fd_;
  Fd wake_fd_;
  Fd listen_fd_;
  FrameHandler* listen_handler_ = nullptr;
  size_t max_connections_ = 0;

  std::unordered_map<uint64_t, std::shared_ptr<FramedConn>> conns_;
  std::vector<std::shared_ptr<FramedConn>> dirty_;
  uint64_t next_id_ = 2;  ///< epoll keys 0 and 1: listener, eventfd
  size_t accepted_open_ = 0;

  std::mutex inbox_mu_;
  std::vector<std::function<void()>> inbox_;
  std::vector<std::function<void()>> running_;  ///< loop thread only
  bool stopped_ = false;  ///< guarded by inbox_mu_: Post drops tasks

  std::atomic<bool> stopping_{false};

  InstanceCounter connections_;
  InstanceCounter protocol_errors_;
  InstanceCounter frames_rx_;
  InstanceCounter frames_tx_;
  InstanceCounter read_pauses_;
  InstanceCounter socket_writes_;
  obs::Gauge* const connections_open_;
  std::thread thread_;  ///< last: runs on every member above
};

}  // namespace mace::net

#endif  // MACE_NET_EVENT_LOOP_H_
