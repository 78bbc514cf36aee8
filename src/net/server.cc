#include "net/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

namespace mace::net {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScoreServer::ScoreServer(serve::ServeFrontend* frontend,
                         ScoreServerOptions options)
    : frontend_(frontend), options_(std::move(options)), qos_(options_.qos) {
  obs::MetricsRegistry& metrics = obs::Metrics();
  const obs::Labels labels = {{"role", "backend"}};
  connections_counter_ = metrics.GetCounter(
      "mace_net_connections_total", "TCP connections accepted", labels);
  frames_rx_counter_ = metrics.GetCounter(
      "mace_net_frames_rx_total", "Wire frames received", labels);
  frames_tx_counter_ = metrics.GetCounter(
      "mace_net_frames_tx_total", "Wire frames sent", labels);
  protocol_errors_counter_ = metrics.GetCounter(
      "mace_net_protocol_errors_total",
      "Connections dropped for MWIREv1 protocol violations", labels);
  read_pauses_counter_ = metrics.GetCounter(
      "mace_net_read_pauses_total",
      "Times backpressure paused reading a connection", labels);
  socket_writes_counter_ = metrics.GetCounter(
      "mace_net_socket_writes_total", "send() calls that moved bytes",
      labels);
  connections_gauge_ = metrics.GetGauge(
      "mace_net_connections_open", "Currently open connections", labels);
}

ScoreServer::~ScoreServer() { Stop(); }

Result<std::unique_ptr<ScoreServer>> ScoreServer::Start(
    serve::ServeFrontend* frontend, ScoreServerOptions options) {
  if (frontend == nullptr) {
    return Status::InvalidArgument("frontend must not be null");
  }
  std::unique_ptr<ScoreServer> server(
      new ScoreServer(frontend, std::move(options)));
  MACE_RETURN_IF_ERROR(server->Init());
  server->loop_ = std::thread([raw = server.get()] { raw->Loop(); });
  return server;
}

Status ScoreServer::Init() {
  MACE_ASSIGN_OR_RETURN(listen_fd_,
                        TcpListen(options_.host, options_.port, &port_));
  MACE_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return Status::IoError("epoll_create1 failed");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) return Status::IoError("eventfd failed");

  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_.get(), &ev) !=
      0) {
    return Status::IoError("epoll_ctl add listen failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) !=
      0) {
    return Status::IoError("epoll_ctl add eventfd failed");
  }
  return Status::OK();
}

void ScoreServer::Stop() {
  if (stopping_.exchange(true)) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  // The loop is gone, so no new submissions exist; Flush drains every
  // in-flight shard callback while the connection map (their weak_ptr
  // targets) and the eventfd are still alive.
  frontend_->Flush();
  {
    // Queued flushes hold connections; drop them so the sockets close.
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_flush_.clear();
  }
  connections_.clear();
  connections_gauge_->Set(0.0);
}

void ScoreServer::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void ScoreServer::UpdateEpoll(Connection* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLET | EPOLLRDHUP;
  if (!conn->read_paused) ev.events |= EPOLLIN;
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
}

void ScoreServer::Loop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_.get()) {
        Accept();
        continue;
      }
      if (fd == wake_fd_.get()) {
        uint64_t drained;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        TakePendingFlushes();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) MarkDirty(conn);
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn);
    }
    FlushDirty();
  }
}

void ScoreServer::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: wait for next event
    }
    if (connections_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    (void)SetNoDelay(fd);
    auto conn = std::make_shared<Connection>(Fd(fd));
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn's Fd closes it
    }
    connections_.emplace(fd, std::move(conn));
    connections_opened_.fetch_add(1, std::memory_order_relaxed);
    connections_counter_->Increment();
    connections_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

void ScoreServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  uint8_t buffer[64 * 1024];
  for (;;) {
    if (conn->read_paused) return;  // backpressure kicked in mid-batch
    const ssize_t n =
        ::recv(conn->fd.get(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConnection(conn->fd.get());
      return;
    }
    if (n == 0) {
      CloseConnection(conn->fd.get());
      return;
    }
    conn->decoder.Append(buffer, static_cast<size_t>(n));
    for (;;) {
      Result<std::optional<wire::OwnedFrame>> next = conn->decoder.Next();
      if (!next.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        protocol_errors_counter_->Increment();
        CloseConnection(conn->fd.get());
        return;
      }
      if (!next.value().has_value()) break;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      frames_rx_counter_->Increment();
      if (!Dispatch(conn, std::move(*next.value()))) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        protocol_errors_counter_->Increment();
        CloseConnection(conn->fd.get());
        return;
      }
    }
    // Replies the loop queues itself (pong, errors) wait for the end of
    // the pass, so a client that never reads is checked here and paused
    // mid-stream. Worker replies are checked when their flush runs.
    if (!conn->dirty) continue;
    size_t backlog;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      backlog = conn->outbound.size() - conn->sent;
    }
    if (UpdateReadPause(conn.get(), backlog)) UpdateEpoll(conn.get());
  }
}

bool ScoreServer::Dispatch(const std::shared_ptr<Connection>& conn,
                           wire::OwnedFrame frame) {
  switch (frame.type) {
    case wire::FrameType::kPing:
      SendFrame(conn, wire::FrameType::kPong, frame.request_id, {});
      return true;
    case wire::FrameType::kStatsRequest: {
      std::vector<uint8_t> payload;
      wire::EncodeStatsResponse(frontend_->Stats().FormatLine(), &payload);
      SendFrame(conn, wire::FrameType::kStatsResponse, frame.request_id,
                payload);
      return true;
    }
    case wire::FrameType::kScoreRequest:
      HandleScore(conn, frame.request_id, frame);
      return true;
    case wire::FrameType::kCloseRequest: {
      Result<wire::CloseRequest> request =
          wire::DecodeCloseRequest(frame.payload.data(),
                                   frame.payload.size());
      if (!request.ok()) {
        SendErrorResponse(conn, wire::FrameType::kCloseResponse,
                          frame.request_id, request.status().code(),
                          request.status().message(), /*rejected=*/false);
        return true;
      }
      std::weak_ptr<Connection> weak = conn;
      const uint64_t request_id = frame.request_id;
      frontend_->CloseAsync(
          request.value().tenant, request.value().service,
          [this, weak, request_id](serve::ScoreBatch&& batch) {
            std::shared_ptr<Connection> conn = weak.lock();
            if (conn == nullptr) return;
            wire::ScoreResponse response;
            response.code = batch.status.code();
            response.message = batch.status.message();
            response.first_step = batch.first_step;
            response.scores = std::move(batch.scores);
            std::vector<uint8_t> payload;
            wire::EncodeScoreResponse(response, &payload);
            SendFrameFromCallback(conn, wire::FrameType::kCloseResponse,
                                  request_id, payload);
          });
      return true;
    }
    default:
      // Response-direction frames arriving at the server lost framing
      // sync (or the peer is hostile): connection-fatal.
      return false;
  }
}

void ScoreServer::HandleScore(const std::shared_ptr<Connection>& conn,
                              uint64_t request_id,
                              const wire::OwnedFrame& frame) {
  Result<wire::ScoreRequest> decoded = wire::DecodeScoreRequest(
      frame.payload.data(), frame.payload.size());
  if (!decoded.ok()) {
    SendErrorResponse(conn, wire::FrameType::kScoreResponse, request_id,
                      decoded.status().code(), decoded.status().message(),
                      /*rejected=*/false);
    return;
  }
  wire::ScoreRequest& request = decoded.value();
  serve::RequestOptions options;
  options.priority = static_cast<serve::Priority>(request.priority);
  if (request.policy_override != wire::kNoPolicyOverride) {
    options.non_finite_policy =
        static_cast<ts::NonFinitePolicy>(request.policy_override);
  }
  if (!qos_.Admit(request.tenant, options.priority, SteadySeconds())) {
    SendErrorResponse(conn, wire::FrameType::kScoreResponse, request_id,
                      StatusCode::kFailedPrecondition,
                      "rate limited by per-tenant QoS",
                      /*rejected=*/true);
    return;
  }
  std::weak_ptr<Connection> weak = conn;
  const Status submitted = frontend_->SubmitAsync(
      request.tenant, request.service, std::move(request.values), options,
      [this, weak, request_id](serve::ScoreBatch&& batch) {
        std::shared_ptr<Connection> conn = weak.lock();
        if (conn == nullptr) return;
        wire::ScoreResponse response;
        response.code = batch.status.code();
        response.message = batch.status.message();
        response.first_step = batch.first_step;
        response.dropped = batch.dropped;
        response.contaminated = batch.contaminated;
        response.scores = std::move(batch.scores);
        std::vector<uint8_t> payload;
        wire::EncodeScoreResponse(response, &payload);
        SendFrameFromCallback(conn, wire::FrameType::kScoreResponse,
                              request_id, payload);
      });
  if (!submitted.ok()) {
    SendErrorResponse(conn, wire::FrameType::kScoreResponse, request_id,
                      submitted.code(), submitted.message(),
                      /*rejected=*/false);
  }
}

void ScoreServer::SendErrorResponse(
    const std::shared_ptr<Connection>& conn, wire::FrameType type,
    uint64_t request_id, StatusCode code, const std::string& message,
    bool rejected) {
  wire::ScoreResponse response;
  response.code = code;
  response.message = message;
  response.rejected = rejected;
  std::vector<uint8_t> payload;
  wire::EncodeScoreResponse(response, &payload);
  SendFrame(conn, type, request_id, payload);
}

bool ScoreServer::AppendOutbound(const std::shared_ptr<Connection>& conn,
                                 wire::FrameType type, uint64_t request_id,
                                 const std::vector<uint8_t>& payload) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return false;
    wire::AppendFrame(&conn->outbound, type, request_id, payload);
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  frames_tx_counter_->Increment();
  return true;
}

void ScoreServer::SendFrame(const std::shared_ptr<Connection>& conn,
                            wire::FrameType type, uint64_t request_id,
                            const std::vector<uint8_t>& payload) {
  if (AppendOutbound(conn, type, request_id, payload)) MarkDirty(conn);
}

void ScoreServer::SendFrameFromCallback(
    const std::shared_ptr<Connection>& conn, wire::FrameType type,
    uint64_t request_id, const std::vector<uint8_t>& payload) {
  if (!AppendOutbound(conn, type, request_id, payload)) return;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (conn->flush_queued) return;  // the loop has not taken it yet
    conn->flush_queued = true;
    wake = pending_flush_.empty();
    pending_flush_.push_back(conn);
  }
  if (wake) WakeLoop();
}

void ScoreServer::MarkDirty(const std::shared_ptr<Connection>& conn) {
  if (conn->dirty) return;
  conn->dirty = true;
  dirty_.push_back(conn);
}

void ScoreServer::TakePendingFlushes() {
  std::vector<std::shared_ptr<Connection>> pending;
  {
    // Clearing flush_queued before the flush reads outbound means a
    // callback that saw the flag set appended before this point.
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending.swap(pending_flush_);
    for (const auto& conn : pending) conn->flush_queued = false;
  }
  for (const auto& conn : pending) MarkDirty(conn);
}

void ScoreServer::FlushDirty() {
  for (size_t i = 0; i < dirty_.size(); ++i) {
    dirty_[i]->dirty = false;
    FlushOutbound(dirty_[i]);
  }
  dirty_.clear();
}

void ScoreServer::FlushOutbound(const std::shared_ptr<Connection>& conn) {
  bool close = false;
  uint64_t writes = 0;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    while (conn->sent < conn->outbound.size()) {
      const ssize_t n =
          ::send(conn->fd.get(), conn->outbound.data() + conn->sent,
                 conn->outbound.size() - conn->sent, MSG_NOSIGNAL);
      if (n > 0) {
        conn->sent += static_cast<size_t>(n);
        ++writes;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close = true;
      break;
    }
    if (!close) {
      if (conn->sent == conn->outbound.size()) {
        conn->outbound.clear();
        conn->sent = 0;
      } else if (conn->sent > (1u << 20)) {
        conn->outbound.erase(conn->outbound.begin(),
                             conn->outbound.begin() +
                                 static_cast<ptrdiff_t>(conn->sent));
        conn->sent = 0;
      }
      const size_t backlog = conn->outbound.size() - conn->sent;
      bool update = UpdateReadPause(conn.get(), backlog);
      if ((backlog > 0) != conn->want_write) {
        conn->want_write = backlog > 0;
        update = true;
      }
      if (update) UpdateEpoll(conn.get());
    }
  }
  if (writes > 0) {
    socket_writes_.fetch_add(writes, std::memory_order_relaxed);
    socket_writes_counter_->Increment(writes);
  }
  if (close) CloseConnection(conn->fd.get());
}

bool ScoreServer::UpdateReadPause(Connection* conn, size_t backlog) {
  if (!conn->read_paused && backlog > options_.write_buffer_limit) {
    conn->read_paused = true;
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    read_pauses_counter_->Increment();
    return true;
  }
  if (conn->read_paused && backlog < options_.write_buffer_limit / 2) {
    conn->read_paused = false;
    return true;
  }
  return false;
}

void ScoreServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->dead = true;
  }
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  connections_.erase(it);
  connections_gauge_->Set(static_cast<double>(connections_.size()));
}

}  // namespace mace::net
