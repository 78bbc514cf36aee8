#include "net/router.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace mace::net {
namespace {

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Drains a non-blocking socket into the decoder. Returns false on EOF
/// or a hard error (caller closes / fails the peer).
bool DrainSocket(int fd, wire::FrameDecoder* decoder) {
  uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    if (n == 0) return false;
    decoder->Append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace

size_t Router::RingPick(const std::vector<std::string>& backends,
                        size_t vnodes, const std::string& tenant) {
  // Mirrors the ring Init() builds; kept static so placement is testable
  // and other processes can predict it.
  std::vector<std::pair<uint64_t, size_t>> ring;
  ring.reserve(backends.size() * vnodes);
  for (size_t b = 0; b < backends.size(); ++b) {
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string key = backends[b] + "#" + std::to_string(v);
      ring.emplace_back(wire::RingHash64(key), b);
    }
  }
  std::sort(ring.begin(), ring.end());
  const uint64_t h = wire::RingHash64(tenant);
  auto it = std::lower_bound(
      ring.begin(), ring.end(), std::make_pair(h, size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring.end()) it = ring.begin();
  return it->second;
}

Router::Router(RouterOptions options)
    : options_(std::move(options)), qos_(options_.qos) {
  obs::MetricsRegistry& metrics = obs::Metrics();
  const obs::Labels labels = {{"role", "router"}};
  forwarded_counter_ = metrics.GetCounter(
      "mace_net_router_forwarded_total",
      "Requests forwarded to a backend", labels);
  rejected_counter_ = metrics.GetCounter(
      "mace_net_router_rejected_total",
      "Requests rejected (QoS, backend overload, backend down)", labels);
  backend_errors_counter_ = metrics.GetCounter(
      "mace_net_router_backend_errors_total",
      "Backend connection failures", labels);
  protocol_errors_counter_ = metrics.GetCounter(
      "mace_net_protocol_errors_total",
      "Connections dropped for MWIREv1 protocol violations", labels);
  read_pauses_counter_ = metrics.GetCounter(
      "mace_net_read_pauses_total",
      "Times backpressure paused reading a connection", labels);
  socket_writes_counter_ = metrics.GetCounter(
      "mace_net_socket_writes_total", "send() calls that moved bytes",
      labels);
  inflight_gauge_ = metrics.GetGauge(
      "mace_net_router_inflight", "Requests awaiting a backend response",
      labels);
}

Router::~Router() { Stop(); }

Result<std::unique_ptr<Router>> Router::Start(RouterOptions options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (options.vnodes < 1) {
    return Status::InvalidArgument("vnodes must be >= 1");
  }
  std::unique_ptr<Router> router(new Router(std::move(options)));
  MACE_RETURN_IF_ERROR(router->Init());
  router->loop_ = std::thread([raw = router.get()] { raw->Loop(); });
  return router;
}

Status Router::Init() {
  // Connect every backend up front: a router that can't reach its
  // backends should fail fast at start, not shed live traffic later.
  backends_.reserve(options_.backends.size());
  for (const std::string& address : options_.backends) {
    MACE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(address));
    Backend backend;
    backend.address = address;
    MACE_ASSIGN_OR_RETURN(backend.fd,
                          TcpConnect(host_port.first, host_port.second));
    MACE_RETURN_IF_ERROR(SetNonBlocking(backend.fd.get()));
    backend.alive = true;
    backends_.push_back(std::move(backend));
  }
  ring_.reserve(backends_.size() * options_.vnodes);
  for (size_t b = 0; b < backends_.size(); ++b) {
    for (size_t v = 0; v < options_.vnodes; ++v) {
      const std::string key =
          backends_[b].address + "#" + std::to_string(v);
      ring_.emplace_back(wire::RingHash64(key), b);
    }
  }
  std::sort(ring_.begin(), ring_.end());

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
  for (size_t b = 0; b < backends_.size(); ++b) {
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = backends_[b].fd.get();
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, backends_[b].fd.get(),
                    &ev) != 0) {
      return Status::IoError("epoll_ctl add backend failed");
    }
    backend_by_fd_[backends_[b].fd.get()] = b;
  }
  return Status::OK();
}

void Router::Stop() {
  if (stopping_.exchange(true)) {
    if (loop_.joinable()) loop_.join();
    return;
  }
  WakeLoop();
  if (loop_.joinable()) loop_.join();
  clients_.clear();
  clients_by_id_.clear();
  pending_.clear();
}

void Router::WakeLoop() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

void Router::Loop() {
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
        continue;
      }
      auto backend_it = backend_by_fd_.find(fd);
      if (backend_it != backend_by_fd_.end()) {
        const size_t b = backend_it->second;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          FailBackend(b, "backend connection error");
          continue;
        }
        if (events[i].events & EPOLLOUT) MarkBackendDirty(b);
        if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
          HandleBackendReadable(b);
        }
        continue;
      }
      auto it = clients_.find(fd);
      if (it == clients_.end()) continue;
      std::shared_ptr<ClientConn> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseClient(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) MarkClientDirty(conn);
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        HandleClientReadable(conn);
      }
    }
    FlushDirty();
  }
}

void Router::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (clients_.size() >= options_.max_connections) {
      ::close(fd);
      continue;
    }
    (void)SetNoDelay(fd);
    auto conn = std::make_shared<ClientConn>(Fd(fd), next_client_id_++);
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;
    }
    clients_by_id_.emplace(conn->id, conn);
    clients_.emplace(fd, std::move(conn));
  }
}

void Router::HandleClientReadable(const std::shared_ptr<ClientConn>& conn) {
  // Chunk by chunk, so a client whose responses back up is paused
  // mid-stream and one pass buffers about write_buffer_limit for it.
  uint8_t buffer[64 * 1024];
  while (!conn->read_paused) {
    const ssize_t n = ::recv(conn->fd.get(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        CloseClient(conn->fd.get());
      }
      return;
    }
    if (n == 0) {
      CloseClient(conn->fd.get());
      return;
    }
    conn->decoder.Append(buffer, static_cast<size_t>(n));
    for (;;) {
      Result<std::optional<wire::OwnedFrame>> next = conn->decoder.Next();
      if (next.ok() && !next.value().has_value()) break;
      if (!next.ok() ||
          !DispatchClientFrame(conn, std::move(*next.value()))) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        protocol_errors_counter_->Increment();
        CloseClient(conn->fd.get());
        return;
      }
    }
    if (UpdateReadPause(conn.get())) UpdateClientEpoll(conn.get());
  }
}

bool Router::DispatchClientFrame(const std::shared_ptr<ClientConn>& conn,
                                 wire::OwnedFrame frame) {
  switch (frame.type) {
    case wire::FrameType::kPing:
      SendToClient(conn, wire::FrameType::kPong, frame.request_id, {});
      return true;
    case wire::FrameType::kStatsRequest: {
      std::vector<uint8_t> payload;
      wire::EncodeStatsResponse(StatsLine(), &payload);
      SendToClient(conn, wire::FrameType::kStatsResponse,
                   frame.request_id, payload);
      return true;
    }
    case wire::FrameType::kScoreRequest: {
      Result<wire::ScoreRouting> routing = wire::PeekScoreRouting(
          frame.payload.data(), frame.payload.size());
      if (!routing.ok()) {
        SendRejection(conn, wire::FrameType::kScoreResponse,
                      frame.request_id, routing.status().message());
        return true;
      }
      ForwardOrReject(conn, frame, routing.value().tenant,
                      routing.value().priority);
      return true;
    }
    case wire::FrameType::kCloseRequest: {
      Result<wire::CloseRequest> request = wire::DecodeCloseRequest(
          frame.payload.data(), frame.payload.size());
      if (!request.ok()) {
        SendRejection(conn, wire::FrameType::kCloseResponse,
                      frame.request_id, request.status().message());
        return true;
      }
      // Closes ride the same ring and pending table; priority high so a
      // session teardown is never refused behind scoring QoS.
      ForwardOrReject(conn, frame, request.value().tenant, /*priority=*/0);
      return true;
    }
    default:
      return false;
  }
}

void Router::ForwardOrReject(const std::shared_ptr<ClientConn>& conn,
                             const wire::OwnedFrame& frame,
                             const std::string& tenant, uint8_t priority) {
  const wire::FrameType response_type =
      frame.type == wire::FrameType::kScoreRequest
          ? wire::FrameType::kScoreResponse
          : wire::FrameType::kCloseResponse;
  if (frame.type == wire::FrameType::kScoreRequest &&
      !qos_.Admit(tenant, static_cast<serve::Priority>(priority),
                  SteadySeconds())) {
    SendRejection(conn, response_type, frame.request_id,
                  "rate limited by per-tenant QoS");
    return;
  }
  const uint64_t h = wire::RingHash64(tenant);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (it == ring_.end()) it = ring_.begin();
  Backend& backend = backends_[it->second];
  if (!backend.alive) {
    SendRejection(conn, response_type, frame.request_id,
                  "backend " + backend.address + " is down");
    return;
  }
  if (backend.inflight >= options_.max_inflight_per_backend ||
      backend.outbound.size() - backend.sent >
          options_.write_buffer_limit) {
    SendRejection(conn, response_type, frame.request_id,
                  "backend " + backend.address + " overloaded");
    return;
  }
  const uint64_t router_id = next_router_id_++;
  pending_.emplace(router_id,
                   Pending{conn->id, frame.request_id, it->second});
  wire::AppendFrame(&backend.outbound, frame.type, router_id,
                    frame.payload);
  backend.inflight++;
  forwarded_.fetch_add(1, std::memory_order_relaxed);
  forwarded_counter_->Increment();
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
  MarkBackendDirty(it->second);
}

void Router::HandleBackendReadable(size_t backend_index) {
  Backend& backend = backends_[backend_index];
  const bool healthy = DrainSocket(backend.fd.get(), &backend.decoder);
  for (;;) {
    Result<std::optional<wire::OwnedFrame>> next = backend.decoder.Next();
    if (!next.ok()) {
      FailBackend(backend_index, "backend protocol error");
      return;
    }
    if (!next.value().has_value()) break;
    HandleBackendFrame(backend_index, std::move(*next.value()));
  }
  if (!healthy) FailBackend(backend_index, "backend closed connection");
}

void Router::HandleBackendFrame(size_t backend_index,
                                wire::OwnedFrame frame) {
  if (frame.type != wire::FrameType::kScoreResponse &&
      frame.type != wire::FrameType::kCloseResponse) {
    FailBackend(backend_index, "unexpected backend frame type");
    return;
  }
  auto it = pending_.find(frame.request_id);
  if (it == pending_.end()) return;  // client gone or duplicate: drop
  const Pending pending = it->second;
  pending_.erase(it);
  backends_[backend_index].inflight--;
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
  auto client_it = clients_by_id_.find(pending.client_conn_id);
  if (client_it == clients_by_id_.end()) return;
  SendToClient(client_it->second, frame.type,
               pending.client_request_id, frame.payload);
}

void Router::FailBackend(size_t backend_index, const std::string& reason) {
  Backend& backend = backends_[backend_index];
  if (!backend.alive) return;
  backend.alive = false;
  backend_errors_.fetch_add(1, std::memory_order_relaxed);
  backend_errors_counter_->Increment();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, backend.fd.get(), nullptr);
  backend_by_fd_.erase(backend.fd.get());
  backend.fd.Close();
  // Every request waiting on this backend gets a terminal error — the
  // client is never left hanging on a response that cannot come.
  std::vector<std::pair<uint64_t, Pending>> orphaned;
  for (const auto& [router_id, pending] : pending_) {
    if (pending.backend == backend_index) {
      orphaned.emplace_back(router_id, pending);
    }
  }
  for (const auto& [router_id, pending] : orphaned) {
    pending_.erase(router_id);
    auto client_it = clients_by_id_.find(pending.client_conn_id);
    if (client_it == clients_by_id_.end()) continue;
    wire::ScoreResponse response;
    response.code = StatusCode::kIoError;
    response.message = reason + " (" + backend.address + ")";
    std::vector<uint8_t> payload;
    wire::EncodeScoreResponse(response, &payload);
    SendToClient(client_it->second, wire::FrameType::kScoreResponse,
                 pending.client_request_id, payload);
  }
  backend.inflight = 0;
  inflight_gauge_->Set(static_cast<double>(pending_.size()));
}

void Router::SendToClient(const std::shared_ptr<ClientConn>& conn,
                          wire::FrameType type, uint64_t request_id,
                          const std::vector<uint8_t>& payload) {
  if (conn->closed) return;
  wire::AppendFrame(&conn->outbound, type, request_id, payload);
  MarkClientDirty(conn);
}

void Router::SendRejection(const std::shared_ptr<ClientConn>& conn,
                           wire::FrameType type, uint64_t request_id,
                           const std::string& message) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  rejected_counter_->Increment();
  wire::ScoreResponse response;
  response.code = StatusCode::kFailedPrecondition;
  response.message = message;
  response.rejected = true;
  std::vector<uint8_t> payload;
  wire::EncodeScoreResponse(response, &payload);
  SendToClient(conn, type, request_id, payload);
}

void Router::UpdateClientEpoll(ClientConn* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLET | EPOLLRDHUP;
  if (!conn->read_paused) ev.events |= EPOLLIN;
  if (conn->want_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn->fd.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
}

void Router::UpdateBackendEpoll(size_t backend_index) {
  Backend& backend = backends_[backend_index];
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
  if (backend.want_write) ev.events |= EPOLLOUT;
  ev.data.fd = backend.fd.get();
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, backend.fd.get(), &ev);
}

void Router::MarkClientDirty(const std::shared_ptr<ClientConn>& conn) {
  if (conn->dirty) return;
  conn->dirty = true;
  dirty_clients_.push_back(conn);
}

void Router::MarkBackendDirty(size_t backend_index) {
  Backend& backend = backends_[backend_index];
  if (backend.dirty) return;
  backend.dirty = true;
  dirty_backends_.push_back(backend_index);
}

void Router::FlushDirty() {
  // Indexed loops: FlushBackend → FailBackend appends to dirty_clients_.
  for (size_t i = 0; i < dirty_backends_.size(); ++i) {
    backends_[dirty_backends_[i]].dirty = false;
    FlushBackend(dirty_backends_[i]);
  }
  dirty_backends_.clear();
  for (size_t i = 0; i < dirty_clients_.size(); ++i) {
    dirty_clients_[i]->dirty = false;
    FlushClient(dirty_clients_[i]);
  }
  dirty_clients_.clear();
}

bool Router::Flush(int fd, std::vector<uint8_t>* outbound, size_t* sent) {
  uint64_t writes = 0;
  bool healthy = true;
  while (*sent < outbound->size()) {
    const ssize_t n = ::send(fd, outbound->data() + *sent,
                             outbound->size() - *sent, MSG_NOSIGNAL);
    if (n > 0) {
      *sent += static_cast<size_t>(n);
      ++writes;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    healthy = false;
    break;
  }
  if (writes > 0) {
    socket_writes_.fetch_add(writes, std::memory_order_relaxed);
    socket_writes_counter_->Increment(writes);
  }
  if (!healthy) return false;
  if (*sent == outbound->size()) {
    outbound->clear();
    *sent = 0;
  } else if (*sent > (1u << 20)) {
    outbound->erase(outbound->begin(),
                    outbound->begin() + static_cast<ptrdiff_t>(*sent));
    *sent = 0;
  }
  return true;
}

void Router::FlushClient(const std::shared_ptr<ClientConn>& conn) {
  if (conn->closed) return;
  if (!Flush(conn->fd.get(), &conn->outbound, &conn->sent)) {
    CloseClient(conn->fd.get());
    return;
  }
  bool update = UpdateReadPause(conn.get());
  const bool want_write = conn->outbound.size() > conn->sent;
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    update = true;
  }
  if (update) UpdateClientEpoll(conn.get());
}

bool Router::UpdateReadPause(ClientConn* conn) {
  const size_t backlog = conn->outbound.size() - conn->sent;
  if (!conn->read_paused && backlog > options_.write_buffer_limit) {
    conn->read_paused = true;
    read_pauses_.fetch_add(1, std::memory_order_relaxed);
    read_pauses_counter_->Increment();
    return true;
  }
  if (conn->read_paused && backlog < options_.write_buffer_limit / 2) {
    // Re-arming EPOLLIN reports input that arrived while paused.
    conn->read_paused = false;
    return true;
  }
  return false;
}

void Router::FlushBackend(size_t backend_index) {
  Backend& backend = backends_[backend_index];
  if (!backend.alive) return;
  if (!Flush(backend.fd.get(), &backend.outbound, &backend.sent)) {
    FailBackend(backend_index, "backend write failed");
    return;
  }
  const bool want_write = backend.outbound.size() > backend.sent;
  if (want_write != backend.want_write) {
    backend.want_write = want_write;
    UpdateBackendEpoll(backend_index);
  }
}

void Router::CloseClient(int fd) {
  auto it = clients_.find(fd);
  if (it == clients_.end()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  it->second->closed = true;
  clients_by_id_.erase(it->second->id);
  clients_.erase(it);
  // Pending entries for this client stay until their backend responses
  // arrive, then drop at the clients_by_id_ lookup.
}

std::string Router::StatsLine() const {
  size_t alive = 0;
  for (const Backend& backend : backends_) {
    if (backend.alive) ++alive;
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "router backends %zu/%zu | clients %zu | inflight %zu | "
                "forwarded %llu rejected %llu backend_errors %llu",
                alive, backends_.size(), clients_.size(), pending_.size(),
                static_cast<unsigned long long>(forwarded_.load()),
                static_cast<unsigned long long>(rejected_.load()),
                static_cast<unsigned long long>(backend_errors_.load()));
  return line;
}

}  // namespace mace::net
