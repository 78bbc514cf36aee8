#include "net/event_loop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "wire/messages.h"

namespace mace::net {
namespace {

// epoll keys below the first connection id.
constexpr uint64_t kListenKey = 0;
constexpr uint64_t kWakeKey = 1;

Status EpollAdd(int epoll_fd, int fd, uint32_t events, uint64_t key) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = key;
  if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IoError(std::string("epoll_ctl add failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void FramedConn::Send(wire::FrameType type, uint64_t request_id,
                      const std::vector<uint8_t>& payload) {
  if (closed_) return;
  wire::AppendFrame(&outbound_, type, request_id, payload);
  loop_->frames_tx_.Add();
  loop_->MarkDirty(this);
}

void FramedConn::SendEncoded(const std::vector<uint8_t>& frame) {
  if (closed_) return;
  outbound_.insert(outbound_.end(), frame.begin(), frame.end());
  loop_->frames_tx_.Add();
  loop_->MarkDirty(this);
}

void FramedConn::SendError(wire::FrameType type, uint64_t request_id,
                           StatusCode code, const std::string& message,
                           bool rejected) {
  wire::ScoreResponse response;
  response.code = code;
  response.message = message;
  response.rejected = rejected;
  std::vector<uint8_t> payload;
  wire::EncodeScoreResponse(response, &payload);
  Send(type, request_id, payload);
}

EventLoop::EventLoop(const std::string& role, size_t write_buffer_limit)
    : write_buffer_limit_(write_buffer_limit),
      connections_("mace_net_connections_total", "TCP connections accepted",
                   role),
      protocol_errors_("mace_net_protocol_errors_total",
                       "Connections dropped for MWIREv1 protocol violations",
                       role),
      frames_rx_("mace_net_frames_rx_total", "Wire frames received", role),
      frames_tx_("mace_net_frames_tx_total", "Wire frames sent", role),
      read_pauses_("mace_net_read_pauses_total",
                   "Times backpressure paused reading a connection", role),
      socket_writes_("mace_net_socket_writes_total",
                     "send() calls that moved bytes", role),
      connections_open_(obs::Metrics().GetGauge(
          "mace_net_connections_open", "Currently open connections",
          {{"role", role}})) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Open() {
  epoll_fd_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return Status::IoError("epoll_create1 failed");
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) return Status::IoError("eventfd failed");
  return EpollAdd(epoll_fd_.get(), wake_fd_.get(), EPOLLIN, kWakeKey);
}

Result<uint16_t> EventLoop::Listen(const std::string& host, uint16_t port,
                                   size_t max_connections,
                                   FrameHandler* handler) {
  uint16_t bound = 0;
  MACE_ASSIGN_OR_RETURN(listen_fd_, TcpListen(host, port, &bound));
  MACE_RETURN_IF_ERROR(SetNonBlocking(listen_fd_.get()));
  MACE_RETURN_IF_ERROR(
      EpollAdd(epoll_fd_.get(), listen_fd_.get(), EPOLLIN, kListenKey));
  listen_handler_ = handler;
  max_connections_ = max_connections;
  return bound;
}

Result<std::shared_ptr<FramedConn>> EventLoop::Adopt(Fd fd,
                                                     FrameHandler* handler) {
  MACE_RETURN_IF_ERROR(SetNonBlocking(fd.get()));
  return Register(std::move(fd), handler, /*accepted=*/false);
}

Result<std::shared_ptr<FramedConn>> EventLoop::Register(
    Fd fd, FrameHandler* handler, bool accepted) {
  const uint64_t id = next_id_++;
  MACE_RETURN_IF_ERROR(EpollAdd(epoll_fd_.get(), fd.get(),
                                EPOLLIN | EPOLLET | EPOLLRDHUP, id));
  auto conn =
      std::make_shared<FramedConn>(this, std::move(fd), id, handler, accepted);
  conns_.emplace(id, conn);
  return conn;
}

void EventLoop::Start() {
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

void EventLoop::Post(std::function<void()> task) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (stopped_) return;  // `task` is destroyed unrun, outside the lock
    wake = inbox_.empty();
    inbox_.push_back(std::move(task));
  }
  if (wake) Wake();
}

void EventLoop::Stop() {
  if (stopping_.exchange(true)) return;
  if (wake_fd_.valid()) Wake();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    stopped_ = true;
    inbox_.clear();
  }
  conns_.clear();
  dirty_.clear();
  accepted_open_ = 0;
  connections_open_->Set(0.0);
}

FramedConn* EventLoop::Find(uint64_t id) const {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t key = events[i].data.u64;
      if (key == kListenKey) {
        Accept();
        continue;
      }
      if (key == kWakeKey) {
        RunPosted();
        continue;
      }
      auto it = conns_.find(key);
      if (it == conns_.end()) continue;  // closed earlier in this pass
      std::shared_ptr<FramedConn> conn = it->second;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        Close(conn, "connection error");
        continue;
      }
      if (events[i].events & EPOLLOUT) MarkDirty(conn.get());
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn);
    }
    FlushDirty();
  }
}

void EventLoop::RunPosted() {
  // Drain before the swap: a task posted after the swap either finds
  // the inbox empty and writes the eventfd again, or rides the wake of
  // the task that made it non-empty.
  uint64_t drained;
  while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
  }
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    running_.swap(inbox_);
  }
  for (auto& task : running_) task();
  running_.clear();  // keeps the capacity for the next swap
}

void EventLoop::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: wait for next event
    }
    if (accepted_open_ >= max_connections_) {
      ::close(fd);
      continue;
    }
    (void)SetNoDelay(fd);
    if (!Register(Fd(fd), listen_handler_, /*accepted=*/true).ok()) continue;
    ++accepted_open_;
    connections_.Add();
    connections_open_->Set(static_cast<double>(accepted_open_));
  }
}

void EventLoop::HandleReadable(const std::shared_ptr<FramedConn>& conn) {
  uint8_t buffer[64 * 1024];
  while (!conn->read_paused_) {
    const ssize_t n = ::recv(conn->fd_.get(), buffer, sizeof(buffer), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) Close(conn, "read failed");
      return;
    }
    if (n == 0) {
      Close(conn, "connection closed by peer");
      return;
    }
    conn->decoder_.Append(buffer, static_cast<size_t>(n));
    for (;;) {
      Result<std::optional<wire::OwnedFrame>> next = conn->decoder_.Next();
      if (next.ok() && !next.value().has_value()) break;
      if (next.ok()) frames_rx_.Add();
      if (!next.ok() ||
          !conn->handler_->OnFrame(*conn, std::move(*next.value()))) {
        protocol_errors_.Add();
        Close(conn, "protocol error");
        return;
      }
    }
    // Replies wait for the end of the pass, so a client that never reads
    // is checked per chunk and one pass buffers about the limit for it.
    if (UpdateReadPause(conn.get())) UpdateEpoll(conn.get());
  }
}

void EventLoop::MarkDirty(FramedConn* conn) {
  if (conn->dirty_) return;
  conn->dirty_ = true;
  dirty_.push_back(conn->shared_from_this());
}

void EventLoop::FlushDirty() {
  // Indexed: a failed flush closes a peer whose handler may mark others.
  for (size_t i = 0; i < dirty_.size(); ++i) {
    std::shared_ptr<FramedConn> conn = dirty_[i];
    conn->dirty_ = false;
    FlushConn(conn);
  }
  dirty_.clear();
}

void EventLoop::FlushConn(const std::shared_ptr<FramedConn>& conn) {
  if (conn->closed_) return;
  if (!Write(conn.get())) {
    Close(conn, "write failed");
    return;
  }
  bool update = UpdateReadPause(conn.get());
  const bool want_write = conn->backlog() > 0;
  if (want_write != conn->want_write_) {
    conn->want_write_ = want_write;
    update = true;
  }
  if (update) UpdateEpoll(conn.get());
}

bool EventLoop::Write(FramedConn* conn) {
  std::vector<uint8_t>& outbound = conn->outbound_;
  while (conn->sent_ < outbound.size()) {
    const ssize_t n = ::send(conn->fd_.get(), outbound.data() + conn->sent_,
                             outbound.size() - conn->sent_, MSG_NOSIGNAL);
    if (n > 0) {
      conn->sent_ += static_cast<size_t>(n);
      socket_writes_.Add();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn->sent_ == outbound.size()) {
    outbound.clear();
    conn->sent_ = 0;
  } else if (conn->sent_ > (1u << 20)) {
    outbound.erase(outbound.begin(),
                   outbound.begin() + static_cast<ptrdiff_t>(conn->sent_));
    conn->sent_ = 0;
  }
  return true;
}

bool EventLoop::UpdateReadPause(FramedConn* conn) {
  if (!conn->accepted_) return false;
  const size_t backlog = conn->backlog();
  if (!conn->read_paused_ && backlog > write_buffer_limit_) {
    conn->read_paused_ = true;
    read_pauses_.Add();
    return true;
  }
  if (conn->read_paused_ && backlog < write_buffer_limit_ / 2) {
    // Re-arming EPOLLIN reports input that arrived while paused.
    conn->read_paused_ = false;
    return true;
  }
  return false;
}

void EventLoop::UpdateEpoll(FramedConn* conn) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLET | EPOLLRDHUP;
  if (!conn->read_paused_) ev.events |= EPOLLIN;
  if (conn->want_write_) ev.events |= EPOLLOUT;
  ev.data.u64 = conn->id_;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd_.get(), &ev);
}

void EventLoop::Close(const std::shared_ptr<FramedConn>& conn,
                      const std::string& reason) {
  if (conn->closed_) return;
  conn->closed_ = true;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd_.get(), nullptr);
  conn->fd_.Close();
  conns_.erase(conn->id_);
  if (conn->accepted_) {
    --accepted_open_;
    connections_open_->Set(static_cast<double>(accepted_open_));
  }
  conn->handler_->OnClose(*conn, reason);
}

}  // namespace mace::net
