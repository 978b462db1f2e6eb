#include "net/http_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace ldpm {
namespace net {

namespace {

/// Kernel accept backlog of the listening socket.
constexpr int kAcceptBacklog = 16;

/// Extracts method and path+query from "METHOD SP TARGET SP VERSION...".
/// Returns false on anything that does not parse as a request line.
bool ParseRequestLine(std::string_view request, std::string_view& method,
                      std::string_view& target) {
  const size_t line_end = request.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? request : request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  method = line.substr(0, sp1);
  target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return !method.empty() && !target.empty();
}

/// `text` without leading and trailing spaces, tabs and CRs.
std::string_view Trim(std::string_view text) {
  const size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  return text.substr(first, text.find_last_not_of(" \t\r") - first + 1);
}

/// ASCII case-insensitive equality; `lower` must be lower case.
bool EqualsNoCase(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return true;
}

/// EPOLL_CTL_ADD or EPOLL_CTL_MOD of `fd` for `events`.
bool EpollCtl(int epoll_fd, int op, int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  return ::epoll_ctl(epoll_fd, op, fd, &event) == 0;
}

Status ErrnoStatus(const char* what) {
  return Status::FailedPrecondition(std::string("HttpServer: ") + what + ": " +
                                    std::strerror(errno));
}

}  // namespace

HttpHeadSplit SplitHttpRequestHead(std::string_view stream) {
  HttpHeadSplit split;
  // One pass that stops at the first terminator, so framing a run of
  // pipelined heads costs their length, not length times count.
  for (size_t i = stream.find('\n'); i != std::string_view::npos;
       i = stream.find('\n', i + 1)) {
    if ((i >= 1 && stream[i - 1] == '\n') ||
        (i >= 3 && stream.substr(i - 3, 3) == "\r\n\r")) {
      split.length = i + 1;
      break;
    }
  }
  if (split.length == 0) return split;
  // The head ends in '\n', so every find('\n') below succeeds.
  const std::string_view head = stream.substr(0, split.length);
  size_t line_end = head.find('\n');
  const std::string_view request_line = Trim(head.substr(0, line_end));
  const size_t version = request_line.rfind(' ');
  split.keep_alive = version != std::string_view::npos &&
                     request_line.substr(version + 1) == "HTTP/1.1";
  for (size_t pos = line_end + 1; split.keep_alive && pos < head.size();
       pos = line_end + 1) {
    line_end = head.find('\n', pos);
    const std::string_view line = head.substr(pos, line_end - pos);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    const std::string_view name = Trim(line.substr(0, colon));
    // Bodies are never read, so a request that announces one must be the
    // connection's last: its body bytes would otherwise be read as the
    // next request head.
    if (EqualsNoCase(name, "transfer-encoding") ||
        (EqualsNoCase(name, "content-length") &&
         Trim(line.substr(colon + 1)) != "0")) {
      split.keep_alive = false;
    }
    if (!EqualsNoCase(name, "connection")) continue;
    std::string_view tokens = line.substr(colon + 1);
    while (!tokens.empty()) {
      const size_t comma = tokens.find(',');
      if (EqualsNoCase(Trim(tokens.substr(0, comma)), "close")) {
        split.keep_alive = false;
      }
      tokens = comma == std::string_view::npos ? std::string_view()
                                               : tokens.substr(comma + 1);
    }
  }
  return split;
}

bool ParseHttpRequestHead(std::string_view head, HttpRequest* out) {
  std::string_view method, target;
  if (!ParseRequestLine(head, method, target)) return false;
  out->method = std::string(method);
  const size_t q = target.find('?');
  out->path = std::string(target.substr(0, q));
  if (q != std::string_view::npos) {
    out->query = std::string(target.substr(q + 1));
  } else {
    out->query.clear();
  }
  return !out->path.empty();
}

std::optional<std::string> HttpRequest::Param(std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return eq == std::string_view::npos
                 ? std::string()
                 : std::string(pair.substr(eq + 1));
    }
  }
  return std::nullopt;
}

std::string_view HttpReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string RenderHttpResponse(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.code) + " ";
  out += HttpReasonPhrase(response.code);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                    : "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

// ---- The serve loop ---------------------------------------------------------

/// The serve thread's state: every open connection, and the one rule that
/// drives each — write the response in flight, else answer the next
/// complete head, else read. Only the serve thread touches it.
class HttpServer::Loop {
 public:
  explicit Loop(HttpServer& server) : server_(server) {}

  ~Loop() {
    if (server_.options_.connections != nullptr) {
      server_.options_.connections->Add(
          -static_cast<int64_t>(connections_.size()));
    }
  }

  Loop(const Loop&) = delete;
  Loop& operator=(const Loop&) = delete;

  /// Serves until Stop() signals the eventfd.
  void Run() {
    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(server_.epoll_fd_, events, 64, WaitMillis());
      if (n < 0 && errno != EINTR) return;
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == server_.wake_fd_) return;
        if (fd == server_.listener_.fd()) {
          AcceptAll();
          continue;
        }
        // A connection closed earlier in this batch has no entry; a stale
        // event for a reused fd only costs a non-blocking call that finds
        // nothing to do.
        auto found = by_fd_.find(fd);
        if (found != by_fd_.end()) Serve(found->second);
      }
      ExpireIdle();
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    explicit Connection(Socket accepted) : socket(std::move(accepted)) {}

    Socket socket;
    /// Received bytes not yet answered: at most one partial head, or
    /// pipelined heads waiting behind the response in flight.
    std::string in;
    /// The response in flight ("" when none) and how much of it is sent.
    std::string out;
    size_t out_sent = 0;
    /// Close once `out` is sent (Connection: close, 400, 408).
    bool close_after_out = false;
    /// The peer half-closed its side: no more request bytes will come.
    bool peer_eof = false;
    /// The registered epoll interest: EPOLLIN, or EPOLLOUT while `out` waits
    /// for send-buffer space.
    uint32_t events = EPOLLIN;
    /// Last read or write progress; the deadline is this + idle_timeout.
    Clock::time_point last_progress;
  };
  /// Ordered by last_progress, oldest first: the front holds the earliest
  /// deadline, since every connection shares idle_timeout.
  using List = std::list<Connection>;

  /// Until the earliest deadline; forever when no connection is open.
  int WaitMillis() const {
    if (connections_.empty()) return -1;
    const auto remaining = connections_.front().last_progress +
                           server_.options_.idle_timeout - Clock::now();
    if (remaining <= Clock::duration::zero()) return 0;
    return static_cast<int>(std::min<int64_t>(
        std::chrono::ceil<std::chrono::milliseconds>(remaining).count(),
        INT_MAX));
  }

  void AcceptAll() {
    for (;;) {
      const int fd = ::accept4(server_.listener_.fd(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: backlog drained; other errors retry on next wake
      }
      Socket socket(fd);
      if (connections_.size() >= kMaxHttpConnections) {
        Shed(socket);
        continue;
      }
      // Responses are whole and written at once: Nagle would only hold the
      // tail of one back for the client's delayed ACK.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (!EpollCtl(server_.epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN)) {
        continue;  // the socket closes here
      }
      connections_.emplace_back(std::move(socket));
      const auto it = std::prev(connections_.end());
      it->last_progress = Clock::now();
      by_fd_.emplace(fd, it);
      if (server_.options_.connections != nullptr) {
        server_.options_.connections->Add(1);
      }
    }
  }

  /// Answers a connection accepted over the cap 503 and lets it close. The
  /// response is a few dozen bytes into a fresh, empty send buffer.
  void Shed(Socket& socket) {
    const std::string rendered = RenderHttpResponse(
        {503, "text/plain", "too many connections\n"}, /*keep_alive=*/false);
    (void)::send(socket.fd(), rendered.data(), rendered.size(), MSG_NOSIGNAL);
    if (server_.options_.connections_shed != nullptr) {
      server_.options_.connections_shed->Increment();
    }
  }

  void Serve(List::iterator it) {
    if (!Advance(it)) Close(it, /*reset=*/false);
  }

  /// Drives one connection as far as it goes without blocking. Returns
  /// false when the connection is done (closing response sent, peer gone,
  /// or EOF between requests).
  bool Advance(List::iterator it) {
    Connection& c = *it;
    const int fd = c.socket.fd();
    // One recv per wake: the heads it completes are answered, then the
    // connection goes back to epoll (level-triggered, so bytes still queued
    // wake it again) behind the other ready connections, the deadline sweep
    // and Stop(). A client that keeps requests queued cannot hold the loop.
    bool received = false;
    for (;;) {
      if (!c.out.empty()) {
        const ssize_t n = ::send(fd, c.out.data() + c.out_sent,
                                 c.out.size() - c.out_sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return Watch(c, EPOLLOUT);
          }
          return false;
        }
        Touch(it);
        c.out_sent += static_cast<size_t>(n);
        if (c.out_sent < c.out.size()) continue;
        if (c.close_after_out) return false;
        c.out.clear();
        c.out_sent = 0;
      }
      const HttpHeadSplit head = SplitHttpRequestHead(c.in);
      if (head.length > kMaxHttpRequestBytes ||
          (head.length == 0 && c.in.size() >= kMaxHttpRequestBytes)) {
        Respond(c, {400, "text/plain", "request too large\n"}, false);
        continue;
      }
      if (head.length > 0) {
        Answer(c, std::string_view(c.in).substr(0, head.length),
               head.keep_alive);
        c.in.erase(0, head.length);
        continue;
      }
      if (c.peer_eof) {
        if (c.in.empty()) return false;
        Respond(c, {400, "text/plain", "malformed request\n"}, false);
        continue;
      }
      if (received) return Watch(c, EPOLLIN);
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        Touch(it);
        c.in.append(chunk, static_cast<size_t>(n));
        received = true;
      } else if (n == 0) {
        c.peer_eof = true;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Watch(c, EPOLLIN);
      } else if (errno != EINTR) {
        return false;
      }
    }
  }

  /// Answers one complete head: 400 if it does not parse, 405 for
  /// anything but GET, else whatever the handler says.
  void Answer(Connection& c, std::string_view head, bool keep_alive) {
    HttpRequest request;
    if (!ParseHttpRequestHead(head, &request)) {
      Respond(c, {400, "text/plain", "malformed request\n"}, false);
    } else if (request.method != "GET") {
      Respond(c, {405, "text/plain", "only GET is supported\n"}, keep_alive);
    } else {
      Respond(c, server_.handler_(request), keep_alive);
    }
  }

  /// Makes `response` the connection's one response in flight. A 405
  /// closes too: the refused request may carry a body that was not read.
  void Respond(Connection& c, const HttpResponse& response, bool keep_alive) {
    keep_alive = keep_alive && response.code != 400 && response.code != 405 &&
                 response.code != 408 && response.code != 503;
    c.out = RenderHttpResponse(response, keep_alive);
    c.out_sent = 0;
    c.close_after_out = !keep_alive;
    server_.requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (server_.options_.requests_counter != nullptr) {
      server_.options_.requests_counter->Increment();
    }
  }

  /// Re-registers the connection's epoll interest when it changes.
  bool Watch(Connection& c, uint32_t events) {
    if (c.events == events) return true;
    if (!EpollCtl(server_.epoll_fd_, EPOLL_CTL_MOD, c.socket.fd(), events)) {
      return false;
    }
    c.events = events;
    return true;
  }

  /// Records progress: the connection's deadline moves to now +
  /// idle_timeout, which is the latest, so it moves to the back.
  void Touch(List::iterator it) {
    it->last_progress = Clock::now();
    connections_.splice(connections_.end(), connections_, it);
  }

  /// Applies the no-progress deadline to every connection past it.
  void ExpireIdle() {
    const auto now = Clock::now();
    while (!connections_.empty() &&
           now - connections_.front().last_progress >=
               server_.options_.idle_timeout) {
      const auto it = connections_.begin();
      if (!it->out.empty()) {
        // Stopped reading its response: a graceful close would leave the
        // unsent tail queued against a closed window.
        Close(it, /*reset=*/true);
      } else if (it->in.empty()) {
        Close(it, /*reset=*/false);  // idle between requests
      } else {
        // Stalled mid-head: answer 408, which gets one more deadline.
        Respond(*it, {408, "text/plain", "request timed out\n"}, false);
        Touch(it);
        Serve(it);
      }
    }
  }

  void Close(List::iterator it, bool reset) {
    if (server_.options_.connections != nullptr) {
      server_.options_.connections->Add(-1);
    }
    // Closing the fd also removes it from the epoll set (it is never
    // duplicated).
    by_fd_.erase(it->socket.fd());
    if (reset) it->socket.CloseWithReset();
    connections_.erase(it);
  }

  HttpServer& server_;
  List connections_;
  std::unordered_map<int, List::iterator> by_fd_;
};

// ---- HttpServer -------------------------------------------------------------

HttpServer::HttpServer(HttpHandler handler, const HttpServerOptions& options)
    : handler_(std::move(handler)), options_(options) {}

StatusOr<std::unique_ptr<HttpServer>> HttpServer::Start(
    HttpHandler handler, const HttpServerOptions& options) {
  if (handler == nullptr) {
    return Status::InvalidArgument("HttpServer: handler must not be null");
  }
  if (options.idle_timeout.count() <= 0) {
    return Status::InvalidArgument("HttpServer: idle_timeout must be > 0");
  }
  auto listener =
      Socket::Listen(options.bind_address, options.port, kAcceptBacklog);
  if (!listener.ok()) return listener.status();
  auto port = listener->local_port();
  if (!port.ok()) return port.status();
  std::unique_ptr<HttpServer> server(
      new HttpServer(std::move(handler), options));
  server->listener_ = *std::move(listener);
  server->port_ = *port;
  const int listener_fd = server->listener_.fd();
  const int flags = ::fcntl(listener_fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listener_fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return ErrnoStatus("fcntl");
  }
  server->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (server->epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  server->wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (server->wake_fd_ < 0) return ErrnoStatus("eventfd");
  for (const int fd : {listener_fd, server->wake_fd_}) {
    if (!EpollCtl(server->epoll_fd_, EPOLL_CTL_ADD, fd, EPOLLIN)) {
      return ErrnoStatus("epoll_ctl");
    }
  }
  server->serve_thread_ =
      std::thread([raw = server.get()] { Loop(*raw).Run(); });
  return server;
}

HttpServer::~HttpServer() {
  Stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void HttpServer::Stop() {
  core::MutexLock stop_lock(stop_mu_);
  if (stopped_) return;
  if (serve_thread_.joinable()) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
    serve_thread_.join();
  }
  listener_.Close();
  stopped_ = true;
}

}  // namespace net
}  // namespace ldpm
