#include "support/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace b2h::support {

namespace {

using Clock = std::chrono::steady_clock;

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool FillSockaddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr->sun_path) {
    *error = "socket path empty or too long (max " +
             std::to_string(sizeof addr->sun_path - 1) +
             " bytes): " + path;
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

enum class IoStatus { kOk, kEof, kTimeout, kError };

/// How long a peer may go silent in the middle of a frame before it is
/// treated as dead (the read then fails as kTruncated).  Bounds how long a
/// stalled sender can pin a server connection thread past shutdown.
constexpr int kMidFrameStallMs = 5000;

/// Wait until `fd` is readable (or hung up) for at most `timeout_ms`
/// (< 0 = forever).
IoStatus WaitReadable(int fd, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    // Round the remaining time UP: a truncated sub-millisecond remainder
    // would turn into a zero-timeout poll that gives up early.
    const auto remaining_us = std::chrono::duration_cast<
        std::chrono::microseconds>(deadline - Clock::now()).count();
    const int wait_ms =
        timeout_ms < 0 ? -1
        : remaining_us > 0 ? static_cast<int>((remaining_us + 999) / 1000)
                           : 0;
    pollfd pfd{fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, wait_ms);
    if (polled > 0) return IoStatus::kOk;
    if (polled == 0) return IoStatus::kTimeout;
    if (errno != EINTR) return IoStatus::kError;
  }
}

/// Read exactly `size` bytes; `*done` counts the bytes delivered.  kTimeout
/// when the peer sends nothing for kMidFrameStallMs.  Takes what is
/// already buffered without a poll, so a frame that has arrived costs one
/// recv per part.
IoStatus ReadExact(int fd, void* buffer, std::size_t size, std::size_t* done) {
  auto* out = static_cast<char*>(buffer);
  *done = 0;
  while (*done < size) {
    const ssize_t n = ::recv(fd, out + *done, size - *done, MSG_DONTWAIT);
    if (n > 0) {
      *done += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    pollfd pfd{fd, POLLIN, 0};
    const int polled = ::poll(&pfd, 1, kMidFrameStallMs);
    if (polled == 0) return IoStatus::kTimeout;
    if (polled < 0 && errno != EINTR) return IoStatus::kError;
  }
  return IoStatus::kOk;
}

}  // namespace

const char* ToString(FrameStatus status) noexcept {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kTruncated: return "truncated";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kTimeout: return "timeout";
    case FrameStatus::kError: return "error";
  }
  return "error";
}

int ListenUnix(const std::string& path, int backlog, std::string* error) {
  sockaddr_un addr;
  if (!FillSockaddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  // A stale socket file from a crashed predecessor would make bind fail
  // with EADDRINUSE forever; the daemon owns its path, so reclaim it.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    *error = Errno("bind");
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) < 0) {
    *error = Errno("listen");
    ::close(fd);
    ::unlink(path.c_str());
    return -1;
  }
  return fd;
}

int ConnectUnix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!FillSockaddr(path, &addr, error)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return -1;
  }
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) < 0) {
    if (errno == EINTR) continue;
    *error = Errno("connect");
    ::close(fd);
    return -1;
  }
  return fd;
}

FrameStatus ReadFrame(int fd, std::string* payload,
                      std::uint32_t max_frame_bytes, int timeout_ms) {
  // The timeout bounds only the wait for the frame's first byte.  Once a
  // byte has arrived the frame is read to its end: giving up mid-frame
  // would leave the rest of it in the stream, and the next read would take
  // payload bytes for a length prefix.
  switch (WaitReadable(fd, timeout_ms)) {
    case IoStatus::kOk: break;
    case IoStatus::kTimeout: return FrameStatus::kTimeout;
    case IoStatus::kEof:
    case IoStatus::kError: return FrameStatus::kError;
  }

  unsigned char prefix[4];
  std::size_t done = 0;
  switch (ReadExact(fd, prefix, sizeof prefix, &done)) {
    case IoStatus::kOk: break;
    case IoStatus::kEof:
      // EOF on a frame boundary is a clean close; inside the prefix it is
      // a truncation.
      return done == 0 ? FrameStatus::kClosed : FrameStatus::kTruncated;
    case IoStatus::kTimeout: return FrameStatus::kTruncated;
    case IoStatus::kError: return FrameStatus::kError;
  }
  const std::uint32_t length = static_cast<std::uint32_t>(prefix[0]) |
                               (static_cast<std::uint32_t>(prefix[1]) << 8) |
                               (static_cast<std::uint32_t>(prefix[2]) << 16) |
                               (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (length > max_frame_bytes) return FrameStatus::kOversized;
  payload->resize(length);
  if (length == 0) return FrameStatus::kOk;
  switch (ReadExact(fd, payload->data(), length, &done)) {
    case IoStatus::kOk: return FrameStatus::kOk;
    case IoStatus::kEof:
    case IoStatus::kTimeout: return FrameStatus::kTruncated;
    case IoStatus::kError: return FrameStatus::kError;
  }
  return FrameStatus::kError;
}

bool WriteFrame(int fd, std::string_view payload,
                std::uint32_t max_frame_bytes) {
  if (payload.size() > max_frame_bytes) return false;
  const auto length = static_cast<std::uint32_t>(payload.size());
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(length & 0xFF),
      static_cast<unsigned char>((length >> 8) & 0xFF),
      static_cast<unsigned char>((length >> 16) & 0xFF),
      static_cast<unsigned char>((length >> 24) & 0xFF),
  };
  // Queue prefix + payload with one writev: a receiver that rejects the
  // frame on the prefix alone (oversized) and hangs up must not be able to
  // EPIPE a sender caught between two separate sends.
  iovec parts[2] = {
      {const_cast<unsigned char*>(prefix), sizeof prefix},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  msghdr msg{};
  msg.msg_iov = parts;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  std::size_t done = 0;
  const std::size_t total = sizeof prefix + payload.size();
  while (true) {
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
    if (done >= total) return true;
    // Partial write (frame larger than the socket buffer): advance the iovec.
    std::size_t skip = done;
    if (skip < sizeof prefix) {
      parts[0] = {const_cast<unsigned char*>(prefix) + skip,
                  sizeof prefix - skip};
      parts[1] = {const_cast<char*>(payload.data()), payload.size()};
      msg.msg_iov = parts;
      msg.msg_iovlen = payload.empty() ? 1 : 2;
    } else {
      skip -= sizeof prefix;
      parts[0] = {const_cast<char*>(payload.data()) + skip,
                  payload.size() - skip};
      msg.msg_iov = parts;
      msg.msg_iovlen = 1;
    }
  }
}

}  // namespace b2h::support
