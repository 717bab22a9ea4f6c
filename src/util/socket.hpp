// Thin loopback TCP socket wrapper — the transport under the serve
// layer (src/serve/).  Deliberately minimal and POSIX-only: the daemon
// speaks a length-prefixed framed protocol to local clients (the
// "millions of users" story terminates at a loopback reverse proxy in
// any real deployment), so all the repo needs is blocking connect /
// accept / send_all / recv_all plus an interruptible accept for clean
// shutdown.  No third-party dependency, matching the repo's bake-our-own
// policy for JSON (util/json.hpp).
//
// Error model: constructors and connect_loopback throw
// std::runtime_error (with errno text) when the OS refuses; I/O methods
// return false on peer disconnect instead of throwing, because a client
// hanging up mid-frame is normal traffic for a server, not a program
// error.  Writes use MSG_NOSIGNAL so a vanished peer can never deliver
// SIGPIPE to the daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace antdense::util {

/// A connected stream socket (move-only fd owner).
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of a connected fd (accept's result).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  static Socket connect_loopback(std::uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Writes all `size` bytes; false when the peer is gone (EPIPE /
  /// ECONNRESET), throws std::runtime_error on any other OS error.
  bool send_all(const void* data, std::size_t size);

  /// Reads exactly `size` bytes; false on EOF or reset before the last
  /// byte (a truncated frame), throws on any other OS error.
  bool recv_all(void* data, std::size_t size);

  /// Half-close both directions (unblocks a peer or a thread blocked in
  /// recv on this socket); safe on an already-closed socket.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

/// A listening socket bound to 127.0.0.1 (port 0 = OS-assigned; the
/// actual port is readable afterwards, which is how tests and the
/// tier-1 `app_serve` check in tests/app_checks.py avoid port
/// collisions).
class ListenSocket {
 public:
  explicit ListenSocket(std::uint16_t port);
  ~ListenSocket();

  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  std::uint16_t port() const { return port_; }

  /// Blocks until a connection arrives (returning it) or `wake_fd`
  /// becomes readable / the listener is closed (returning an invalid
  /// Socket).  Pass wake_fd = -1 to wait on the listener alone.
  Socket accept_interruptible(int wake_fd);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A self-pipe: one readable fd, one writable fd.  The write end is
/// async-signal-safe and thread-safe to poke (used to wake accept loops
/// and signal waiters); the read end is what pollers watch.
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();

  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  /// Writes one byte (best effort; a full pipe already wakes the poller).
  void poke();
  /// Drains pending bytes so the pipe can signal again.
  void drain();

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace antdense::util
