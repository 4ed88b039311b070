#include "net/io_backend.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "net/udp_transport.h"
#include "util/logging.h"
#ifdef DNSCUP_HAVE_IO_URING
#include "net/uring_backend.h"
#endif

namespace dnscup::net {

namespace {
constexpr uint32_t kLoopbackIp = 0x7F000001;  // 127.0.0.1
/// Wait bound of the receive-handler thread; stop_receiving() ends the
/// wait early through stop_fd_, so this only caps a lost wake.
constexpr Duration kHandlerWait = milliseconds(50);
}  // namespace

IoBackend::~IoBackend() {
  stop_receiving();
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void IoBackend::set_receive_handler(ReceiveHandler handler) {
  stop_receiving();
  handler_ = std::move(handler);
  if (!handler_) return;
  if (stop_fd_ < 0) stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(stop_fd_, &count, sizeof count);
  stopping_.store(false, std::memory_order_relaxed);
  handler_thread_ = std::thread([this] { handler_loop(); });
}

void IoBackend::stop_receiving() {
  if (!handler_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_fd_, &one, sizeof one);
  handler_thread_.join();
}

void IoBackend::handler_loop() {
  const BatchReceiveHandler deliver =
      [this](std::span<const RxPacket> batch) {
        for (const RxPacket& packet : batch) handler_(packet.from, packet.data);
      };
  const Wait wait{stop_fd_, -1, kHandlerWait};
  while (!stopping_.load(std::memory_order_acquire)) {
    receive(batch_slots(), deliver, &wait);
  }
}

std::optional<IoBackendKind> parse_io_backend_kind(std::string_view text) {
  if (text == "portable") return IoBackendKind::kPortable;
  if (text == "uring" || text == "io_uring") return IoBackendKind::kUring;
  if (text == "default") return IoBackendKind::kDefault;
  return std::nullopt;
}

const char* to_string(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kDefault:
      return "default";
    case IoBackendKind::kPortable:
      return "portable";
    case IoBackendKind::kUring:
      return "uring";
  }
  return "portable";
}

IoBackendKind resolve_io_backend_kind(IoBackendKind kind) {
  if (kind != IoBackendKind::kDefault) return kind;
  const char* env = std::getenv("DNSCUP_IO_BACKEND");
  if (env == nullptr || *env == '\0') return IoBackendKind::kPortable;
  const auto parsed = parse_io_backend_kind(env);
  if (!parsed.has_value() || *parsed == IoBackendKind::kDefault) {
    DNSCUP_LOG_WARN("DNSCUP_IO_BACKEND=%s is not a backend name; "
                    "serving with portable",
                    env);
    return IoBackendKind::kPortable;
  }
  return *parsed;
}

bool uring_compiled() {
#ifdef DNSCUP_HAVE_IO_URING
  return true;
#else
  return false;
#endif
}

#ifndef DNSCUP_HAVE_IO_URING
util::Status uring_runtime_probe() {
  return util::make_error(util::ErrorCode::kUnsupported,
                          "io_uring backend not compiled in "
                          "(<linux/io_uring.h> missing at build time)");
}
#endif

util::Result<std::unique_ptr<IoBackend>> bind_io_backend(
    IoBackendKind kind, const IoBackend::Options& options) {
  kind = resolve_io_backend_kind(kind);
#ifdef DNSCUP_HAVE_IO_URING
  if (kind == IoBackendKind::kUring) {
    auto bound = UringBackend::bind(options);
    if (bound.ok()) {
      return util::Result<std::unique_ptr<IoBackend>>(
          std::move(bound).value());
    }
    if (bound.error().code != util::ErrorCode::kUnsupported) {
      return bound.error();
    }
    DNSCUP_LOG_WARN("io_uring backend unavailable (%s); "
                    "falling back to portable",
                    bound.error().message.c_str());
  }
#else
  if (kind == IoBackendKind::kUring) {
    DNSCUP_LOG_WARN("io_uring backend not compiled in; "
                    "falling back to portable");
  }
#endif
  auto bound = UdpTransport::bind(options);
  if (!bound.ok()) return bound.error();
  return util::Result<std::unique_ptr<IoBackend>>(std::move(bound).value());
}

bool pin_current_thread_to_cpu(int cpu) {
#ifdef __linux__
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof set, &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

namespace detail {

util::Result<int> open_udp_socket(const IoBackend::Options& options,
                                  Endpoint* local) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return util::make_error(util::ErrorCode::kIo,
                            std::string("socket: ") + std::strerror(errno));
  }
  if (options.reuseport) {
#ifdef SO_REUSEPORT
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      const int err = errno;
      ::close(fd);
      return util::make_error(
          util::ErrorCode::kUnsupported,
          std::string("SO_REUSEPORT: ") + std::strerror(err));
    }
#else
    ::close(fd);
    return util::make_error(util::ErrorCode::kUnsupported,
                            "SO_REUSEPORT not available on this platform");
#endif
  }
  if (options.rcvbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &options.rcvbuf_bytes,
                 sizeof options.rcvbuf_bytes);
  }
  if (options.sndbuf_bytes > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options.sndbuf_bytes,
                 sizeof options.sndbuf_bytes);
  }
#ifdef SO_RXQ_OVFL
  {
    // Ask the kernel to report receive-queue drops as ancillary data so
    // the rx overflow counter reflects real loss, not just what we
    // happened to read.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof one);
  }
#endif
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(kLoopbackIp);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    return util::make_error(util::ErrorCode::kIo,
                            std::string("bind: ") + std::strerror(err));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return util::make_error(util::ErrorCode::kIo,
                            std::string("getsockname: ") + std::strerror(err));
  }
  *local = Endpoint{kLoopbackIp, ntohs(addr.sin_port)};
  return fd;
}

}  // namespace detail
}  // namespace dnscup::net
