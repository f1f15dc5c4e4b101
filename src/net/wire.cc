#include "net/wire.h"

#include <sys/socket.h>

#include <cerrno>

namespace invarnetx::net {

bool WriteAll(int fd, const void* data, size_t len) {
  const char* bytes = static_cast<const char*>(data);
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, bytes + off, len - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const std::string& data) {
  return WriteAll(fd, data.data(), data.size());
}

bool ReadFull(int fd, void* data, size_t len) {
  return len == 0 || ReadAtLeast(fd, data, len, len) == len;
}

size_t ReadAtLeast(int fd, void* data, size_t min_len, size_t max_len) {
  char* bytes = static_cast<char*>(data);
  size_t off = 0;
  while (off < min_len) {
    const ssize_t n = ::recv(fd, bytes + off, max_len - off, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return 0;  // EOF, timeout, or reset
    off += static_cast<size_t>(n);
  }
  return off;
}

bool LineReader::ReadLine(std::string* line) {
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      size_t end = newline;
      if (end > 0 && buffer_[end - 1] == '\r') --end;
      line->assign(buffer_, 0, end);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (buffer_.size() > kMaxLineBytes) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace invarnetx::net
