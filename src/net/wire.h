#ifndef INVARNETX_NET_WIRE_H_
#define INVARNETX_NET_WIRE_H_

#include <cstddef>
#include <string>

// Blocking socket I/O helpers shared by the HTTP endpoint and the ingest
// protocol: full-buffer writes and exact-length reads that retry on EINTR
// and partial transfers, honoring whatever SO_RCVTIMEO/SO_SNDTIMEO the
// accept path installed.
namespace invarnetx::net {

// Writes the whole buffer; false on error (the fd's send timeout counts).
bool WriteAll(int fd, const void* data, size_t len);
bool WriteAll(int fd, const std::string& data);

// Reads exactly `len` bytes; false on EOF, error, or timeout.
bool ReadFull(int fd, void* data, size_t len);

// Reads at least `min_len` (> 0) and at most `max_len` bytes, taking what
// each recv returns; the count read, or 0 on EOF, error, or timeout before
// `min_len` bytes arrived.
size_t ReadAtLeast(int fd, void* data, size_t min_len, size_t max_len);

// Buffered newline-delimited reader for the text dialects (ingest text
// protocol, protocol sniffing). Strips the trailing "\n" (and "\r" before
// it); a line longer than max_line_bytes is an error, not a partial line.
class LineReader {
 public:
  explicit LineReader(int fd, size_t max_line_bytes = 1 << 20)
      : fd_(fd), max_line_bytes_(max_line_bytes) {}

  // Hands bytes already read off the socket (protocol sniffing) back to the
  // reader; they are consumed before any further recv.
  void Preload(const std::string& bytes) { buffer_.insert(0, bytes); }

  // Reads one line; false on EOF, error, timeout, or an overlong line.
  bool ReadLine(std::string* line);

 private:
  int fd_;
  size_t max_line_bytes_;
  std::string buffer_;
};

}  // namespace invarnetx::net

#endif  // INVARNETX_NET_WIRE_H_
