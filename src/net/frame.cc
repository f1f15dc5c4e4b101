#include "net/frame.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "net/wire.h"

namespace invarnetx::net {
namespace {

static_assert(std::numeric_limits<double>::is_iec559,
              "the binary dialect ships raw IEEE-754 doubles");
static_assert(sizeof(double) == 8 && sizeof(serve::MonitorHandle) == 4,
              "wire layout assumes 8-byte doubles and 4-byte handles");
// TICK samples copy their doubles to and from the wire with memcpy, so the
// host byte order must be the wire's.
static_assert(std::endian::native == std::endian::little,
              "the binary dialect copies doubles as host bytes");

// uint32 length (includes the type byte) + uint8 type.
constexpr size_t kFrameHeaderBytes = 5;

void StoreU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}

uint32_t LoadU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

void StoreHeader(char* out, FrameType type, size_t payload_size) {
  StoreU32(out, static_cast<uint32_t>(payload_size + 1));
  out[4] = static_cast<char>(type);
}

void AppendU16(std::string* out, uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff),
                         static_cast<char>(v >> 8)};
  out->append(bytes, 2);
}

void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  StoreU32(bytes, v);
  out->append(bytes, 4);
}

void AppendI32(std::string* out, int32_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
}

// Strict forward-only cursor over a decode payload.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ReadU16(uint16_t* v) {
    if (data_.size() - pos_ < 2) return false;
    *v = static_cast<uint16_t>(
        static_cast<uint8_t>(data_[pos_]) |
        (static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + 1])) << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = LoadU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t raw = 0;
    if (!ReadU32(&raw)) return false;
    std::memcpy(v, &raw, 4);
    return true;
  }

  bool ReadString8(std::string* v) {
    if (pos_ >= data_.size()) return false;
    const size_t len = static_cast<uint8_t>(data_[pos_]);
    if (data_.size() - pos_ - 1 < len) return false;
    v->assign(data_.data() + pos_ + 1, len);
    pos_ += 1 + len;
    return true;
  }

  bool Done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what + " frame");
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  char header[kFrameHeaderBytes];
  StoreHeader(header, type, payload.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
  return out;
}

Result<std::string> EncodeHello(const std::vector<HelloEntry>& entries) {
  std::string payload;
  AppendU16(&payload, kProtocolVersion);
  AppendU32(&payload, static_cast<uint32_t>(entries.size()));
  for (const HelloEntry& entry : entries) {
    // str8 fields carry a 1-byte length; a longer string would silently
    // desync the frame, so refuse to encode it.
    if (entry.workload.size() > 255 || entry.node_ip.size() > 255) {
      return Status::InvalidArgument(
          "HELLO context field exceeds 255 bytes: '" +
          entry.workload.substr(0, 32) + "@" + entry.node_ip.substr(0, 32) +
          "...'");
    }
    payload.push_back(static_cast<char>(entry.workload.size()));
    payload.append(entry.workload);
    payload.push_back(static_cast<char>(entry.node_ip.size()));
    payload.append(entry.node_ip);
  }
  return EncodeFrame(FrameType::kHello, payload);
}

std::string EncodeHelloAck(const std::vector<serve::MonitorHandle>& handles) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(handles.size()));
  for (const serve::MonitorHandle handle : handles) {
    AppendI32(&payload, handle);
  }
  return EncodeFrame(FrameType::kHelloAck, payload);
}

std::string EncodeTick(const std::vector<serve::TickSample>& samples) {
  std::string frame;
  EncodeTickInto(samples, &frame);
  return frame;
}

void EncodeTickInto(const std::vector<serve::TickSample>& samples,
                    std::string* frame) {
  const size_t payload_size = 4 + samples.size() * kBinarySampleBytes;
  frame->resize(kFrameHeaderBytes + payload_size);
  char* out = frame->data();
  StoreHeader(out, FrameType::kTick, payload_size);
  StoreU32(out + kFrameHeaderBytes, static_cast<uint32_t>(samples.size()));
  out += kFrameHeaderBytes + 4;
  for (const serve::TickSample& sample : samples) {
    StoreU32(out, static_cast<uint32_t>(sample.monitor));
    std::memcpy(out + 4, &sample.cpi, sizeof(sample.cpi));
    std::memcpy(out + 12, sample.metrics.data(), sizeof(sample.metrics));
    out += kBinarySampleBytes;
  }
}

std::string EncodeTickReply(const TickOutcome& outcome) {
  std::string payload;
  AppendU32(&payload, outcome.accepted);
  AppendU32(&payload, outcome.rejected);
  return EncodeFrame(outcome.rejected == 0 ? FrameType::kTickAck
                                           : FrameType::kBackpressure,
                     payload);
}

std::string EncodeEndJobAck(uint32_t alarms_active) {
  std::string payload;
  AppendU32(&payload, alarms_active);
  return EncodeFrame(FrameType::kEndJobAck, payload);
}

std::string EncodeEmpty(FrameType type) { return EncodeFrame(type, {}); }

std::string EncodeErr(std::string_view message) {
  return EncodeFrame(FrameType::kErr, message);
}

Result<std::vector<HelloEntry>> DecodeHello(std::string_view payload) {
  Cursor cursor(payload);
  uint16_t version = 0;
  uint32_t count = 0;
  if (!cursor.ReadU16(&version)) return Truncated("HELLO");
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!cursor.ReadU32(&count)) return Truncated("HELLO");
  // Bound the count against the bytes actually shipped before reserving:
  // every entry needs at least its two length bytes, so a 10-byte payload
  // claiming 2^32 entries is rejected here instead of driving a huge
  // allocation. (6 = version + count already consumed.)
  if (count > (payload.size() - 6) / 2) {
    return Status::InvalidArgument(
        "HELLO count does not fit its payload size");
  }
  std::vector<HelloEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HelloEntry entry;
    if (!cursor.ReadString8(&entry.workload) ||
        !cursor.ReadString8(&entry.node_ip)) {
      return Truncated("HELLO");
    }
    if (entry.workload.empty() || entry.node_ip.empty()) {
      return Status::InvalidArgument("empty context in HELLO");
    }
    entries.push_back(std::move(entry));
  }
  if (!cursor.Done()) {
    return Status::InvalidArgument("trailing bytes after HELLO entries");
  }
  if (entries.empty()) {
    return Status::InvalidArgument("HELLO negotiates no contexts");
  }
  return entries;
}

Result<std::vector<serve::MonitorHandle>> DecodeHelloAck(
    std::string_view payload) {
  Cursor cursor(payload);
  uint32_t count = 0;
  if (!cursor.ReadU32(&count)) return Truncated("HELLO-ACK");
  // Exact-size check before the reserve, mirroring DecodeTick: a lying
  // count must not drive the allocation, and trailing or missing bytes
  // fail in the same comparison.
  if (payload.size() != 4 + static_cast<size_t>(count) * 4) {
    return Status::InvalidArgument(
        "HELLO-ACK payload size does not match its handle count");
  }
  std::vector<serve::MonitorHandle> handles;
  handles.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    serve::MonitorHandle handle = serve::kInvalidMonitor;
    cursor.ReadI32(&handle);
    handles.push_back(handle);
  }
  return handles;
}

Result<std::vector<serve::TickSample>> DecodeTick(std::string_view payload) {
  std::vector<serve::TickSample> samples;
  INVARNETX_RETURN_IF_ERROR(DecodeTickInto(payload, &samples));
  return samples;
}

Status DecodeTickInto(std::string_view payload,
                      std::vector<serve::TickSample>* samples) {
  if (payload.size() < 4) return Truncated("TICK");
  const uint32_t count = LoadU32(payload.data());
  // The exact-size check up front makes the per-sample loop unconditional
  // and rejects truncation/trailing garbage in one comparison - before the
  // batch is touched, so a lying count neither sizes it nor clobbers it.
  if (payload.size() != 4 + static_cast<size_t>(count) * kBinarySampleBytes) {
    return Status::InvalidArgument(
        "TICK payload size does not match its sample count");
  }
  samples->resize(count);
  const char* in = payload.data() + 4;
  for (serve::TickSample& sample : *samples) {
    sample.monitor = static_cast<serve::MonitorHandle>(LoadU32(in));
    std::memcpy(&sample.cpi, in + 4, sizeof(sample.cpi));
    std::memcpy(sample.metrics.data(), in + 12, sizeof(sample.metrics));
    in += kBinarySampleBytes;
  }
  return Status::Ok();
}

Result<TickOutcome> DecodeTickReply(std::string_view payload) {
  Cursor cursor(payload);
  TickOutcome outcome;
  if (!cursor.ReadU32(&outcome.accepted) ||
      !cursor.ReadU32(&outcome.rejected) || !cursor.Done()) {
    return Truncated("TICK-ACK");
  }
  return outcome;
}

Result<uint32_t> DecodeEndJobAck(std::string_view payload) {
  Cursor cursor(payload);
  uint32_t alarms = 0;
  if (!cursor.ReadU32(&alarms) || !cursor.Done()) {
    return Truncated("ENDJOB-ACK");
  }
  return alarms;
}

Result<Frame> ReadFrame(int fd, size_t max_payload) {
  Frame frame;
  INVARNETX_RETURN_IF_ERROR(ReadFrameInto(fd, max_payload, &frame));
  return frame;
}

Status ReadFrameInto(int fd, size_t max_payload, Frame* frame) {
  // Length and type normally arrive together and come in one recv. The
  // length is checked as soon as its 4 bytes are in, so a zero-length or
  // oversized frame is refused without waiting for a type byte.
  char header[kFrameHeaderBytes];
  const size_t got = ReadAtLeast(fd, header, 4, sizeof(header));
  if (got == 0) {
    return Status::IoError("connection closed reading frame header");
  }
  const uint32_t length = LoadU32(header);
  if (length == 0) return Status::InvalidArgument("zero-length frame");
  if (length > max_payload + 1) {
    return Status::InvalidArgument("oversized frame: " +
                                   std::to_string(length) + " bytes > max " +
                                   std::to_string(max_payload + 1));
  }
  if (got < sizeof(header) && !ReadFull(fd, header + 4, 1)) {
    return Status::IoError("connection closed reading frame type");
  }
  frame->type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  frame->payload.resize(length - 1);
  if (length > 1 && !ReadFull(fd, frame->payload.data(), length - 1)) {
    return Status::IoError("connection closed mid-frame");
  }
  return Status::Ok();
}

Status WriteFrame(int fd, const std::string& encoded) {
  if (!WriteAll(fd, encoded)) {
    return Status::IoError("short write on frame");
  }
  return Status::Ok();
}

std::string FormatSampleLine(const serve::TickSample& sample) {
  char buf[32];
  std::string line = std::to_string(sample.monitor);
  std::snprintf(buf, sizeof(buf), " %.17g", sample.cpi);
  line += buf;
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    std::snprintf(buf, sizeof(buf), " %.17g",
                  sample.metrics[static_cast<size_t>(m)]);
    line += buf;
  }
  return line;
}

Result<serve::TickSample> ParseSampleLine(std::string_view line) {
  serve::TickSample sample;
  // strtol/strtod need a terminated buffer; copy once (sample lines are
  // short) rather than assuming the caller's backing store is terminated.
  const std::string owned(line);
  const char* cursor = owned.c_str();
  char* next = nullptr;
  const long handle = std::strtol(cursor, &next, 10);
  if (next == cursor || handle < 0 ||
      handle > std::numeric_limits<serve::MonitorHandle>::max()) {
    return Status::InvalidArgument("sample line: bad handle");
  }
  sample.monitor = static_cast<serve::MonitorHandle>(handle);
  cursor = next;
  sample.cpi = std::strtod(cursor, &next);
  if (next == cursor) {
    return Status::InvalidArgument("sample line: bad cpi");
  }
  cursor = next;
  for (int m = 0; m < telemetry::kNumMetrics; ++m) {
    sample.metrics[static_cast<size_t>(m)] = std::strtod(cursor, &next);
    if (next == cursor) {
      return Status::InvalidArgument("sample line: bad metric " +
                                     std::to_string(m));
    }
    cursor = next;
  }
  while (cursor != owned.c_str() + owned.size() &&
         (*cursor == ' ' || *cursor == '\r')) {
    ++cursor;
  }
  if (*cursor != '\0') {
    return Status::InvalidArgument("sample line: trailing fields");
  }
  return sample;
}

}  // namespace invarnetx::net
