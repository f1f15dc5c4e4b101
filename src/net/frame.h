#ifndef INVARNETX_NET_FRAME_H_
#define INVARNETX_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "serve/fleet.h"

// Wire codec of the ingest protocol (DESIGN.md section 14). A connection
// speaks one of two dialects, chosen by its first bytes:
//
//   binary  - the 4-byte magic "INVX", then length-prefixed frames:
//             uint32 payload length (little-endian, includes the type
//             byte), uint8 frame type, payload. Doubles travel as raw
//             IEEE-754 little-endian bytes, so a TICK sample is exactly
//             4 + 8 + 26*8 = 220 bytes and round trips bit-identically -
//             the determinism argument for socket vs. replay ingest.
//   text    - newline-terminated ASCII commands (HELLO / JOB / TICK /
//             ENDJOB / BYE), `nc`-friendly; doubles printed with %.17g so
//             strtod recovers the exact bits.
//
// Both dialects drive the same session state machine; parse errors are
// strict (ERR reply, connection closed) in both.
namespace invarnetx::net {

inline constexpr char kBinaryMagic[4] = {'I', 'N', 'V', 'X'};
inline constexpr uint16_t kProtocolVersion = 1;
// Frames whose declared payload exceeds this are a parse error before any
// allocation happens (IngestServerOptions can raise it for huge fleets).
inline constexpr size_t kDefaultMaxFramePayload = 8u << 20;
// One TICK sample on the binary wire: int32 handle, double cpi, 26 doubles.
inline constexpr size_t kBinarySampleBytes =
    4 + 8 + static_cast<size_t>(telemetry::kNumMetrics) * 8;

enum class FrameType : uint8_t {
  // Client -> server.
  kHello = 0x01,   // version + operation contexts to negotiate handles for
  kJob = 0x02,     // (re-)arm every negotiated monitor: one job starts
  kTick = 0x03,    // one batched ingest tick of handle-stamped samples
  kEndJob = 0x04,  // job over: wait for diagnoses, render verdicts
  kBye = 0x05,     // clean end of session
  // Server -> client.
  kErr = 0x7F,           // strict parse / protocol error; connection closes
  kHelloAck = 0x81,      // dense MonitorHandles, one per HELLO context
  kJobAck = 0x82,
  kTickAck = 0x83,       // accepted/rejected counts, rejected == 0
  kEndJobAck = 0x84,     // latched alarm count for the finished job
  kBackpressure = 0x85,  // like kTickAck but rejected > 0: ring overflow
  kByeAck = 0x86,
};

struct Frame {
  FrameType type = FrameType::kErr;
  std::string payload;
};

// One negotiated monitor stream: the operation context whose handle the
// producer wants.
struct HelloEntry {
  std::string workload;  // workload::WorkloadName spelling
  std::string node_ip;
};

// Outcome of one TICK: how many samples the fleet admitted and how many
// the per-shard ring quota rejected (DESIGN.md section 13 backpressure).
struct TickOutcome {
  uint32_t accepted = 0;
  uint32_t rejected = 0;
};

// --- Binary encoding (every Encode* returns a full frame, length prefix
// included, ready for one WriteAll). ---

std::string EncodeFrame(FrameType type, std::string_view payload);
// Fails if any workload / node_ip exceeds the 255-byte str8 limit (a masked
// length would silently desync the frame).
Result<std::string> EncodeHello(const std::vector<HelloEntry>& entries);
std::string EncodeHelloAck(const std::vector<serve::MonitorHandle>& handles);
std::string EncodeTick(const std::vector<serve::TickSample>& samples);
// The same TICK frame, written over `*frame` (resized to fit, header in
// place) so a producer that keeps one buffer encodes without allocating once
// the buffer has held a frame this large. EncodeTick wraps it.
void EncodeTickInto(const std::vector<serve::TickSample>& samples,
                    std::string* frame);
// kTickAck when rejected == 0, kBackpressure otherwise.
std::string EncodeTickReply(const TickOutcome& outcome);
std::string EncodeEndJobAck(uint32_t alarms_active);
std::string EncodeEmpty(FrameType type);
std::string EncodeErr(std::string_view message);

// --- Binary decoding. Strict: trailing bytes, truncated fields, and
// out-of-range counts are errors, never best-effort parses. ---

Result<std::vector<HelloEntry>> DecodeHello(std::string_view payload);
Result<std::vector<serve::MonitorHandle>> DecodeHelloAck(
    std::string_view payload);
// Decodes a TICK payload into handle-stamped samples.
Result<std::vector<serve::TickSample>> DecodeTick(std::string_view payload);
// The same decode into a batch the caller keeps: on success `*samples` is
// resized to the frame's count and every sample is overwritten, so nothing
// of an earlier, longer tick survives. On error the batch is left as it
// was. Allocation-free once the batch has held this many samples.
// DecodeTick wraps it.
Status DecodeTickInto(std::string_view payload,
                      std::vector<serve::TickSample>* samples);
Result<TickOutcome> DecodeTickReply(std::string_view payload);
Result<uint32_t> DecodeEndJobAck(std::string_view payload);

// Reads one length-prefixed frame off a connected socket. Enforces
// max_payload before allocating; EOF or a timeout mid-frame is an IoError.
Result<Frame> ReadFrame(int fd, size_t max_payload);
// The same read into a frame the caller keeps: the payload string is resized
// in place (only after the max_payload check), so a reader that keeps one
// Frame stops allocating once it has held a frame this large. On error the
// frame's contents are unspecified. ReadFrame wraps it.
Status ReadFrameInto(int fd, size_t max_payload, Frame* frame);

// --- Text dialect helpers (shared by server, client, and tests). ---

// Splits a command or reply line on single spaces; runs of spaces yield no
// empty tokens.
std::vector<std::string> Tokenize(const std::string& line);

// "H CPI M0 .. M25" with %.17g doubles; the TICK body line for one sample.
std::string FormatSampleLine(const serve::TickSample& sample);
// Parses one TICK body line; strict field count and numeric syntax, and
// the handle must lie in 0..INT32_MAX.
Result<serve::TickSample> ParseSampleLine(std::string_view line);

}  // namespace invarnetx::net

#endif  // INVARNETX_NET_FRAME_H_
