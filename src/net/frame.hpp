// Length-prefixed binary framing over a stream socket.
//
// Every ewcd message travels as one frame:
//
//   offset  size  field
//   0       4     magic   0x45574331 ("EWC1", little-endian on the wire)
//   4       2     type    message type (ewc::server::MsgType)
//   6       2     flags   reserved, must be 0
//   8       4     length  payload byte count, <= kMaxFramePayload
//   12      len   payload message body (net::Writer encoding)
//
// A bad magic, non-zero flags, or an oversized length is a protocol error:
// the stream cannot be resynchronized, so the connection must be dropped.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace ewc::net {

inline constexpr std::uint32_t kFrameMagic = 0x45574331;  // "1CWE" LE = EWC1
inline constexpr std::size_t kFrameHeaderSize = 12;
/// Generous for this protocol (the largest real message is a launch request
/// of a few hundred bytes) while still bounding a malicious length field.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

struct Frame {
  std::uint16_t type = 0;
  std::vector<std::byte> payload;
};

struct FrameHeader {
  std::uint16_t type = 0;
  std::uint32_t length = 0;
};

/// Validate and decode a 12-byte frame header from `bytes` (which must hold
/// at least kFrameHeaderSize). Returns false with *error on bad magic,
/// non-zero flags, or an oversized length — the stream cannot be
/// resynchronized past any of these. Shared by the blocking read_frame path
/// and the reactor's incremental parser.
bool parse_frame_header(std::span<const std::byte> bytes, FrameHeader* out,
                        std::string* error);

/// Encode one frame (header + payload) onto the end of `out`, so several
/// frames can leave in one write. False, with nothing appended, when the
/// payload exceeds kMaxFramePayload.
bool append_frame(std::vector<std::byte>& out, std::uint16_t type,
                  std::span<const std::byte> payload);

/// Serialize and send one frame before the deadline.
IoStatus write_frame(Socket& sock, std::uint16_t type,
                     std::span<const std::byte> payload,
                     const Deadline& deadline, std::string* error);

/// Receive one frame. kEof only when the peer closed between frames.
IoStatus read_frame(Socket& sock, Frame* out, const Deadline& deadline,
                    std::string* error);

/// Bytes received from a stream, not yet parsed into frames. The reactor's
/// per-connection input and the client's reader both read into one of
/// these a whole burst at a time and then pop every complete frame.
class FrameBuffer {
 public:
  enum class Pop { kFrame, kIncomplete, kBad };

  /// Room for `n` more bytes at the end; commit() what was written there.
  std::byte* prepare(std::size_t n);
  void commit(std::size_t n) { end_ += n; }
  void append(std::span<const std::byte> bytes);

  /// The next complete frame, kIncomplete when only part of one is here,
  /// or kBad (with *error) when the header is invalid — the stream cannot
  /// be resynchronized.
  Pop pop(Frame* out, std::string* error);

  /// No buffered bytes: the stream is between frames.
  bool empty() const { return begin_ == end_; }
  /// Forget everything buffered (the stream it came from is gone).
  void clear() { begin_ = end_ = 0; }

 private:
  std::vector<std::byte> buf_;
  std::size_t begin_ = 0;  ///< first unparsed byte
  std::size_t end_ = 0;    ///< one past the last received byte
};

/// Receive one frame through `buffer`: frames already buffered come out
/// with no system call; otherwise one poll and one recv of up to 64 KiB,
/// so a burst of frames costs one recv. kEof only when the peer closed
/// between frames. The net.recv fault site fires once per recv issued.
IoStatus read_frame(Socket& sock, FrameBuffer& buffer, Frame* out,
                    const Deadline& deadline, std::string* error);

}  // namespace ewc::net
