#include "net/frame.hpp"

#include <algorithm>
#include <vector>

#include "fault/injector.hpp"
#include "net/wire.hpp"

namespace ewc::net {

bool append_frame(std::vector<std::byte>& out, std::uint16_t type,
                  std::span<const std::byte> payload) {
  if (payload.size() > kMaxFramePayload) return false;
  Writer w(std::move(out));
  w.u32(kFrameMagic);
  w.u16(type);
  w.u16(0);  // flags
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  out = w.take();
  return true;
}

IoStatus write_frame(Socket& sock, std::uint16_t type,
                     std::span<const std::byte> payload,
                     const Deadline& deadline, std::string* error) {
  std::vector<std::byte> frame;
  if (!append_frame(frame, type, payload)) {
    if (error) *error = "frame payload too large";
    return IoStatus::kError;
  }
  if (auto a = fault::hit("net.frame.send")) {
    std::span<const std::byte> bytes = frame;
    switch (a.kind) {
      case fault::ActionKind::kCorrupt: {
        // Flip one seeded bit anywhere in the assembled frame — header
        // corruption desynchronizes the stream, payload corruption must be
        // caught by the codec's bounds checks.
        auto mutated = std::vector<std::byte>(bytes.begin(), bytes.end());
        const std::size_t bit = a.draw % (mutated.size() * 8);
        mutated[bit / 8] ^= std::byte{static_cast<unsigned char>(1u << (bit % 8))};
        return sock.send_exact(mutated.data(), mutated.size(), deadline, error);
      }
      case fault::ActionKind::kClose: {
        // Torn frame: a prefix, then a dead stream.
        const std::size_t keep =
            a.bytes > 0 ? std::min(a.bytes, bytes.size()) : bytes.size() / 2;
        (void)sock.send_exact(bytes.data(), keep, deadline, error);
        sock.shutdown_rw();
        if (error) *error = "injected torn frame";
        return IoStatus::kError;
      }
      case fault::ActionKind::kDrop:
        // Lost in transit; the sender believes it got through.
        return IoStatus::kOk;
      case fault::ActionKind::kStall:
      case fault::ActionKind::kDelay:
        fault::sleep_for(a.duration);
        break;
      default:
        break;
    }
  }
  // One send for header+payload: frames from concurrent writers guarded by a
  // mutex can never interleave mid-frame.
  return sock.send_exact(frame.data(), frame.size(), deadline, error);
}

bool parse_frame_header(std::span<const std::byte> bytes, FrameHeader* out,
                        std::string* error) {
  Reader r(bytes.first(kFrameHeaderSize));
  const std::uint32_t magic = r.u32();
  out->type = r.u16();
  const std::uint16_t flags = r.u16();
  out->length = r.u32();
  if (magic != kFrameMagic) {
    if (error) *error = "bad frame magic";
    return false;
  }
  if (flags != 0) {
    if (error) *error = "unsupported frame flags";
    return false;
  }
  if (out->length > kMaxFramePayload) {
    if (error) *error = "frame payload too large";
    return false;
  }
  return true;
}

IoStatus read_frame(Socket& sock, Frame* out, const Deadline& deadline,
                    std::string* error) {
  std::byte header[kFrameHeaderSize];
  IoStatus s = sock.recv_exact(header, sizeof(header), deadline, error);
  if (s != IoStatus::kOk) return s;

  FrameHeader h;
  if (!parse_frame_header(std::span<const std::byte>(header, sizeof(header)),
                          &h, error)) {
    return IoStatus::kError;
  }
  const std::uint32_t length = h.length;
  out->type = h.type;
  out->payload.resize(length);
  if (length > 0) {
    s = sock.recv_exact(out->payload.data(), length, deadline, error);
    if (s == IoStatus::kEof) {
      // Peer vanished between header and payload: a torn frame, not a
      // clean close.
      if (error) *error = "EOF inside frame payload";
      return IoStatus::kError;
    }
    if (s != IoStatus::kOk) return s;
  }
  return IoStatus::kOk;
}

std::byte* FrameBuffer::prepare(std::size_t n) {
  if (begin_ == end_) begin_ = end_ = 0;
  if (buf_.size() - end_ < n) {
    // Slide the unparsed tail to the front before growing.
    if (begin_ > 0) {
      std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(begin_),
                buf_.begin() + static_cast<std::ptrdiff_t>(end_),
                buf_.begin());
      end_ -= begin_;
      begin_ = 0;
    }
    if (buf_.size() - end_ < n) buf_.resize(end_ + n);
  }
  return buf_.data() + end_;
}

void FrameBuffer::append(std::span<const std::byte> bytes) {
  std::copy(bytes.begin(), bytes.end(), prepare(bytes.size()));
  commit(bytes.size());
}

FrameBuffer::Pop FrameBuffer::pop(Frame* out, std::string* error) {
  if (end_ - begin_ < kFrameHeaderSize) return Pop::kIncomplete;
  const std::byte* at = buf_.data() + begin_;
  FrameHeader h;
  if (!parse_frame_header(std::span<const std::byte>(at, kFrameHeaderSize),
                          &h, error)) {
    return Pop::kBad;
  }
  if (end_ - begin_ - kFrameHeaderSize < h.length) return Pop::kIncomplete;
  out->type = h.type;
  out->payload.assign(at + kFrameHeaderSize,
                      at + kFrameHeaderSize + h.length);
  begin_ += kFrameHeaderSize + h.length;
  return Pop::kFrame;
}

IoStatus read_frame(Socket& sock, FrameBuffer& buffer, Frame* out,
                    const Deadline& deadline, std::string* error) {
  constexpr std::size_t kBurst = 65536;
  for (;;) {
    switch (buffer.pop(out, error)) {
      case FrameBuffer::Pop::kFrame:
        return IoStatus::kOk;
      case FrameBuffer::Pop::kBad:
        return IoStatus::kError;
      case FrameBuffer::Pop::kIncomplete:
        break;
    }
    std::size_t got = 0;
    const IoStatus s =
        sock.recv_some(buffer.prepare(kBurst), kBurst, &got, deadline, error);
    if (s == IoStatus::kEof && !buffer.empty()) {
      if (error) *error = "EOF inside frame";
      return IoStatus::kError;
    }
    if (s != IoStatus::kOk) return s;
    buffer.commit(got);
  }
}

}  // namespace ewc::net
