// Bit-exact binary serialization for the ewcd wire protocol.
//
// Fixed little-endian encoding, independent of host byte order. Doubles
// travel as their IEEE-754 bit pattern (via std::bit_cast), so every value —
// including NaNs, denormals and signed zeros — round-trips exactly; this is
// what makes the socket-served results bit-identical to in-process runs.
// Reader failure is sticky: any underflow poisons the reader and every
// subsequent read returns a zero value, so decoders check ok() once at the
// end instead of after every field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ewc::net {

class Writer {
 public:
  /// Append to `out` (empty by default): encoders can fill one buffer back
  /// to back.
  explicit Writer(std::vector<std::byte> out = {}) : out_(std::move(out)) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  /// IEEE-754 bit pattern; exact for every double value.
  void f64(double v);
  /// u32 length + raw bytes.
  void str(std::string_view v);
  void raw(std::span<const std::byte> bytes);

  const std::vector<std::byte>& bytes() const { return out_; }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();

  /// False once any read ran past the end (sticky).
  bool ok() const { return !failed_; }
  /// True when every byte was consumed and no read failed.
  bool done() const { return !failed_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  /// Grab `n` bytes or poison the reader; returns nullptr on failure.
  const std::byte* take(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace ewc::net
