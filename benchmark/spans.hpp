// Spans the benchmark records around its own calls into the system, kept
// in memory and written once at the end as a Chrome-trace JSON file
// (chrome://tracing or ui.perfetto.dev).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ewc::bench {

/// Thread lanes of the trace file.
enum Lane : int { kBenchLane = 1, kRequestLane = 2, kReplayLane = 3 };

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< steady clock
  std::int64_t end_ns = 0;
  int lane = kBenchLane;
  std::uint64_t id = 0;  ///< request or group index; 0 = none
};

class SpanLog {
 public:
  /// Keeps at most `cap` spans; later ones are counted and dropped.
  explicit SpanLog(std::size_t cap) : cap_(cap) {}

  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int lane, std::uint64_t id = 0);

  /// Write every kept span as a complete ("X") event. False with *error on
  /// I/O failure.
  bool write_chrome_trace(const std::string& path, std::string* error) const;

 private:
  std::size_t cap_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace ewc::bench
