#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "obs/tracer.hpp"

namespace ewc::bench {

void SpanLog::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns, int lane, std::uint64_t id) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back({std::move(name), start_ns, end_ns, lane, id});
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
      << dropped_ << "},\"traceEvents\":[\n";
  const char* lanes[] = {"", "ewc_bench", "requests", "replay"};
  for (int lane = kBenchLane; lane <= kReplayLane; ++lane) {
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << lane
        << ",\"args\":{\"name\":\"" << lanes[lane] << "\"}}"
        << (lane < kReplayLane || !spans_.empty() ? ",\n" : "\n");
  }
  char num[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"name\":\""
        << obs::json_escape(s.name) << "\"";
    std::snprintf(num, sizeof num, ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << num << ",\"args\":{\"id\":" << s.id << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace ewc::bench
