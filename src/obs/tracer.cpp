#include "obs/tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/registry.hpp"

namespace ewc::obs {

namespace {

thread_local std::uint64_t t_request_id = 0;
thread_local std::uint64_t t_trace_id = 0;
thread_local std::uint64_t t_parent_span_id = 0;
thread_local double t_sim_base_seconds = 0.0;
thread_local Tracer::ThreadRing* t_ring = nullptr;

/// Ring wrap overwrites the oldest span silently; this counter makes the
/// truncation diagnosable from STATS without collecting the trace.
Counter dropped_spans_counter() {
  static Counter h = Registry::instance().counter("obs.trace.dropped_spans");
  return h;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

Tracer& Tracer::instance() {
  // Leaked: recorded-into from arbitrary threads until process exit.
  static Tracer* t = new Tracer();
  return *t;
}

double Tracer::now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::set_thread_capacity(std::size_t events) {
  std::lock_guard lock(mu_);
  capacity_ = std::max<std::size_t>(events, 16);
}

Tracer::ThreadRing* Tracer::ring_for_this_thread() {
  if (t_ring != nullptr) return t_ring;
  auto ring = std::make_shared<ThreadRing>();
  {
    std::lock_guard lock(mu_);
    ring->ring.resize(capacity_);
    ring->tid = static_cast<std::uint32_t>(rings_.size()) + 1;
    rings_.push_back(ring);
  }
  // The registry keeps the ring alive past thread exit so a post-join
  // collect() still sees the thread's events.
  t_ring = ring.get();
  return t_ring;
}

void Tracer::record(SpanEvent ev) {
  ThreadRing* r = ring_for_this_thread();
  if (ev.clock == Clock::kWall) ev.lane = r->tid;
  bool overwrote;
  {
    std::lock_guard lock(r->mu);
    overwrote = r->written >= r->ring.size();
    r->ring[r->next] = std::move(ev);
    r->next = (r->next + 1) % r->ring.size();
    r->written += 1;
  }
  if (overwrote) dropped_spans_counter().inc();
}

std::vector<SpanEvent> Tracer::collect() const {
  std::vector<std::shared_ptr<ThreadRing>> rings;
  {
    std::lock_guard lock(mu_);
    rings = rings_;
  }
  std::vector<SpanEvent> out;
  for (const auto& r : rings) {
    std::lock_guard lock(r->mu);
    const std::size_t n =
        std::min<std::uint64_t>(r->written, r->ring.size());
    // Oldest-first: when wrapped, the oldest live event sits at `next`.
    const std::size_t start = r->written > r->ring.size() ? r->next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(r->ring[(start + i) % r->ring.size()]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.clock != b.clock) return a.clock < b.clock;
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

std::uint64_t Tracer::wrapped() const {
  std::lock_guard lock(mu_);
  std::uint64_t w = 0;
  for (const auto& r : rings_) {
    std::lock_guard rlock(r->mu);
    if (r->written > r->ring.size()) w += r->written - r->ring.size();
  }
  return w;
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  for (const auto& r : rings_) {
    std::lock_guard rlock(r->mu);
    r->next = 0;
    r->written = 0;
  }
}

std::uint64_t Tracer::current_request_id() { return t_request_id; }
std::uint64_t Tracer::current_trace_id() { return t_trace_id; }
std::uint64_t Tracer::current_parent_span_id() { return t_parent_span_id; }
double Tracer::sim_base_seconds() { return t_sim_base_seconds; }

RequestScope::RequestScope(std::uint64_t id) : saved_(t_request_id) {
  t_request_id = id;
}
RequestScope::~RequestScope() { t_request_id = saved_; }

TraceScope::TraceScope(std::uint64_t trace_id, std::uint64_t parent_span_id)
    : saved_trace_(t_trace_id), saved_parent_(t_parent_span_id) {
  t_trace_id = trace_id;
  t_parent_span_id = parent_span_id;
}
TraceScope::~TraceScope() {
  t_trace_id = saved_trace_;
  t_parent_span_id = saved_parent_;
}

SimClockScope::SimClockScope(double base_seconds)
    : saved_(t_sim_base_seconds) {
  t_sim_base_seconds = base_seconds;
}
SimClockScope::~SimClockScope() { t_sim_base_seconds = saved_; }

void instant(std::string name, std::uint64_t request_id, std::string args) {
  if (!Tracer::enabled()) return;
  SpanEvent ev;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.ts_us = Tracer::now_us();
  ev.request_id = request_id ? request_id : Tracer::current_request_id();
  ev.trace_id = t_trace_id;
  ev.parent_span_id = t_parent_span_id;
  Tracer::instance().record(std::move(ev));
}

void sim_span(std::string name, double start_seconds, double dur_seconds,
              std::uint32_t lane, std::string args,
              std::uint64_t request_id) {
  if (!Tracer::enabled()) return;
  SpanEvent ev;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.clock = Clock::kSim;
  ev.ts_us = (t_sim_base_seconds + start_seconds) * 1e6;
  ev.dur_us = dur_seconds * 1e6;
  ev.lane = lane;
  ev.request_id = request_id ? request_id : Tracer::current_request_id();
  ev.trace_id = t_trace_id;
  ev.parent_span_id = t_parent_span_id;
  Tracer::instance().record(std::move(ev));
}

void sim_instant(std::string name, double at_seconds, std::uint32_t lane,
                 std::string args, std::uint64_t request_id) {
  if (!Tracer::enabled()) return;
  SpanEvent ev;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.clock = Clock::kSim;
  ev.ts_us = (t_sim_base_seconds + at_seconds) * 1e6;
  ev.lane = lane;
  ev.request_id = request_id ? request_id : Tracer::current_request_id();
  ev.trace_id = t_trace_id;
  ev.parent_span_id = t_parent_span_id;
  Tracer::instance().record(std::move(ev));
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ewc::obs
