// `ewcsim top` — live fleet telemetry over the kStats frame's series part.
//
// Polls a daemon or router endpoint for its time-series rings (rps, p95
// latency, median batch fill time, power draw, joules/request, inflight —
// fleet-wide plus the shard.<i>.* breakdown a router serves) and renders a
// terminal dashboard with per-column sparklines, refreshed in place.
// One-shot modes for scripting and CI:
//
//   ewcsim top --socket tcp:HOST:PORT                live dashboard
//   ewcsim top --socket ... --once                   one frame, no ANSI
//   ewcsim top --socket ... --once --json            ewcd-top/v1 JSON
//   ewcsim top --socket ... --once --prometheus      text exposition 0.0.4
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "common/units.hpp"
#include "obs/shard_scope.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "server/client.hpp"
#include "server/protocol_wire.hpp"

namespace ewc::cli {

namespace {

/// The eight-level block glyphs, lowest to highest.
const char* const kSparkLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};

/// Render the newest `width` points as a sparkline scaled to the window's
/// min..max (a flat series renders as the lowest glyph).
std::string sparkline(const obs::SeriesSnapshot& series, std::size_t width) {
  if (series.points.empty() || width == 0) return "";
  const std::size_t n = std::min(width, series.points.size());
  const std::size_t first = series.points.size() - n;
  double lo = series.points[first].value;
  double hi = lo;
  for (std::size_t i = first; i < series.points.size(); ++i) {
    lo = std::min(lo, series.points[i].value);
    hi = std::max(hi, series.points[i].value);
  }
  std::string out;
  for (std::size_t i = first; i < series.points.size(); ++i) {
    int level = 0;
    if (hi > lo) {
      const double t = (series.points[i].value - lo) / (hi - lo);
      level = std::clamp(static_cast<int>(t * 7.0 + 0.5), 0, 7);
    }
    out += kSparkLevels[level];
  }
  return out;
}

double last_value(const std::map<std::string, obs::SeriesSnapshot>& series,
                  const std::string& name) {
  const auto it = series.find(name);
  if (it == series.end() || it->second.points.empty()) return 0.0;
  return it->second.points.back().value;
}

std::string fmt(double v, int precision = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

/// Shard indices present in the reply ("shard.<i>." prefixes), sorted.
std::vector<int> shard_indices(
    const std::map<std::string, obs::SeriesSnapshot>& series) {
  std::vector<int> out;
  for (const auto& [name, snap] : series) {
    const auto scoped = obs::parse_shard_scope(name);
    if (scoped.has_value() &&
        std::find(out.begin(), out.end(), scoped->shard) == out.end()) {
      out.push_back(scoped->shard);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// One dashboard row: current value + sparkline per column.
void render_row(std::ostream& out, const std::string& scope,
                const std::map<std::string, obs::SeriesSnapshot>& series,
                const std::string& prefix, std::size_t spark_width) {
  auto find = [&](const char* name) -> const obs::SeriesSnapshot* {
    const auto it = series.find(prefix + name);
    return it == series.end() ? nullptr : &it->second;
  };
  auto cell = [&](const char* name, double scale, int precision) {
    const obs::SeriesSnapshot* s = find(name);
    const double v =
        (s == nullptr || s->points.empty()) ? 0.0 : s->points.back().value;
    std::string text = fmt(v * scale, precision);
    if (s != nullptr) text += " " + sparkline(*s, spark_width);
    return text;
  };
  char scope_col[32];
  std::snprintf(scope_col, sizeof scope_col, "%-9s", scope.c_str());
  // Sparklines are multi-byte glyphs; pad by glyph count, not bytes.
  auto pad = [&](std::string text, std::size_t glyphs) {
    std::size_t count = 0;
    for (const char c : text) {
      if ((static_cast<unsigned char>(c) & 0xC0) != 0x80) ++count;
    }
    while (count++ < glyphs) text += ' ';
    return text;
  };
  out << scope_col << pad(cell("rps", 1.0, 1), spark_width + 10)
      << pad(cell("p95_seconds", 1e3, 2), spark_width + 10)
      << pad(cell("fill_p50_seconds", 1e3, 2), spark_width + 10)
      << pad(cell("power_watts", 1.0, 1), spark_width + 10)
      << pad(cell("joules_per_request", 1.0, 3), spark_width + 10)
      << pad(fmt(last_value(series, prefix + "inflight"), 0), 9)
      << pad(fmt(last_value(series, prefix + "sessions"), 0), 9)
      << fmt(last_value(series, prefix + "sessions_migrated"), 0) << "\n";
}

void render_frame(std::ostream& out, const std::string& endpoint,
                  const server::StatsReplyMsg& reply,
                  std::size_t spark_width) {
  out << "ewcsim top — " << endpoint << "  (uptime "
      << fmt(static_cast<double>(reply.uptime_micros) * 1e-6, 1)
      << " s, tick " << fmt(reply.interval_seconds, 2) << " s)\n\n";
  auto head = [&](const char* name) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-*s", static_cast<int>(spark_width + 10),
                  name);
    return std::string(buf);
  };
  out << "scope    " << head("rps") << head("p95 ms") << head("fill p50 ms")
      << head("watts") << head("J/req") << "inflight sessions migrated\n";
  render_row(out, "fleet", reply.series, "", spark_width);
  for (const int idx : shard_indices(reply.series)) {
    render_row(out, "shard " + std::to_string(idx), reply.series,
               obs::shard_prefix(static_cast<std::size_t>(idx)), spark_width);
  }
  if (reply.interval_seconds <= 0.0) {
    out << "\n(sampler disabled on the target — no series; run the daemon "
           "with --metrics-interval > 0)\n";
  }
}

/// ewcd-top/v1: the newest value per series plus the full rings, one JSON
/// object, stable field order (series sorted by name).
void render_json(std::ostream& out, const std::string& endpoint,
                 const server::StatsReplyMsg& reply) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"schema\":\"ewcd-top/v1\",\"endpoint\":\""
     << obs::json_escape(endpoint) << "\",\"uptime_seconds\":"
     << static_cast<double>(reply.uptime_micros) * 1e-6
     << ",\"interval_seconds\":" << reply.interval_seconds << ",\"last\":{";
  bool first = true;
  for (const auto& [name, snap] : reply.series) {
    if (snap.points.empty()) continue;
    os << (first ? "" : ",") << "\"" << obs::json_escape(name)
       << "\":" << snap.points.back().value;
    first = false;
  }
  os << "},\"series\":{";
  first = true;
  for (const auto& [name, snap] : reply.series) {
    os << (first ? "" : ",") << "\"" << obs::json_escape(name) << "\":[";
    for (std::size_t i = 0; i < snap.points.size(); ++i) {
      os << (i ? "," : "") << "[" << snap.points[i].t_seconds << ","
         << snap.points[i].value << "]";
    }
    os << "]";
    first = false;
  }
  os << "}}";
  out << os.str() << "\n";
}

}  // namespace

int cmd_top(const std::vector<std::string>& args, std::ostream& out) {
  FlagParser flags({
      {"socket",
       "daemon/router endpoint: unix:/path, tcp:host:port, or a bare path; "
       "comma-separate a failover list (primary,standby)",
       false, false},
      {"interval", "refresh cadence, s (default 1)", false, false},
      {"iterations",
       "frames to render before exiting (default 0 = until killed)",
       false, false},
      {"spark", "sparkline width, points (default 24)", false, false},
      {"once", "print one frame and exit (no ANSI redraw)", true, false},
      {"json", "with --once: print the ewcd-top/v1 JSON snapshot", true,
       false},
      {"prometheus",
       "with --once: print the Prometheus text exposition instead", true,
       false},
      {"connect-timeout", "daemon connect budget, s (default 10)", false,
       false},
      {"timeout", "per-poll reply budget, s (default 10)", false, false},
  });
  flags.parse(args);
  const auto socket_path = flags.value("socket");
  if (!socket_path.has_value()) throw ArgsError("--socket is required");
  const bool once = flags.get_bool("once");
  const bool as_json = flags.get_bool("json");
  const bool as_prometheus = flags.get_bool("prometheus");
  if ((as_json || as_prometheus) && !once) {
    throw ArgsError("--json/--prometheus require --once");
  }
  if (as_json && as_prometheus) {
    throw ArgsError("--json and --prometheus are mutually exclusive");
  }
  const double interval = flags.get_double_in("interval", 1.0, 0.05, 3600.0);
  const int iterations = flags.get_int_in("iterations", 0, 0, 1 << 20);
  const auto spark_width =
      static_cast<std::size_t>(flags.get_int_in("spark", 24, 1, 120));
  const auto connect_timeout = common::Duration::from_seconds(
      flags.get_double_in("connect-timeout", 10.0, 0.1, 3600.0));
  const auto reply_timeout = common::Duration::from_seconds(
      flags.get_double_in("timeout", 10.0, 0.1, 3600.0));

  std::string error;
  auto conn = server::ClientConnection::connect(*socket_path, "ewcsim-top",
                                                connect_timeout, &error);
  if (conn == nullptr) throw ArgsError("cannot connect: " + error);

  int frame = 0;
  int consecutive_failures = 0;
  for (;;) {
    if (conn == nullptr || !conn->alive()) {
      conn.reset();
      conn = server::ClientConnection::connect(*socket_path, "ewcsim-top",
                                               connect_timeout, &error);
    }
    std::optional<server::StatsReplyMsg> reply;
    if (conn != nullptr) {
      server::StatsMsg request;
      request.include_histograms = false;
      request.include_series = true;
      request.include_prometheus = as_prometheus;
      reply = conn->stats(request, reply_timeout);
    }
    if (!reply.has_value()) {
      if (once || ++consecutive_failures >= 3) {
        throw ArgsError(
            "no stats reply (daemon too old for the STATS frame, or timed "
            "out)");
      }
    } else {
      consecutive_failures = 0;
      if (as_prometheus) {
        out << reply->prometheus_text;
      } else if (as_json) {
        render_json(out, *socket_path, *reply);
      } else {
        // Live mode repaints in place; --once prints one plain frame.
        if (!once) out << (frame == 0 ? "\x1b[2J\x1b[H" : "\x1b[H\x1b[J");
        render_frame(out, *socket_path, *reply, spark_width);
      }
      out.flush();
    }
    ++frame;
    if (once || (iterations > 0 && frame >= iterations)) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  return 0;
}

}  // namespace ewc::cli
