#include "obs/prometheus.hpp"

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/shard_scope.hpp"

namespace ewc::obs::prom {

namespace {

bool valid_metric_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string sanitize_metric_name(const std::string& dotted) {
  std::string body;
  body.reserve(dotted.size());
  for (char c : dotted) body += valid_metric_char(c) ? c : '_';
  if (body.rfind("ewc_", 0) == 0) return body;
  return "ewc_" + body;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_exposition(const std::map<std::string, double>& values) {
  // family name -> [(shard label or empty, value)]
  std::map<std::string, std::vector<std::pair<std::string, double>>> families;
  for (const auto& [dotted, value] : values) {
    const auto scoped = parse_shard_scope(dotted);
    families[sanitize_metric_name(scoped ? scoped->name : dotted)]
        .emplace_back(scoped ? std::to_string(scoped->shard) : "", value);
  }
  std::string out;
  for (const auto& [family, samples] : families) {
    out += "# TYPE " + family + " gauge\n";
    for (const auto& [shard, value] : samples) {
      out += family;
      if (!shard.empty()) {
        out += "{shard=\"" + escape_label_value(shard) + "\"}";
      }
      out += ' ' + format_value(value) + '\n';
    }
  }
  return out;
}

}  // namespace ewc::obs::prom
