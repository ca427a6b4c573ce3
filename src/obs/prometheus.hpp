// Prometheus text exposition (version 0.0.4) for the dotted metric
// namespace.
//
// A kStats reply can carry this format so a standard scraper (or
// `curl`-grade tooling in CI) reads the daemon without speaking EWC1
// structures. Mapping rules:
//
//   * dotted names sanitize to [a-zA-Z0-9_:] with an `ewc_` prefix:
//     "server.request_latency_seconds" -> "ewc_server_request_latency_seconds";
//   * the per-shard scope prefix becomes a label:
//     "shard.3.rps" -> ewc_rps{shard="3"} — so fleet aggregates (plain
//     names) and shard breakdowns are the same metric family;
//   * label values escape backslash, double-quote and newline per the
//     exposition-format spec;
//   * every family gets one `# TYPE <name> gauge` line (counters are
//     monotone but the sampler also exports derived rates, and re-exporting
//     a reset counter as "counter" would lie to rate()).
#pragma once

#include <map>
#include <string>

namespace ewc::obs::prom {

/// Sanitize a dotted metric name: invalid chars -> '_', "ewc_" prefix,
/// leading digit guarded. Idempotent on already-valid names.
std::string sanitize_metric_name(const std::string& dotted);

/// Escape a label value for the exposition format: \ -> \\, " -> \",
/// newline -> \n.
std::string escape_label_value(const std::string& value);

/// Render dotted-name/value pairs as exposition text. Names under a
/// "shard.<i>." scope (obs::parse_shard_scope) are folded into their plain
/// family with a shard="<i>" label; families are emitted in sorted order, each with
/// one TYPE line.
std::string render_exposition(const std::map<std::string, double>& values);

}  // namespace ewc::obs::prom
