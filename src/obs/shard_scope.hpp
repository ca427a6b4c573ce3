// The per-shard scope of a metric name.
//
// A fleet router serves each shard's counters and series next to the fleet
// aggregate under a "shard.<i>." prefix ("shard.3.server.replies"). This is
// the one place that prefix is built and parsed: the router builds it, and
// Prometheus export, `ewcsim top` and `ewcsim stats` parse it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace ewc::obs {

/// "shard.<i>.", the prefix of shard i's names.
std::string shard_prefix(std::size_t shard);

/// A name split at its shard scope.
struct ShardScoped {
  int shard = 0;
  std::string name;  ///< the rest, after "shard.<i>."
};

/// Split "shard.<i>.<rest>" into (i, rest). nullopt means a plain name: no
/// "shard." prefix, an empty rest, or an index that is not the canonical
/// form shard_prefix writes (decimal digits, no leading zero) or does not
/// fit in an int.
std::optional<ShardScoped> parse_shard_scope(std::string_view dotted);

}  // namespace ewc::obs
