#include "obs/shard_scope.hpp"

#include <charconv>

namespace ewc::obs {

namespace {
constexpr std::string_view kShardPrefix = "shard.";
}  // namespace

std::string shard_prefix(std::size_t shard) {
  return std::string(kShardPrefix) + std::to_string(shard) + ".";
}

std::optional<ShardScoped> parse_shard_scope(std::string_view dotted) {
  if (!dotted.starts_with(kShardPrefix)) return std::nullopt;
  const std::string_view rest = dotted.substr(kShardPrefix.size());
  const std::size_t dot = rest.find('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= rest.size()) {
    return std::nullopt;
  }
  // from_chars would take a leading '-', so the index must start with a
  // digit, and only "0" itself may start with a zero.
  const char first = rest[0];
  if (first < '0' || first > '9' || (first == '0' && dot > 1)) {
    return std::nullopt;
  }
  // A stray character stops the parse short of the dot, and an index past
  // INT_MAX reports out of range.
  int shard = 0;
  const auto [end, ec] = std::from_chars(rest.data(), rest.data() + dot, shard);
  if (ec != std::errc() || end != rest.data() + dot) return std::nullopt;
  return ShardScoped{shard, std::string(rest.substr(dot + 1))};
}

}  // namespace ewc::obs
