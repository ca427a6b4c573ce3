#include "gpusim/sim_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "obs/tracer.hpp"

namespace ewc::gpusim {

namespace {

/// Exact, locale-independent, fixed-width encoding: the raw 8 bytes of the
/// value (a double's IEEE-754 bit pattern). Distinguishes every value
/// (negative zero, subnormals, NaN payloads), needs no separator, and keeps
/// the key short, which matters because signatures are rebuilt and hashed
/// on every lookup.
void put_bits(std::string& key, std::uint64_t bits) {
  char buf[sizeof bits];
  std::memcpy(buf, &bits, sizeof bits);
  key.append(buf, sizeof buf);
}

void put(std::string& key, std::int64_t v) {
  put_bits(key, static_cast<std::uint64_t>(v));
}

/// Every field of `k` a key encodes, in encoding order: the name, then each
/// number as its 64 bits (ints widened to int64, doubles' IEEE-754 bits).
std::pair<std::string_view, std::array<std::uint64_t, 16>> key_fields(
    const KernelDesc& k) {
  auto i = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  auto d = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return {k.name,
          {i(k.num_blocks), i(k.threads_per_block), d(k.mix.fp_insts),
           d(k.mix.int_insts), d(k.mix.sfu_insts), d(k.mix.sync_insts),
           d(k.mix.coalesced_mem_insts), d(k.mix.uncoalesced_mem_insts),
           d(k.mix.shared_accesses), d(k.mix.const_accesses),
           i(k.resources.registers_per_thread),
           i(k.resources.shared_mem_per_block),
           d(k.resources.constant_data.bytes()), d(k.mlp),
           d(k.h2d_bytes.bytes()), d(k.d2h_bytes.bytes())}};
}

}  // namespace

void append_key(std::string& key, std::int64_t v) { put(key, v); }

void append_key(std::string& key, const KernelDesc& k) {
  const auto [name, numbers] = key_fields(k);
  put(key, static_cast<std::int64_t>(name.size()));
  key += name;
  for (const std::uint64_t bits : numbers) put_bits(key, bits);
}

bool same_key(const KernelDesc& a, const KernelDesc& b) {
  return key_fields(a) == key_fields(b);
}

// Completions carry instance ids; sorting (id, position) pairs maps them
// back to plan positions in O(n log n).
RunOutcome outcome_of(const LaunchPlan& plan, const RunResult& run) {
  RunOutcome out;
  out.total_time = run.total_time;
  out.system_energy = run.system_energy;
  out.finish_times.assign(plan.instances.size(), Duration::zero());
  std::vector<std::pair<int, std::size_t>> by_id;
  by_id.reserve(plan.instances.size());
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    by_id.emplace_back(plan.instances[i].instance_id, i);
  }
  std::sort(by_id.begin(), by_id.end());
  for (const auto& c : run.completions) {
    const auto it = std::lower_bound(
        by_id.begin(), by_id.end(), std::pair<int, std::size_t>{c.instance_id, 0});
    if (it != by_id.end() && it->first == c.instance_id) {
      out.finish_times[it->second] = c.finish_time;
    }
  }
  return out;
}

CacheCounters::CacheCounters(const std::string& prefix)
    : hits_(obs::Registry::instance().counter(prefix + ".hits")),
      misses_(obs::Registry::instance().counter(prefix + ".misses")),
      evictions_(obs::Registry::instance().counter(prefix + ".evictions")) {}

void CacheCounters::publish(const CacheStats& s) const {
  hits_.set(static_cast<double>(s.hits));
  misses_.set(static_cast<double>(s.misses));
  evictions_.set(static_cast<double>(s.evictions));
}

PlanSignature plan_signature(const LaunchPlan& plan) {
  PlanSignature sig;
  sig.key.reserve(8 + 160 * plan.instances.size());
  put(sig.key, static_cast<std::int64_t>(plan.reuse_constant_data ? 1 : 0));
  for (const auto& inst : plan.instances) append_key(sig.key, inst.desc);
  return sig;
}

RunMemo::RunMemo(const FluidEngine& engine, std::size_t capacity)
    : engine_(engine), cache_(capacity) {}

RunOutcome RunMemo::run(const LaunchPlan& plan) {
  const PlanSignature sig = plan_signature(plan);
  if (auto hit = cache_.get(sig)) {
    if (obs::Tracer::enabled()) {
      // The same span FluidEngine::run closes with, marked as a replay.
      char args[128];
      std::snprintf(args, sizeof args,
                    "\"instances\":%zu,\"energy_j\":%.6f,\"cached\":true",
                    plan.instances.size(), hit->system_energy.joules());
      obs::sim_span("gpusim.run", 0.0, hit->total_time.seconds(), 0, args,
                    obs::Tracer::current_request_id());
    }
    return std::move(*hit);
  }
  RunOutcome fresh = outcome_of(plan, engine_.run(plan));
  cache_.put(sig, fresh);
  return fresh;
}

}  // namespace ewc::gpusim
