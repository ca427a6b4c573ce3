#include "gpusim/sim_cache.hpp"

#include <bit>
#include <cstring>

namespace ewc::gpusim {

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

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

void put(std::string& key, double v) {
  put_bits(key, std::bit_cast<std::uint64_t>(v));
}

void put(std::string& key, std::int64_t v) {
  put_bits(key, static_cast<std::uint64_t>(v));
}

void append_device_config(std::string& key, const DeviceConfig& dev) {
  put(key, static_cast<std::int64_t>(dev.num_sms));
  put(key, static_cast<std::int64_t>(dev.sps_per_sm));
  put(key, static_cast<std::int64_t>(dev.warp_size));
  put(key, dev.shader_clock.hertz());
  put(key, static_cast<std::int64_t>(dev.max_blocks_per_sm));
  put(key, static_cast<std::int64_t>(dev.max_threads_per_sm));
  put(key, static_cast<std::int64_t>(dev.max_warps_per_sm));
  put(key, dev.registers_per_sm);
  put(key, dev.shared_mem_per_sm);
  put(key, dev.dram_bandwidth.bytes_per_second());
  put(key, dev.dram_latency_cycles);
  put(key, dev.coalesced_departure_cycles);
  put(key, dev.uncoalesced_departure_cycles);
  put(key, dev.coalesced_tx_bytes);
  put(key, dev.uncoalesced_tx_bytes);
  put(key, dev.memory_level_parallelism);
  put(key, dev.uncoalesced_dram_efficiency);
  put(key, dev.mixing_penalty_per_kernel);
  put(key, dev.min_mixing_efficiency);
  put(key, dev.pcie_h2d.bytes_per_second());
  put(key, dev.pcie_d2h.bytes_per_second());
  put(key, dev.transfer_latency.seconds());
  put(key, dev.cycles_per_alu_warp_inst);
  put(key, dev.cycles_per_sfu_warp_inst);
  put(key, dev.barrier_cost_cycles);
  put(key, static_cast<std::int64_t>(dev.dispatch_policy));
  put(key, static_cast<std::int64_t>(dev.dispatch_seed));
}

void append_energy_config(std::string& key, const EnergyConfig& energy) {
  put(key, energy.system_idle_with_gpu.watts());
  put(key, energy.host_only_idle.watts());
  put(key, energy.transfer_active_power.watts());
  put(key, energy.fp_energy);
  put(key, energy.int_energy);
  put(key, energy.sfu_energy);
  put(key, energy.coalesced_tx_energy);
  put(key, energy.uncoalesced_tx_energy);
  put(key, energy.shared_access_energy);
  put(key, energy.const_access_energy);
  put(key, energy.register_access_energy);
  put(key, energy.thermal_tau_seconds);
  put(key, energy.thermal_k_ss);
  put(key, energy.leakage_w_per_kelvin);
}

void append_kernel(std::string& key, const KernelDesc& k) {
  put(key, static_cast<std::int64_t>(k.name.size()));
  key += k.name;
  put(key, static_cast<std::int64_t>(k.num_blocks));
  put(key, static_cast<std::int64_t>(k.threads_per_block));
  put(key, k.mix.fp_insts);
  put(key, k.mix.int_insts);
  put(key, k.mix.sfu_insts);
  put(key, k.mix.sync_insts);
  put(key, k.mix.coalesced_mem_insts);
  put(key, k.mix.uncoalesced_mem_insts);
  put(key, k.mix.shared_accesses);
  put(key, k.mix.const_accesses);
  put(key, static_cast<std::int64_t>(k.resources.registers_per_thread));
  put(key, k.resources.shared_mem_per_block);
  put(key, k.resources.constant_data.bytes());
  put(key, k.mlp);
  put(key, k.h2d_bytes.bytes());
  put(key, k.d2h_bytes.bytes());
}

}  // namespace

std::uint64_t device_config_hash(const DeviceConfig& dev) {
  std::string key;
  key.reserve(256);
  append_device_config(key, dev);
  return fnv1a(key);
}

std::uint64_t energy_config_hash(const EnergyConfig& energy) {
  std::string key;
  key.reserve(128);
  append_energy_config(key, energy);
  return fnv1a(key);
}

std::string config_key_prefix(const DeviceConfig& dev,
                              const EnergyConfig* energy) {
  std::string prefix;
  prefix.reserve(384);
  append_device_config(prefix, dev);
  prefix += '|';
  if (energy != nullptr) append_energy_config(prefix, *energy);
  return prefix;
}

PlanSignature plan_signature_with_prefix(const LaunchPlan& plan,
                                         std::string_view config_prefix,
                                         std::string_view tag,
                                         bool include_instance_ids) {
  PlanSignature sig;
  sig.key.reserve(64 + config_prefix.size() + 160 * plan.instances.size());
  sig.key += tag;
  sig.key += '|';
  sig.key += config_prefix;
  sig.key += '|';
  put(sig.key, static_cast<std::int64_t>(plan.reuse_constant_data ? 1 : 0));
  for (const auto& inst : plan.instances) {
    sig.key += '|';
    if (include_instance_ids) {
      put(sig.key, static_cast<std::int64_t>(inst.instance_id));
    }
    append_kernel(sig.key, inst.desc);
  }
  return sig;
}

PlanSignature plan_signature(const LaunchPlan& plan, const DeviceConfig& dev,
                             const EnergyConfig* energy, std::string_view tag,
                             bool include_instance_ids) {
  return plan_signature_with_prefix(plan, config_key_prefix(dev, energy), tag,
                                    include_instance_ids);
}

}  // namespace ewc::gpusim
