#include "server/protocol_wire.hpp"

namespace ewc::server {

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello_ok";
    case MsgType::kLaunch: return "launch";
    case MsgType::kCompletion: return "completion";
    case MsgType::kFlush: return "flush";
    case MsgType::kFlushDone: return "flush_done";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kError: return "error";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats_reply";
    case MsgType::kMigrateExport: return "migrate_export";
    case MsgType::kMigrateExportReply: return "migrate_export_reply";
    case MsgType::kMigrateImport: return "migrate_import";
    case MsgType::kMigrateImportReply: return "migrate_import_reply";
    case MsgType::kSyncPull: return "sync_pull";
    case MsgType::kSyncState: return "sync_state";
  }
  return "unknown";
}

void encode_kernel_desc(net::Writer& w, const gpusim::KernelDesc& d) {
  w.str(d.name);
  w.i32(d.num_blocks);
  w.i32(d.threads_per_block);
  w.f64(d.mix.fp_insts);
  w.f64(d.mix.int_insts);
  w.f64(d.mix.sfu_insts);
  w.f64(d.mix.sync_insts);
  w.f64(d.mix.coalesced_mem_insts);
  w.f64(d.mix.uncoalesced_mem_insts);
  w.f64(d.mix.shared_accesses);
  w.f64(d.mix.const_accesses);
  w.i32(d.resources.registers_per_thread);
  w.i64(d.resources.shared_mem_per_block);
  w.f64(d.resources.constant_data.bytes());
  w.f64(d.mlp);
  w.f64(d.h2d_bytes.bytes());
  w.f64(d.d2h_bytes.bytes());
}

gpusim::KernelDesc decode_kernel_desc(net::Reader& r) {
  gpusim::KernelDesc d;
  d.name = r.str();
  d.num_blocks = r.i32();
  d.threads_per_block = r.i32();
  d.mix.fp_insts = r.f64();
  d.mix.int_insts = r.f64();
  d.mix.sfu_insts = r.f64();
  d.mix.sync_insts = r.f64();
  d.mix.coalesced_mem_insts = r.f64();
  d.mix.uncoalesced_mem_insts = r.f64();
  d.mix.shared_accesses = r.f64();
  d.mix.const_accesses = r.f64();
  d.resources.registers_per_thread = r.i32();
  d.resources.shared_mem_per_block = r.i64();
  d.resources.constant_data = common::Bytes::from_bytes(r.f64());
  d.mlp = r.f64();
  d.h2d_bytes = common::Bytes::from_bytes(r.f64());
  d.d2h_bytes = common::Bytes::from_bytes(r.f64());
  return d;
}

std::vector<std::byte> encode_hello(const HelloMsg& m) {
  net::Writer w;
  w.u32(m.version);
  w.str(m.owner);
  w.u64(m.session);
  w.u8(m.replay ? 1 : 0);
  return w.take();
}

std::optional<HelloMsg> decode_hello(std::span<const std::byte> payload) {
  net::Reader r(payload);
  HelloMsg m;
  m.version = r.u32();
  m.owner = r.str();
  // Additive session fields (still protocol version 1): a pre-session
  // client's hello ends here and decodes as session 0 / no replay.
  if (r.ok() && r.remaining() > 0) {
    m.session = r.u64();
    m.replay = r.u8() != 0;
  }
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_hello_ok(const HelloOkMsg& m) {
  net::Writer w;
  w.u32(m.version);
  w.u32(m.inflight_limit);
  w.u64(m.deadline_micros);
  w.u8(m.argument_batching ? 1 : 0);
  return w.take();
}

std::optional<HelloOkMsg> decode_hello_ok(std::span<const std::byte> payload) {
  net::Reader r(payload);
  HelloOkMsg m;
  m.version = r.u32();
  m.inflight_limit = r.u32();
  m.deadline_micros = r.u64();
  m.argument_batching = r.u8() != 0;
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_launch(const consolidate::LaunchRequest& req) {
  net::Writer w;
  w.u64(req.request_id);
  w.str(req.owner);
  encode_kernel_desc(w, req.desc);
  w.u64(static_cast<std::uint64_t>(req.staged_bytes));
  w.i32(req.api_messages);
  w.u64(req.trace_id);
  w.u64(req.parent_span_id);
  return w.take();
}

std::optional<consolidate::LaunchRequest> decode_launch(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  consolidate::LaunchRequest req;
  req.request_id = r.u64();
  req.owner = r.str();
  req.desc = decode_kernel_desc(r);
  req.staged_bytes = static_cast<std::size_t>(r.u64());
  req.api_messages = r.i32();
  // Additive distributed-trace context (still protocol version 1): a
  // pre-trace client's launch ends here and decodes as "no context".
  if (r.ok() && r.remaining() > 0) {
    req.trace_id = r.u64();
    req.parent_span_id = r.u64();
  }
  if (!r.done()) return std::nullopt;
  return req;
}

std::vector<std::byte> encode_completion(
    const consolidate::CompletionReply& reply) {
  net::Writer w;
  w.u64(reply.request_id);
  w.u8(reply.ok ? 1 : 0);
  w.str(reply.error);
  w.f64(reply.finish_time.seconds());
  w.u8(static_cast<std::uint8_t>(reply.where));
  return w.take();
}

std::optional<consolidate::CompletionReply> decode_completion(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  consolidate::CompletionReply reply;
  reply.request_id = r.u64();
  reply.ok = r.u8() != 0;
  reply.error = r.str();
  reply.finish_time = common::Duration::from_seconds(r.f64());
  const std::uint8_t where = r.u8();
  if (!r.done() ||
      where > static_cast<std::uint8_t>(
                  consolidate::CompletionReply::Where::kCpu)) {
    return std::nullopt;
  }
  reply.where = static_cast<consolidate::CompletionReply::Where>(where);
  return reply;
}

std::vector<std::byte> encode_flush(const FlushMsg& m) {
  net::Writer w;
  w.u64(m.token);
  return w.take();
}

std::optional<FlushMsg> decode_flush(std::span<const std::byte> payload) {
  net::Reader r(payload);
  FlushMsg m;
  m.token = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_flush_done(const FlushDoneMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u8(m.ok ? 1 : 0);
  return w.take();
}

std::optional<FlushDoneMsg> decode_flush_done(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  FlushDoneMsg m;
  m.token = r.u64();
  m.ok = r.u8() != 0;
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_shutdown() { return {}; }

std::vector<std::byte> encode_error(const ErrorMsg& m) {
  net::Writer w;
  w.str(m.message);
  return w.take();
}

std::optional<ErrorMsg> decode_error(std::span<const std::byte> payload) {
  net::Reader r(payload);
  ErrorMsg m;
  m.message = r.str();
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_stats(const StatsMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u8(m.include_histograms ? 1 : 0);
  if (m.include_series || m.include_prometheus) {
    w.u8(m.include_series ? 1 : 0);
    w.u8(m.include_prometheus ? 1 : 0);
  }
  return w.take();
}

std::optional<StatsMsg> decode_stats(std::span<const std::byte> payload) {
  net::Reader r(payload);
  StatsMsg m;
  m.token = r.u64();
  m.include_histograms = r.u8() != 0;
  if (r.ok() && r.remaining() > 0) {
    m.include_series = r.u8() != 0;
    m.include_prometheus = r.u8() != 0;
  }
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_stats_reply(const StatsReplyMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u64(m.uptime_micros);
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, value] : m.counters) {
    w.str(name);
    w.f64(value);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& [name, h] : m.histograms) {
    w.str(name);
    w.f64(h.params.min_value);
    w.f64(h.params.growth);
    w.u32(static_cast<std::uint32_t>(h.params.buckets));
    w.u64(h.total);
    w.f64(h.sum);
    w.u32(static_cast<std::uint32_t>(h.counts.size()));
    for (std::uint64_t c : h.counts) w.u64(c);
  }
  if (m.interval_seconds != 0.0 || !m.series.empty() ||
      !m.prometheus_text.empty()) {
    w.f64(m.interval_seconds);
    w.u32(static_cast<std::uint32_t>(m.series.size()));
    for (const auto& [name, snap] : m.series) {
      w.str(name);
      w.u32(static_cast<std::uint32_t>(snap.points.size()));
      for (const auto& p : snap.points) {
        w.f64(p.t_seconds);
        w.f64(p.value);
      }
    }
    w.str(m.prometheus_text);
  }
  return w.take();
}

std::optional<StatsReplyMsg> decode_stats_reply(
    std::span<const std::byte> payload) {
  // Counts are bounded before allocation so a malformed frame cannot ask
  // for gigabytes.
  constexpr std::uint32_t kMaxEntries = 1 << 20;
  net::Reader r(payload);
  StatsReplyMsg m;
  m.token = r.u64();
  m.uptime_micros = r.u64();
  const std::uint32_t ncounters = r.u32();
  if (!r.ok() || ncounters > kMaxEntries) return std::nullopt;
  for (std::uint32_t i = 0; i < ncounters && r.ok(); ++i) {
    std::string name = r.str();
    const double value = r.f64();
    m.counters.emplace(std::move(name), value);
  }
  const std::uint32_t nhists = r.u32();
  if (!r.ok() || nhists > kMaxEntries) return std::nullopt;
  for (std::uint32_t i = 0; i < nhists && r.ok(); ++i) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    h.params.min_value = r.f64();
    h.params.growth = r.f64();
    h.params.buckets = static_cast<int>(r.u32());
    h.total = r.u64();
    h.sum = r.f64();
    const std::uint32_t ncounts = r.u32();
    if (!r.ok() || ncounts > kMaxEntries || !h.params.valid() ||
        ncounts != static_cast<std::uint32_t>(h.params.buckets) + 1) {
      return std::nullopt;
    }
    h.counts.reserve(ncounts);
    for (std::uint32_t c = 0; c < ncounts; ++c) h.counts.push_back(r.u64());
    m.histograms.emplace(std::move(name), std::move(h));
  }
  if (r.ok() && r.remaining() > 0) {
    m.interval_seconds = r.f64();
    const std::uint32_t nseries = r.u32();
    if (!r.ok() || nseries > kMaxEntries) return std::nullopt;
    for (std::uint32_t i = 0; i < nseries && r.ok(); ++i) {
      std::string name = r.str();
      const std::uint32_t npoints = r.u32();
      if (!r.ok() || npoints > kMaxEntries) return std::nullopt;
      obs::SeriesSnapshot snap;
      snap.points.reserve(npoints);
      for (std::uint32_t p = 0; p < npoints && r.ok(); ++p) {
        obs::SeriesPoint pt;
        pt.t_seconds = r.f64();
        pt.value = r.f64();
        snap.points.push_back(pt);
      }
      m.series.emplace(std::move(name), std::move(snap));
    }
    m.prometheus_text = r.str();
  }
  if (!r.done()) return std::nullopt;
  return m;
}

namespace {

void encode_session_snapshot(net::Writer& w, const SessionSnapshot& s) {
  w.u64(s.session);
  w.u32(static_cast<std::uint32_t>(s.entries.size()));
  for (const auto& e : s.entries) {
    w.u64(e.request_id);
    w.str(e.owner);
    w.u8(e.ok ? 1 : 0);
    w.str(e.error);
    w.f64(e.finish_seconds);
    w.u8(e.where);
  }
}

std::optional<SessionSnapshot> decode_session_snapshot(net::Reader& r) {
  constexpr std::uint32_t kMaxEntries = 1 << 20;
  SessionSnapshot s;
  s.session = r.u64();
  const std::uint32_t nentries = r.u32();
  if (!r.ok() || nentries > kMaxEntries) return std::nullopt;
  s.entries.reserve(nentries);
  for (std::uint32_t i = 0; i < nentries && r.ok(); ++i) {
    SessionSnapshot::Entry e;
    e.request_id = r.u64();
    e.owner = r.str();
    e.ok = r.u8() != 0;
    e.error = r.str();
    e.finish_seconds = r.f64();
    e.where = r.u8();
    if (e.where > static_cast<std::uint8_t>(
                      consolidate::CompletionReply::Where::kCpu)) {
      return std::nullopt;
    }
    s.entries.push_back(std::move(e));
  }
  if (!r.ok()) return std::nullopt;
  return s;
}

}  // namespace

std::vector<std::byte> encode_migrate_export(const MigrateExportMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u64(m.session);
  w.u8(m.commit ? 1 : 0);
  return w.take();
}

std::optional<MigrateExportMsg> decode_migrate_export(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  MigrateExportMsg m;
  m.token = r.u64();
  m.session = r.u64();
  m.commit = r.u8() != 0;
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_migrate_export_reply(
    const MigrateExportReplyMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  encode_session_snapshot(w, m.snapshot);
  return w.take();
}

std::optional<MigrateExportReplyMsg> decode_migrate_export_reply(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  MigrateExportReplyMsg m;
  m.token = r.u64();
  m.ok = r.u8() != 0;
  m.error = r.str();
  auto snap = decode_session_snapshot(r);
  if (!snap || !r.done()) return std::nullopt;
  m.snapshot = std::move(*snap);
  return m;
}

std::vector<std::byte> encode_migrate_import(const MigrateImportMsg& m) {
  net::Writer w;
  w.u64(m.token);
  encode_session_snapshot(w, m.snapshot);
  return w.take();
}

std::optional<MigrateImportMsg> decode_migrate_import(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  MigrateImportMsg m;
  m.token = r.u64();
  auto snap = decode_session_snapshot(r);
  if (!snap || !r.done()) return std::nullopt;
  m.snapshot = std::move(*snap);
  return m;
}

std::vector<std::byte> encode_migrate_import_reply(
    const MigrateImportReplyMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u8(m.ok ? 1 : 0);
  w.str(m.error);
  return w.take();
}

std::optional<MigrateImportReplyMsg> decode_migrate_import_reply(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  MigrateImportReplyMsg m;
  m.token = r.u64();
  m.ok = r.u8() != 0;
  m.error = r.str();
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_sync_pull(const SyncPullMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u64(m.have_epoch);
  return w.take();
}

std::optional<SyncPullMsg> decode_sync_pull(
    std::span<const std::byte> payload) {
  net::Reader r(payload);
  SyncPullMsg m;
  m.token = r.u64();
  m.have_epoch = r.u64();
  if (!r.done()) return std::nullopt;
  return m;
}

std::vector<std::byte> encode_sync_state(const SyncStateMsg& m) {
  net::Writer w;
  w.u64(m.token);
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.shards.size()));
  for (const auto& s : m.shards) {
    w.str(s.endpoint);
    w.u8(s.alive ? 1 : 0);
    w.u8(s.draining ? 1 : 0);
    w.u8(s.breaker_open ? 1 : 0);
    w.u64(s.placements);
  }
  w.u32(static_cast<std::uint32_t>(m.placements.size()));
  for (const auto& [session, shard] : m.placements) {
    w.u64(session);
    w.u32(shard);
  }
  return w.take();
}

std::optional<SyncStateMsg> decode_sync_state(
    std::span<const std::byte> payload) {
  constexpr std::uint32_t kMaxEntries = 1 << 20;
  net::Reader r(payload);
  SyncStateMsg m;
  m.token = r.u64();
  m.epoch = r.u64();
  const std::uint32_t nshards = r.u32();
  if (!r.ok() || nshards > kMaxEntries) return std::nullopt;
  m.shards.reserve(nshards);
  for (std::uint32_t i = 0; i < nshards && r.ok(); ++i) {
    SyncStateMsg::ShardState s;
    s.endpoint = r.str();
    s.alive = r.u8() != 0;
    s.draining = r.u8() != 0;
    s.breaker_open = r.u8() != 0;
    s.placements = r.u64();
    m.shards.push_back(std::move(s));
  }
  const std::uint32_t nplacements = r.u32();
  if (!r.ok() || nplacements > kMaxEntries) return std::nullopt;
  for (std::uint32_t i = 0; i < nplacements && r.ok(); ++i) {
    const std::uint64_t session = r.u64();
    const std::uint32_t shard = r.u32();
    m.placements.emplace(session, shard);
  }
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace ewc::server
