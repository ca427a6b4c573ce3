// Wire codecs for the ewcd protocol: the consolidate protocol messages
// (LaunchRequest / CompletionReply / FlushRequest / ShutdownRequest) plus
// gpusim::KernelDesc, encoded with net::Writer into net frames.
//
// The encoding is versioned through the hello handshake: a client opens with
// kHello{version, owner}; the server answers kHelloOk carrying its limits
// and the backend's argument-batching setting (so a RemoteFrontend counts
// API messages exactly like the in-process Frontend would). Field order is
// part of the protocol — see docs/SERVER.md for the byte-level layout.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "consolidate/protocol.hpp"
#include "gpusim/kernel_desc.hpp"
#include "net/wire.hpp"
#include "obs/histogram.hpp"
#include "obs/timeseries.hpp"

namespace ewc::server {

inline constexpr std::uint32_t kProtocolVersion = 1;

/// Frame types (net::Frame::type).
enum class MsgType : std::uint16_t {
  kHello = 1,       ///< client -> server: version + owner
  kHelloOk = 2,     ///< server -> client: limits + backend settings
  kLaunch = 3,      ///< client -> server: one LaunchRequest
  kCompletion = 4,  ///< server -> client: one CompletionReply
  kFlush = 5,       ///< client -> server: process everything pending
  kFlushDone = 6,   ///< server -> client: flush finished
  kShutdown = 7,    ///< client -> server: ask the daemon to drain and exit
  kError = 8,       ///< server -> client: fatal protocol error, then close
  // Additive extension (still protocol version 1): a version-1 server that
  // predates it answers kStats with kError, which stats clients must accept.
  kStats = 9,       ///< client -> server: snapshot counters (+ histograms,
                    ///< series, Prometheus)
  kStatsReply = 10, ///< server -> client: the snapshot
  // Types 11 and 12 are retired (the time-series rings ride kStatsReply);
  // a server answers them like any other unexpected type.
  // Additive extension (still protocol version 1): live session migration.
  // The router exports a session's authoritative replay state from one
  // shard and imports it into another; a pre-migration server answers both
  // with kError, which the router treats as "shard cannot migrate".
  kMigrateExport = 13,       ///< router -> shard: snapshot (or commit) one session
  kMigrateExportReply = 14,  ///< shard -> router: the snapshot / refusal
  kMigrateImport = 15,       ///< router -> shard: install a session snapshot
  kMigrateImportReply = 16,  ///< shard -> router: import ack
  // Additive extension (still protocol version 1): router active/standby
  // state sync. A standby router pulls the primary's placement table and
  // shard health so a takeover starts from the primary's fleet view.
  kSyncPull = 17,   ///< standby router -> primary: pull the fleet state
  kSyncState = 18,  ///< primary -> standby: the state snapshot
};

const char* msg_type_name(MsgType t);

struct HelloMsg {
  std::uint32_t version = kProtocolVersion;
  std::string owner;
  /// Session nonce (additive field, still protocol version 1; 0 = none).
  /// Generated once per client process/connection object and reused
  /// verbatim across reconnect handshakes, it scopes the server's replay
  /// routing and dedup state: a fresh process that happens to reuse the
  /// same owner names and request ids can never be answered from a
  /// previous process's cached replies.
  std::uint64_t session = 0;
  /// Client intends to reconnect and replay unanswered launches. The
  /// server records completed replies for dedup only for sessions that set
  /// this, so one-shot clients cost the daemon no replay memory.
  bool replay = false;
};

struct HelloOkMsg {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t inflight_limit = 0;        ///< per-client admission bound
  std::uint64_t deadline_micros = 0;       ///< per-request deadline; 0 = none
  bool argument_batching = true;           ///< backend optimization setting
};

struct FlushMsg {
  std::uint64_t token = 0;
};

struct FlushDoneMsg {
  std::uint64_t token = 0;
  bool ok = false;  ///< false: backend unreachable or drain timeout
};

struct ErrorMsg {
  std::string message;
};

/// The two trailing flags are additive (still protocol version 1): they
/// travel only when one is set, and a request that ends after
/// include_histograms decodes with both false.
struct StatsMsg {
  std::uint64_t token = 0;
  bool include_histograms = true;
  /// Sample the time-series rings now and return them.
  bool include_series = false;
  /// Also render the Prometheus text exposition into the reply.
  bool include_prometheus = false;
};

/// One coherent snapshot of the process's obs::Registry: its counters and
/// histograms (for a router, folded with its shards'). Histograms travel
/// with their full bucket geometry, so the client interpolates percentiles
/// itself (and can merge snapshots from several daemons). The decoder
/// rejects a geometry that fails HistogramParams::valid().
///
/// On request it also carries the sampler's rings (per-series point
/// history, oldest first) and the Prometheus text exposition of the
/// counters and newest sampled values. That trailing part is written only
/// when it is not empty, so a reply without it decodes as interval 0, no
/// series and no text; a daemon running without a sampler answers a series
/// request that way.
struct StatsReplyMsg {
  std::uint64_t token = 0;
  std::uint64_t uptime_micros = 0;
  std::map<std::string, double> counters;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  double interval_seconds = 0.0;  ///< sampler tick; 0 = sampler disabled
  std::map<std::string, obs::SeriesSnapshot> series;
  std::string prometheus_text;  ///< empty unless requested
};

/// One session's authoritative replay state, as moved between shards: the
/// session nonce plus the per-session completed-reply log in completion
/// order (oldest first — the importer rebuilds the same bounded FIFO). The
/// in-flight dedup keys travel implicitly: a migration only runs once the
/// session has no in-flight launches (the exporter refuses otherwise), so
/// the log IS the session's whole dedup state at export time.
struct SessionSnapshot {
  std::uint64_t session = 0;
  struct Entry {
    std::uint64_t request_id = 0;
    std::string owner;
    bool ok = false;
    std::string error;
    /// CompletionReply::finish_time in seconds; the f64 wire codec keeps
    /// the IEEE-754 bits, so a migrated reply replays bit-identically.
    double finish_seconds = 0.0;
    std::uint8_t where = 0;  ///< consolidate::CompletionReply::Where
  };
  std::vector<Entry> entries;
};

struct MigrateExportMsg {
  std::uint64_t token = 0;
  std::uint64_t session = 0;
  /// false: return a read-only snapshot, source stays authoritative.
  /// true: drop the source's copy — sent only after the import was acked,
  /// so a torn handoff at any earlier point leaves the source untouched.
  bool commit = false;
};

struct MigrateExportReplyMsg {
  std::uint64_t token = 0;
  bool ok = false;
  std::string error;  ///< "unknown session", "session busy", ...
  SessionSnapshot snapshot;  ///< populated only for ok snapshot requests
};

struct MigrateImportMsg {
  std::uint64_t token = 0;
  SessionSnapshot snapshot;
};

struct MigrateImportReplyMsg {
  std::uint64_t token = 0;
  bool ok = false;
  std::string error;
};

struct SyncPullMsg {
  std::uint64_t token = 0;
  std::uint64_t have_epoch = 0;  ///< the standby's last applied epoch
};

/// The primary router's fleet view, replicated to the standby: per-shard
/// health (index order matches the shared --shard list) and the sticky
/// placement table (session nonce -> shard index). `epoch` bumps on every
/// placement / migration / re-home, so a standby can tell fresh from stale.
struct SyncStateMsg {
  std::uint64_t token = 0;
  std::uint64_t epoch = 0;
  struct ShardState {
    std::string endpoint;
    bool alive = true;
    bool draining = false;
    bool breaker_open = false;
    std::uint64_t placements = 0;
  };
  std::vector<ShardState> shards;
  std::map<std::uint64_t, std::uint32_t> placements;
};

// ---- KernelDesc (nested inside launch requests) ----
void encode_kernel_desc(net::Writer& w, const gpusim::KernelDesc& d);
gpusim::KernelDesc decode_kernel_desc(net::Reader& r);

// ---- whole-message encode/decode ----
// Encoders return the frame payload; decoders return nullopt on any
// malformed input (underflow, trailing bytes, bad enum values).
std::vector<std::byte> encode_hello(const HelloMsg& m);
std::optional<HelloMsg> decode_hello(std::span<const std::byte> payload);

std::vector<std::byte> encode_hello_ok(const HelloOkMsg& m);
std::optional<HelloOkMsg> decode_hello_ok(std::span<const std::byte> payload);

/// Serializes owner, request_id, desc, staged_bytes, api_messages, plus the
/// additive trace_id/parent_span_id distributed-trace context (still
/// protocol version 1: a pre-trace peer's launch ends early and decodes as
/// trace_id 0 — no context). The reply channel is transport-local and never
/// crosses the wire.
std::vector<std::byte> encode_launch(const consolidate::LaunchRequest& req);
std::optional<consolidate::LaunchRequest> decode_launch(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_completion(
    const consolidate::CompletionReply& reply);
std::optional<consolidate::CompletionReply> decode_completion(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_flush(const FlushMsg& m);
std::optional<FlushMsg> decode_flush(std::span<const std::byte> payload);

std::vector<std::byte> encode_flush_done(const FlushDoneMsg& m);
std::optional<FlushDoneMsg> decode_flush_done(
    std::span<const std::byte> payload);

/// consolidate::ShutdownRequest carries no fields; its frame is empty.
std::vector<std::byte> encode_shutdown();

std::vector<std::byte> encode_error(const ErrorMsg& m);
std::optional<ErrorMsg> decode_error(std::span<const std::byte> payload);

std::vector<std::byte> encode_stats(const StatsMsg& m);
std::optional<StatsMsg> decode_stats(std::span<const std::byte> payload);

std::vector<std::byte> encode_stats_reply(const StatsReplyMsg& m);
std::optional<StatsReplyMsg> decode_stats_reply(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_migrate_export(const MigrateExportMsg& m);
std::optional<MigrateExportMsg> decode_migrate_export(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_migrate_export_reply(
    const MigrateExportReplyMsg& m);
std::optional<MigrateExportReplyMsg> decode_migrate_export_reply(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_migrate_import(const MigrateImportMsg& m);
std::optional<MigrateImportMsg> decode_migrate_import(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_migrate_import_reply(
    const MigrateImportReplyMsg& m);
std::optional<MigrateImportReplyMsg> decode_migrate_import_reply(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_sync_pull(const SyncPullMsg& m);
std::optional<SyncPullMsg> decode_sync_pull(
    std::span<const std::byte> payload);

std::vector<std::byte> encode_sync_state(const SyncStateMsg& m);
std::optional<SyncStateMsg> decode_sync_state(
    std::span<const std::byte> payload);

}  // namespace ewc::server
