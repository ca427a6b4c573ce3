// ewc_bench: end-to-end and per-layer benchmark of the ewcd fleet.
//
//   ewc_bench [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//   ewc_bench --smoke
//
// Run from the repository root once benchmark/run.sh has built it: the
// daemons come from build-bench/ewc/tools/ewcsim and the results go to
// build-bench/. The measured window is BENCHMARK.json's `run_seconds`;
// `--seconds` is accepted only with that value, so two runs always measure
// the same length.
//
// For each workload it starts the real daemons (`ewcsim serve`, plus
// `ewcsim route` for the fleet), drives them from this process over three
// client sessions in five rounds of a fresh fleet each, checks every
// answer, and prints one
// `METRIC workload=<w> name=<m> value=<v> unit=<u>` line per metric, then
// the result as one JSON line, which is also written to
// build-bench/bench-result.json. `--trace 0` runs one untraced pass and
// reports the end-to-end metrics. `--trace 1` runs that pass and then a
// traced pass with the same seed, reports the per-layer metrics of the
// traced pass and the p50 difference of the two as `trace_overhead_pct`, and
// writes a Chrome trace of the benchmark's own spans to
// build-bench/trace-<workload>.json. The exit status is non-zero when any
// correctness check failed. README.md explains the workloads and metrics.
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "fleet.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/profile.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "traffic.hpp"
#include "workloads/paper_configs.hpp"

namespace ewc::bench {
namespace {

namespace json = obs::json;

// ---- fixed benchmark settings ----

/// Paths relative to the repository root; benchmark/run.sh builds there.
const std::string kBuildDir = "build-bench";
const std::string kEwcsim = kBuildDir + "/ewc/tools/ewcsim";
const std::string kSpec = "BENCHMARK.json";
/// Measured time of each smoke-test pass: 2 s per round.
constexpr double kSmokeSeconds = 10.0;
/// Client sessions = connections; with their reader threads and the main
/// thread as the only sender, the generator runs 4 threads.
constexpr int kSessions = 3;
constexpr int kMaxThreads = kSessions + 1;
/// Rounds per pass. Each round starts its own fleet and measures
/// run_seconds / kRounds of traffic; the pass reports the median round.
/// Latency and capacity differ more between two fleets' lifetimes than
/// within one, so five short rounds are steadier than one long one.
constexpr int kRounds = 5;
/// Fleets started per round; setup_s is the median over all rounds.
constexpr int kSetups = 4;
/// Traffic before each round's window opens.
constexpr double kWarmupSeconds = 0.5;
/// Shard flags every workload serves with. The in-flight limit is far above
/// any backlog the traffic builds, so a host stall cannot turn into rejected
/// requests: at 256, a 40 ms stall during 20000 requests/s (6700/s per
/// session) did.
constexpr int kThreshold = 16;
constexpr int kInflight = 65536;
/// Replayed REPORT groups per workload (split over rounds and shards).
constexpr std::size_t kReplayGroups = 1000;
/// Spans kept for the Chrome trace of a traced run, and the requests per
/// round whose client spans go into it.
constexpr std::size_t kTraceSpans = 40000;
constexpr std::size_t kRequestSpans = 1000;
/// Generator lateness beyond which a run's latencies are not trusted.
constexpr double kMaxLateMs = 1.0;
constexpr double kDrainTimeout = 60.0;

struct WorkloadDef {
  std::string name;
  std::map<std::string, int> mix;  ///< catalogue name -> weight
  std::string profile;             ///< loadgen ArrivalProfile
  int shards = 1;
  bool tcp = false;
};

/// Why each workload is here is recorded in BENCHMARK.json and README.md.
const std::vector<WorkloadDef>& workload_table() {
  static const std::vector<WorkloadDef> table = {
      // A round's window (6 s) holds three whole burst periods.
      {"bursty_mix", {{"encryption_6k", 2}, {"sorting_6k", 1}},
       "bursty:rate=300:period=2:burst=3:duty=0.2", 1, false},
      // A sixth of the shard's capacity, so the rate and not the host's
      // speed sets the throughput, even while the host runs it slowly.
      {"kmeans_500", {{"kmeans_256k", 1}}, "poisson:rate=500", 1, false},
      {"fleet_5k", {{"encryption_6k", 2}, {"sorting_6k", 1}},
       "poisson:rate=5000", 2, true},
  };
  return table;
}

workloads::InstanceSpec spec_named(const std::string& name) {
  if (name == "encryption_6k") return workloads::encryption_6k();
  if (name == "sorting_6k") return workloads::sorting_6k();
  if (name == "kmeans_256k") return workloads::kmeans_256k();
  throw std::invalid_argument("no spec " + name);
}

std::vector<std::string> mix_flags(const WorkloadDef& w) {
  std::vector<std::string> flags;
  for (const auto& [name, weight] : w.mix) {
    flags.push_back("--workload");
    flags.push_back(name + "=" + std::to_string(weight));
  }
  return flags;
}

/// The loadgen config of a workload: the mix in name order, as `ewcsim
/// loadgen` builds it, so the schedule equals `ewcsim loadgen
/// --print-schedule --sessions 3` with the same flags. Throws on a bad
/// profile.
loadgen::LoadgenConfig schedule_config(const WorkloadDef& w,
                                       std::uint64_t seed, double duration) {
  loadgen::LoadgenConfig config;
  for (const auto& [name, weight] : w.mix) {
    config.mix.push_back(
        {name, static_cast<double>(weight), spec_named(name).gpu});
  }
  std::string err;
  const auto profile = loadgen::ArrivalProfile::parse(w.profile, &err);
  if (!profile.has_value()) throw std::invalid_argument("profile: " + err);
  config.profile = *profile;
  config.sessions = kSessions;
  config.duration_seconds = duration;
  config.seed = seed;
  return config;
}

/// Round `round` of a run draws its schedule from this seed, so
/// the rounds send different traffic and no two runs share a round's.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed * kRounds + static_cast<std::uint64_t>(round);
}

struct MetricDef {
  const char* name;
  const char* unit;
  bool events = false;  ///< counts events: a pass adds its rounds up
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"p50_ms", "ms"},
    {"p99_ms", "ms"},          {"throughput_rps", "1/s"},
    {"j_per_req", "J"},        {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"client.launch_us.p50", "us"},
    {"client.gen_late_ms.p99", "ms"},
    {"client.reconnects", "count", true},
    {"transport_ms.p50", "ms"},
    {"router.cpu_share", "ratio"},
    {"router.frames_per_req", "count"},
    {"router.max_shard_share", "ratio"},
    {"server.residency_ms.p50", "ms"},
    {"server.residency_ms.p99", "ms"},
    {"server.cpu_us_per_req", "us"},
    {"server.rejected", "count", true},
    {"server.deadline_expired", "count", true},
    {"server.protocol_errors", "count", true},
    {"server.replayed_requests", "count", true},
    {"server.degraded_decisions", "count", true},
    {"backend.batch_size.mean", "count"},
    {"backend.groups_per_batch", "ratio"},
    {"backend.fill_wait_ms.p50", "ms"},
    {"backend.busy_us_per_req", "us"},
    {"backend.sim_ms_per_req", "sim_ms"},
    {"decision.decide_us.p50", "us"},
    {"decision.self_us.p50", "us"},
    {"perf.predict_us.p50", "us"},
    {"power.predict_us.p50", "us"},
    {"cpusim.run_us.p50", "us"},
    {"decision.share.consolidated", "ratio"},
    {"decision.share.individual", "ratio"},
    {"decision.share.cpu", "ratio"},
    {"gpusim.busy_share", "ratio"},
    {"gpusim.runs_per_group", "count"},
    {"daemon.cpu_us_per_req", "us"},
    {"daemon.threads", "count"},
    {"daemon.rss_mb", "MB"},
    {"trace_overhead_pct", "%"},
    {"replay.exact_share", "ratio"},
};

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 42;
  double seconds = 0.0;  ///< BENCHMARK.json run_seconds
  bool traced = false;
  bool smoke = false;
};

struct WorkloadResult {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<std::string> warnings;
  std::map<std::string, double> metrics;
  json::Object info;  ///< counts behind the metrics
  bool correct() const { return errors.empty(); }
};

// ---- small statistics ----

/// Linear interpolation between order statistics (p in [0, 100]); 0 when
/// there are no samples.
using common::percentile;

double counter(const std::optional<server::StatsReplyMsg>& s,
               const std::string& name) {
  if (!s.has_value()) return 0.0;
  const auto it = s->counters.find(name);
  return it == s->counters.end() ? 0.0 : it->second;
}

std::optional<obs::HistogramSnapshot> histogram(
    const std::optional<server::StatsReplyMsg>& s, const std::string& name) {
  if (!s.has_value()) return std::nullopt;
  const auto it = s->histograms.find(name);
  if (it == s->histograms.end()) return std::nullopt;
  return it->second;
}

/// Counts of `newer` minus `older` (same histogram, counts only grow).
obs::HistogramSnapshot hist_delta(const obs::HistogramSnapshot& newer,
                                  const obs::HistogramSnapshot& older) {
  obs::HistogramSnapshot d = newer;
  d.total = 0;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    const std::uint64_t prev = i < older.counts.size() ? older.counts[i] : 0;
    d.counts[i] = d.counts[i] >= prev ? d.counts[i] - prev : 0;
    d.total += d.counts[i];
  }
  d.sum = newer.sum - older.sum;
  return d;
}

std::string sec_tag(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", s);
  return buf;
}

// ---- one workload ----

/// State sampled when the measured window opens and closes.
struct Edge {
  double shard_cpu_s = 0.0;  ///< CPU used so far, summed over the shards
  double router_cpu_s = 0.0;
  std::optional<server::StatsReplyMsg> stats;
  double daemon_rss_mb = 0.0;
  int daemon_threads = 0;
  int own_threads = 0;
  HostTicks host;
};

/// What one round of a workload observed, daemons stopped.
struct Observed {
  std::vector<double> setups;  ///< spawn -> last hello, seconds
  TrafficTimes times;
  Edge edge[2];
  std::optional<server::StatsReplyMsg> final_stats;
  std::uint64_t completed = 0;  ///< answered before the sessions closed
  std::uint64_t duplicates = 0;
  std::uint64_t reconnects = 0;
  std::vector<std::string> shard_logs;
  bool has_router = false;
  double peak_rss_mb = 0.0;  ///< summed over the daemons
};

/// Round `round`: set up the fleet kSetups times, drive `plan` against the
/// last one and stop it. False when a set-up failed; every failure lands in
/// res->errors.
bool observe(const WorkloadDef& w, int round, const TrafficPlan& plan,
             TrafficLog* log, SpanLog* spans, Observed* ob,
             WorkloadResult* res) {
  const std::string run_dir = kBuildDir + "/run";
  ::mkdir(kBuildDir.c_str(), 0755);
  ::mkdir(run_dir.c_str(), 0755);
  std::vector<std::string> serve_flags = mix_flags(w);
  for (const std::string& f :
       {std::string("--threshold"), std::to_string(kThreshold),
        std::string("--inflight"), std::to_string(kInflight)}) {
    serve_flags.push_back(f);
  }
  auto stop = [&](Fleet& fleet, const char* phase) {
    std::vector<std::string> errors;
    fleet.stop(&errors);
    for (const auto& e : errors) res->errors.push_back(phase + e);
    return errors.empty();
  };

  // Destroyed first: the sessions join their reader threads before the
  // daemons are killed on an early return.
  std::unique_ptr<Fleet> fleet;
  Sessions sessions;
  for (int g = 0; g < kSetups; ++g) {
    FleetSpec spec{kEwcsim, run_dir,
                   w.name + "-r" + std::to_string(round) + "-g" +
                       std::to_string(g),
                   serve_flags, w.shards, w.tcp};
    std::string err;
    const Nanos t = now_ns();
    fleet = Fleet::start(spec, &err);
    if (fleet == nullptr ||
        !connect_sessions(fleet->endpoint(), kSessions, &sessions, &err)) {
      res->errors.push_back("set-up: " + err);
      return false;
    }
    ob->setups.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    spans->add("setup", t, now_ns(), kBenchLane, round);
    if (g + 1 < kSetups) {
      sessions.clear();
      if (!stop(*fleet, "set-up teardown: ")) return false;
    }
  }

  std::vector<const Daemon*> daemons;
  for (const auto& d : fleet->shards()) daemons.push_back(d.get());
  if (fleet->router() != nullptr) daemons.push_back(fleet->router());
  auto at_edge = [&](int i) {
    const Nanos t = now_ns();
    Edge& e = ob->edge[i];
    // CPU first, so the stats call below lands in the same window at both
    // edges.
    for (const auto& d : fleet->shards()) {
      e.shard_cpu_s += d->cpu_seconds_now();
    }
    if (const Daemon* r = fleet->router()) {
      e.router_cpu_s = r->cpu_seconds_now();
    }
    e.stats = sessions.front()->stats(/*include_histograms=*/true,
                                      common::Duration::from_seconds(10.0));
    for (const Daemon* d : daemons) {
      e.daemon_rss_mb += d->rss_mb();
      e.daemon_threads += d->threads();
    }
    e.own_threads = own_threads();
    e.host = host_ticks();
    spans->add(i == 0 ? "stats (window start)" : "stats (window end)", t,
               now_ns(), kBenchLane);
  };
  ob->times = drive(sessions, plan, kDrainTimeout, at_edge, log);
  spans->add("warmup", ob->times.t0, ob->times.window_start, kBenchLane);
  spans->add("window", ob->times.window_start, ob->times.window_end,
             kBenchLane);
  spans->add("drain", ob->times.window_end, now_ns(), kBenchLane);
  // Closing a session fails its unanswered requests: count answers first.
  ob->completed = log->completed.load();
  ob->duplicates = log->duplicates.load();
  ob->final_stats = sessions.front()->stats(
      /*include_histograms=*/true, common::Duration::from_seconds(10.0));
  for (const auto& s : sessions) ob->reconnects += s->reconnects();
  sessions.clear();  // joins the reader threads: `log` is quiescent now

  const Nanos t = now_ns();
  stop(*fleet, "teardown: ");
  spans->add("teardown", t, now_ns(), kBenchLane);
  for (const auto& d : fleet->shards()) {
    ob->shard_logs.push_back(d->log());
    ob->peak_rss_mb += d->peak_rss_mb();
  }
  if (const Daemon* r = fleet->router()) {
    ob->has_router = true;
    ob->peak_rss_mb += r->peak_rss_mb();
  }
  return true;
}

/// The shards' REPORT lines and the ok count, after the correctness checks.
struct Checked {
  std::uint64_t ok = 0;
  std::uint64_t reported = 0;  ///< sum of REPORT n over the shards
  std::size_t groups = 0;
  std::vector<std::vector<Report>> reports;  ///< per shard
};

Checked check(const TrafficLog& log, const Observed& ob, WorkloadResult* res) {
  auto fail = [&](const std::string& why) { res->errors.push_back(why); };
  Checked c;
  std::uint64_t bad = 0;
  for (const Request& r : log.requests) {
    if (r.ok && r.finite_finish) {
      ++c.ok;
    } else {
      ++bad;
    }
  }
  const std::uint64_t sent = ob.times.sent;
  res->attempted += sent;
  res->failed += bad + ob.duplicates;
  if (sent == 0) fail("nothing was sent");
  if (ob.completed < sent) {
    fail(std::to_string(sent - ob.completed) + " requests lost");
  }
  if (ob.duplicates > 0) {
    fail(std::to_string(ob.duplicates) + " duplicate replies");
  }
  if (bad > 0) {
    fail(std::to_string(bad) +
         " replies not ok or without a finite finish_time > 0 (first error: " +
         log.first_error + ")");
  }
  if (!ob.edge[0].stats || !ob.edge[1].stats || !ob.final_stats) {
    fail("a stats snapshot failed");
  }
  if (ob.edge[1].own_threads > kMaxThreads) {
    fail("generator ran " + std::to_string(ob.edge[1].own_threads) +
         " threads (budget " + std::to_string(kMaxThreads) + ")");
  }
  for (std::size_t i = 0; i < ob.shard_logs.size(); ++i) {
    const std::string shard = "shard " + std::to_string(i);
    std::string err;
    auto parsed = parse_reports(ob.shard_logs[i], &err);
    if (!parsed.has_value()) {
      fail(shard + ": " + err);
      parsed.emplace();
    }
    double energy = 0.0;  // summed in print order, as the backend does
    for (const Report& r : *parsed) {
      c.reported += static_cast<std::uint64_t>(r.n);
      energy += std::bit_cast<double>(r.energy);
    }
    // A fleet's stats carry each shard's gauges under shard.<i>.
    const std::string key =
        (ob.has_router ? "shard." + std::to_string(i) + "." : std::string()) +
        "backend.total_energy_joules";
    const double gauge = counter(ob.final_stats, key);
    if (ob.final_stats && std::bit_cast<std::uint64_t>(energy) !=
                              std::bit_cast<std::uint64_t>(gauge)) {
      fail(shard + ": REPORT energies sum to " + sec_tag(energy) +
           " J but " + key + " is " + sec_tag(gauge));
    }
    c.groups += parsed->size();
    c.reports.push_back(std::move(*parsed));
  }
  if (c.reported != c.ok) {
    fail("REPORT n sums to " + std::to_string(c.reported) + " but " +
         std::to_string(c.ok) + " replies were ok");
  }
  return c;
}

/// Per-request samples of the measured window.
struct Window {
  double seconds = 0.0;
  std::uint64_t ok = 0;  ///< ok completions received inside the window
  std::vector<double> latency_ms;  ///< requests due inside the window
  std::vector<double> late_ms;     ///< their send - due
  std::vector<double> launch_us;   ///< traced: launch_async duration
};

Window window_samples(const TrafficLog& log, const TrafficTimes& times,
                      bool traced, SpanLog* spans) {
  Window win;
  const Nanos ws = times.window_start, we = times.window_end;
  win.seconds = static_cast<double>(we - ws) * 1e-9;
  for (const Request& r : log.requests) {
    if (r.ok && r.done >= ws && r.done < we) ++win.ok;
    if (r.due < ws || r.due >= we) continue;
    win.latency_ms.push_back(static_cast<double>(r.done - r.due) * 1e-6);
    win.late_ms.push_back(static_cast<double>(r.send - r.due) * 1e-6);
    if (!traced) continue;
    win.launch_us.push_back(static_cast<double>(r.sent - r.send) * 1e-3);
    if (win.latency_ms.size() > kRequestSpans) continue;
    spans->add("request", r.due, r.done, kRequestLane, win.latency_ms.size());
    spans->add("launch_async", r.send, r.sent, kRequestLane,
               win.latency_ms.size());
  }
  return win;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double window_delta(const Observed& ob, const std::string& counter_name) {
  return counter(ob.edge[1].stats, counter_name) -
         counter(ob.edge[0].stats, counter_name);
}

/// One round of a pass: what it observed, its checked REPORTs and its
/// window's samples.
struct Round {
  Observed ob;
  Checked checked;
  Window win;
};

double median(const std::vector<double>& v) { return percentile(v, 50); }

json::Array to_array(const std::vector<double>& v) {
  return json::Array(v.begin(), v.end());
}

/// The end-to-end metrics of a pass: each the median over its rounds, and
/// setup_s the median over all of its set-ups.
void end_to_end(const std::vector<Round>& rounds, WorkloadResult* res) {
  std::vector<double> setups, p50, p99, rps, jpr, rss, late, steal;
  double sent = 0.0, ok = 0.0, samples = 0.0, groups = 0.0;
  int threads = 0;
  bool realtime = true;
  for (const Round& r : rounds) {
    const Window& win = r.win;
    if (win.ok == 0) {
      res->errors.push_back("no ok completion inside a round's window");
    }
    setups.insert(setups.end(), r.ob.setups.begin(), r.ob.setups.end());
    p50.push_back(percentile(win.latency_ms, 50));
    p99.push_back(percentile(win.latency_ms, 99));
    rps.push_back(static_cast<double>(win.ok) / win.seconds);
    jpr.push_back(ratio(window_delta(r.ob, "backend.total_energy_joules"),
                        static_cast<double>(win.ok)));
    rss.push_back(r.ob.peak_rss_mb);
    const HostTicks& h0 = r.ob.edge[0].host;
    const HostTicks& h1 = r.ob.edge[1].host;
    steal.push_back(ratio(h1.steal - h0.steal, h1.total - h0.total) * 100);
    late.insert(late.end(), win.late_ms.begin(), win.late_ms.end());
    sent += static_cast<double>(r.ob.times.sent);
    ok += static_cast<double>(r.checked.ok);
    samples += static_cast<double>(win.latency_ms.size());
    groups += static_cast<double>(r.checked.groups);
    threads = std::max(threads, r.ob.edge[1].own_threads);
    realtime = realtime && r.ob.times.realtime;
  }
  auto& m = res->metrics;
  m["setup_s"] = median(setups);
  m["p50_ms"] = median(p50);
  m["p99_ms"] = median(p99);
  m["throughput_rps"] = median(rps);
  m["j_per_req"] = median(jpr);
  m["peak_rss_mb"] = median(rss);

  const double late_p99 = percentile(late, 99);
  if (late_p99 > kMaxLateMs) {
    res->warnings.push_back("generator p99 lateness " + sec_tag(late_p99) +
                            " ms exceeds " + sec_tag(kMaxLateMs) +
                            " ms: latencies of this run are void");
  }
  res->info = json::Object{
      {"rounds", static_cast<double>(rounds.size())},
      {"window_s", rounds.front().win.seconds},
      {"sent", sent},
      {"ok", ok},
      {"samples", samples},
      {"gen_late_ms_p50", percentile(late, 50)},
      {"gen_late_ms_p99", late_p99},
      {"gen_late_ms_p999", percentile(late, 99.9)},
      {"gen_late_ms_max", percentile(late, 100)},
      {"generator_threads", static_cast<double>(threads)},
      {"generator_realtime", realtime},
      {"connections", static_cast<double>(kSessions)},
      {"groups", groups},
      {"setup_s_values", to_array(setups)},
      {"round_p50_ms", to_array(p50)},
      {"round_p99_ms", to_array(p99)},
      {"round_throughput_rps", to_array(rps)},
      {"round_j_per_req", to_array(jpr)},
      {"round_peak_rss_mb", to_array(rss)},
      {"round_host_steal_pct", to_array(steal)}};
}

/// Per-layer metrics of one traced round. Replays up to `replay_limit` of
/// its groups and adds their count, and the count that matched exactly, to
/// *replayed and *exact.
std::map<std::string, double> round_layers(Replayer& replayer,
                                           const Round& round,
                                           std::size_t replay_limit,
                                           SpanLog* spans, double* replayed,
                                           double* exact) {
  const Observed& ob = round.ob;
  const Window& win = round.win;
  const Checked& c = round.checked;
  std::vector<ReplayGroup> groups;
  for (const auto& shard : c.reports) {
    auto g = replayer.replay(shard, replay_limit / c.reports.size(), spans);
    groups.insert(groups.end(), g.begin(), g.end());
  }

  double busy_us = 0.0, gpusim_us = 0.0, runs = 0.0, n = 0.0;
  std::vector<double> decide, self, perf, power, cpu, busy_ms;
  for (const auto& g : groups) {
    *exact += g.exact ? 1.0 : 0.0;
    busy_us += g.busy_us;
    gpusim_us += g.gpusim_us;
    runs += g.gpusim_runs;
    n += g.n;
    busy_ms.push_back(g.busy_us * 1e-3);
    if (!g.decided) continue;
    decide.push_back(g.decide_us);
    self.push_back(g.decide_us - g.perf_us - g.power_us - g.cpu_us);
    perf.push_back(g.perf_us);
    power.push_back(g.power_us);
    cpu.push_back(g.cpu_us);
  }
  *replayed += static_cast<double>(groups.size());
  double decided = 0.0, chosen[3] = {0.0, 0.0, 0.0}, largest_shard = 0.0;
  for (const auto& shard : c.reports) {
    double shard_n = 0.0;
    for (const Report& r : shard) {
      shard_n += r.n;
      if (r.tmpl == "-" || r.executed < 0 || r.executed > 2) continue;
      decided += 1.0;
      chosen[r.executed] += 1.0;
    }
    largest_shard = std::max(largest_shard, shard_n);
  }
  std::optional<obs::HistogramSnapshot> residency;
  {
    const auto a = histogram(ob.edge[0].stats, "server.request_latency_seconds");
    const auto b = histogram(ob.edge[1].stats, "server.request_latency_seconds");
    if (a && b) residency = hist_delta(*b, *a);
  }
  const double residency_p50 = residency ? residency->percentile(50) * 1e3 : 0.0;
  const auto batch = histogram(ob.final_stats, "backend.batch_size");
  const double ok_run = static_cast<double>(c.ok);
  const double busy_per_req = ratio(busy_us, n);
  const double ok_window = static_cast<double>(win.ok);
  const double shard_cpu_s = ob.edge[1].shard_cpu_s - ob.edge[0].shard_cpu_s;
  const double router_cpu_s = ob.edge[1].router_cpu_s - ob.edge[0].router_cpu_s;

  std::map<std::string, double> m;
  m["client.launch_us.p50"] = percentile(win.launch_us, 50);
  m["client.gen_late_ms.p99"] = percentile(win.late_ms, 99);
  m["client.reconnects"] = static_cast<double>(ob.reconnects);
  m["transport_ms.p50"] = percentile(win.latency_ms, 50) - residency_p50;
  m["router.cpu_share"] = ratio(router_cpu_s, shard_cpu_s + router_cpu_s);
  m["router.frames_per_req"] =
      ratio(counter(ob.final_stats, "router.forwarded_frames") +
                counter(ob.final_stats, "router.returned_frames"),
            ok_run);
  m["router.max_shard_share"] =
      ratio(largest_shard, static_cast<double>(c.reported));
  m["server.residency_ms.p50"] = residency_p50;
  m["server.residency_ms.p99"] =
      residency ? residency->percentile(99) * 1e3 : 0.0;
  m["server.cpu_us_per_req"] =
      ratio(shard_cpu_s * 1e6, ok_window) - busy_per_req;
  for (const std::string c_name : {"rejected", "deadline_expired",
                                   "protocol_errors", "replayed_requests",
                                   "degraded_decisions"}) {
    m["server." + c_name] = counter(ob.final_stats, "server." + c_name);
  }
  m["backend.batch_size.mean"] = batch ? batch->mean() : 0.0;
  m["backend.groups_per_batch"] =
      batch ? ratio(static_cast<double>(c.groups),
                    static_cast<double>(batch->total))
            : 0.0;
  m["backend.fill_wait_ms.p50"] = residency_p50 - percentile(busy_ms, 50);
  m["backend.busy_us_per_req"] = busy_per_req;
  m["backend.sim_ms_per_req"] =
      ratio(window_delta(ob, "backend.total_time_seconds") * 1e3, ok_window);
  m["decision.decide_us.p50"] = percentile(decide, 50);
  m["decision.self_us.p50"] = percentile(self, 50);
  m["perf.predict_us.p50"] = percentile(perf, 50);
  m["power.predict_us.p50"] = percentile(power, 50);
  m["cpusim.run_us.p50"] = percentile(cpu, 50);
  m["decision.share.consolidated"] = ratio(chosen[0], decided);
  m["decision.share.individual"] = ratio(chosen[1], decided);
  m["decision.share.cpu"] = ratio(chosen[2], decided);
  m["gpusim.busy_share"] = ratio(gpusim_us, busy_us);
  m["gpusim.runs_per_group"] =
      ratio(runs, static_cast<double>(groups.size()));
  m["daemon.cpu_us_per_req"] =
      ratio((shard_cpu_s + router_cpu_s) * 1e6, ok_window);
  m["daemon.threads"] = ob.edge[1].daemon_threads;
  m["daemon.rss_mb"] = ob.edge[1].daemon_rss_mb;
  return m;
}

/// The per-layer metrics of the traced pass: event counts added up over its
/// rounds, every other metric the median round's value.
void per_layer(const std::vector<workloads::InstanceSpec>& specs,
               const std::vector<Round>& rounds, SpanLog* spans,
               WorkloadResult* res) {
  const Nanos t = now_ns();
  Replayer replayer(specs);
  double replayed = 0.0, exact = 0.0;
  std::map<std::string, std::vector<double>> values;
  for (const Round& r : rounds) {
    for (const auto& [name, v] :
         round_layers(replayer, r, kReplayGroups / rounds.size(), spans,
                      &replayed, &exact)) {
      values[name].push_back(v);
    }
  }
  spans->add("replay", t, now_ns(), kBenchLane);
  res->info["replayed_groups"] = replayed;
  res->info["replay_s"] = static_cast<double>(now_ns() - t) * 1e-9;
  // The replay copies the backend's orchestration (see replay.hpp), so a
  // mismatch voids the replayed layer numbers, not the daemon's answers.
  if (exact != replayed || replayed == 0.0) {
    res->warnings.push_back("replay matched " + sec_tag(exact) + "/" +
                            sec_tag(replayed) +
                            " groups bit for bit: replayed layer numbers "
                            "are void");
  }
  for (const MetricDef& d : kPerLayer) {
    const auto it = values.find(d.name);
    if (it == values.end()) continue;
    double sum = 0.0;
    for (const double v : it->second) sum += v;
    res->metrics[d.name] = d.events ? sum : median(it->second);
  }
  res->metrics["replay.exact_share"] = ratio(exact, replayed);
}

/// The kRounds rounds of one pass, each against its own fleet. nullopt when
/// a set-up failed; every failure lands in res->errors.
std::optional<std::vector<Round>> run_pass(const WorkloadDef& w,
                                           const Options& opt, bool traced,
                                           SpanLog* spans,
                                           WorkloadResult* res) {
  std::vector<Round> rounds(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    TrafficPlan plan;
    plan.window_start = kWarmupSeconds;
    plan.window_end = kWarmupSeconds + opt.seconds / kRounds;
    plan.traced = traced;
    const auto config =
        schedule_config(w, round_seed(opt.seed, i), plan.window_end);
    for (const auto& m : config.mix) plan.descs.push_back(m.desc);
    plan.schedule = loadgen::build_schedule(config);
    TrafficLog log;  // outlives the sessions inside observe()
    Round& r = rounds[i];
    if (!observe(w, i, plan, &log, spans, &r.ob, res)) return std::nullopt;
    r.checked = check(log, r.ob, res);
    r.win = window_samples(log, r.ob.times, traced, spans);
  }
  return rounds;
}

WorkloadResult run_workload(const WorkloadDef& w, const Options& opt) {
  WorkloadResult res;
  res.name = w.name;
  SpanLog no_spans(0);
  const auto untraced = run_pass(w, opt, false, &no_spans, &res);
  if (!untraced) return res;
  end_to_end(*untraced, &res);
  if (!opt.traced) return res;

  // The same seed again, traced: the per-layer numbers come from this pass,
  // and the tracing overhead is its p50 against the untraced pass's.
  const std::size_t untraced_errors = res.errors.size();
  SpanLog spans(kTraceSpans);
  const auto traced = run_pass(w, opt, true, &spans, &res);
  for (std::size_t i = untraced_errors; i < res.errors.size(); ++i) {
    res.errors[i] = "traced pass: " + res.errors[i];
  }
  if (!traced) return res;
  std::vector<workloads::InstanceSpec> specs;
  for (const auto& [name, weight] : w.mix) specs.push_back(spec_named(name));
  per_layer(specs, *traced, &spans, &res);
  std::vector<double> traced_p50;
  for (const Round& r : *traced) {
    traced_p50.push_back(percentile(r.win.latency_ms, 50));
  }
  const double untraced_p50 = res.metrics["p50_ms"];
  res.metrics["trace_overhead_pct"] =
      ratio(median(traced_p50) - untraced_p50, untraced_p50) * 100;
  const std::string path = kBuildDir + "/trace-" + w.name + ".json";
  std::string err;
  if (!spans.write_chrome_trace(path, &err)) res.warnings.push_back(err);
  res.info["chrome_trace"] = path;
  return res;
}

// ---- output ----

const std::vector<MetricDef>& metric_defs(bool traced) {
  return traced ? kPerLayer : kEndToEnd;
}

json::Value result_json(const WorkloadResult& r, bool traced,
                        bool with_details) {
  json::Object metrics;
  for (const auto& d : metric_defs(traced)) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) continue;
    metrics[d.name] = json::Object{{"value", it->second}, {"unit", d.unit}};
  }
  json::Object o{{"correct", r.correct()},
                 {"attempted", static_cast<double>(r.attempted)},
                 {"failed", static_cast<double>(r.failed)},
                 {"metrics", std::move(metrics)}};
  if (with_details) {
    json::Array errors, warnings;
    for (const auto& e : r.errors) errors.emplace_back(e);
    for (const auto& w : r.warnings) warnings.emplace_back(w);
    o["errors"] = std::move(errors);
    o["warnings"] = std::move(warnings);
    o["info"] = r.info;
  }
  return o;
}

void print_metrics(const WorkloadResult& r, bool traced) {
  for (const auto& d : metric_defs(traced)) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) continue;
    std::printf("METRIC workload=%s name=%s value=%.17g unit=%s\n",
                r.name.c_str(), d.name, it->second, d.unit);
  }
  for (const auto& e : r.errors) {
    std::fprintf(stderr, "ewc_bench: %s: CHECK FAILED: %s\n", r.name.c_str(),
                 e.c_str());
  }
  for (const auto& w : r.warnings) {
    std::fprintf(stderr, "ewc_bench: %s: warning: %s\n", r.name.c_str(),
                 w.c_str());
  }
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : workload_table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<WorkloadResult> run_all(const Options& opt) {
  std::vector<WorkloadResult> results;
  for (const auto& name : opt.workloads) {
    results.push_back(run_workload(*find_workload(name), opt));
    print_metrics(results.back(), opt.traced);
    std::fflush(stdout);
  }
  return results;
}

/// The result line: one workload's object, or for several the merged
/// object with metrics named <workload>.<metric>.
json::Value summary(const std::vector<WorkloadResult>& results, bool traced) {
  if (results.size() == 1) return result_json(results.front(), traced, false);
  bool correct = true;
  double attempted = 0.0, failed = 0.0;
  json::Object metrics;
  for (const auto& r : results) {
    correct = correct && r.correct();
    attempted += static_cast<double>(r.attempted);
    failed += static_cast<double>(r.failed);
    for (const auto& d : metric_defs(traced)) {
      const auto it = r.metrics.find(d.name);
      if (it == r.metrics.end()) continue;
      metrics[r.name + "." + d.name] =
          json::Object{{"value", it->second}, {"unit", d.unit}};
    }
  }
  return json::Object{{"correct", correct},
                      {"attempted", attempted},
                      {"failed", failed},
                      {"metrics", std::move(metrics)}};
}

bool write_result_file(const Options& opt,
                       const std::vector<WorkloadResult>& results) {
  json::Object per_workload;
  for (const auto& r : results) {
    per_workload[r.name] = result_json(r, opt.traced, true);
  }
  const json::Value doc = json::Object{
      {"schema", "ewc-benchmark/v1"},
      {"seed", static_cast<double>(opt.seed)},
      {"seconds", opt.seconds},
      {"trace", opt.traced},
      {"workloads", std::move(per_workload)}};
  std::ofstream out(kBuildDir + "/bench-result.json", std::ios::trunc);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

// ---- smoke: every workload briefly, both passes, against the spec ----

/// Whether `ewcsim loadgen --print-schedule` prints the schedule this
/// benchmark sends in round `round` of a workload.
bool schedule_matches(const WorkloadDef& w, const Options& opt, int round,
                      std::string* why) {
  const double duration = kWarmupSeconds + opt.seconds / kRounds;
  const std::uint64_t seed = round_seed(opt.seed, round);
  const auto config = schedule_config(w, seed, duration);
  std::string ours;
  char t[24];
  for (const auto& e : loadgen::build_schedule(config)) {
    std::snprintf(t, sizeof t, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(e.at_seconds)));
    ours += std::string("SCHED t=") + t + " session=" +
            std::to_string(e.session) + " mix=" + config.mix[e.mix_index].name +
            "\n";
  }
  std::vector<std::string> argv = {
      kEwcsim, "loadgen", "--print-schedule", "--sessions",
      std::to_string(kSessions), "--duration", sec_tag(duration), "--seed",
      std::to_string(seed), "--profile", w.profile};
  for (const auto& f : mix_flags(w)) argv.push_back(f);
  auto loadgen = Daemon::spawn(
      argv, kBuildDir + "/run/" + w.name + "-schedule.log", why);
  if (loadgen == nullptr || !loadgen->wait(60.0, why)) return false;
  if (loadgen->log() != ours) {
    *why = "differs from `ewcsim loadgen --print-schedule`";
    return false;
  }
  return true;
}

/// Run every workload of the spec for kSmokeSeconds with `--trace 1` (so
/// both passes run) and check the metric names and units of both against
/// the spec, and that the replay matched every group.
int smoke(Options opt, const json::Value& spec) {
  int problems = 0;
  auto problem = [&](const std::string& what) {
    std::fprintf(stderr, "SMOKE FAIL %s\n", what.c_str());
    ++problems;
  };
  auto declared = [&](const char* key) {
    std::map<std::string, std::string> units;
    if (const auto* list = spec.find(key); list && list->is_array()) {
      for (const auto& mdef : list->as_array()) {
        const auto* name = mdef.find("name");
        const auto* unit = mdef.find("unit");
        if (name && unit && name->is_string() && unit->is_string()) {
          units[name->as_string()] = unit->as_string();
        }
      }
    }
    return units;
  };
  const auto e2e = declared("end_to_end");
  const auto layers = declared("per_layer");
  std::vector<std::string> names;
  if (const auto* list = spec.find("workloads"); list && list->is_array()) {
    for (const auto& wdef : list->as_array()) {
      if (const auto* n = wdef.find("name"); n && n->is_string()) {
        names.push_back(n->as_string());
      }
    }
  }
  if (names.size() != workload_table().size()) {
    problem("spec lists " + std::to_string(names.size()) +
            " workloads, the benchmark runs " +
            std::to_string(workload_table().size()));
  }
  opt.seconds = kSmokeSeconds;
  opt.traced = true;
  for (const auto& name : names) {
    const WorkloadDef* w = find_workload(name);
    if (w == nullptr) {
      problem("spec workload " + name + " is unknown");
      continue;
    }
    for (int round = 0; round < kRounds; ++round) {
      std::string why;
      const bool same = schedule_matches(*w, opt, round, &why);
      if (!same) problem(name + " schedule: " + why);
      std::printf("SMOKE %s round %d schedule: %s\n", name.c_str(), round,
                  same ? "same as ewcsim loadgen" : "DIFFERS");
    }
    const WorkloadResult r = run_workload(*w, opt);
    for (const auto& e : r.errors) problem(name + ": " + e);
    for (const bool traced : {false, true}) {
      const std::string pass = name + (traced ? " --trace 1" : " --trace 0");
      const json::Value line = result_json(r, traced, false);
      std::map<std::string, std::string> got;
      for (const auto& [mname, mval] : line.find("metrics")->as_object()) {
        got[mname] = mval.find("unit")->as_string();
        if (!std::isfinite(mval.find("value")->as_number())) {
          problem(pass + ": " + mname + " is not finite");
        }
      }
      if (got != (traced ? layers : e2e)) {
        problem(pass + ": metric names/units differ from the spec");
      }
      std::printf("SMOKE %s: metrics=%zu\n", pass.c_str(), got.size());
    }
    const auto exact = r.metrics.find("replay.exact_share");
    if (exact == r.metrics.end() || exact->second != 1.0) {
      problem(name + ": the replay did not match every group");
    }
    if (r.attempted < 1) problem(name + ": attempted < 1");
    std::printf("SMOKE %s: %s attempted=%llu failed=%llu\n", name.c_str(),
                r.correct() ? "ok" : "FAILED",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
  }
  std::printf("SMOKE %s\n", problems == 0 ? "passed" : "FAILED");
  return problems == 0 ? 0 : 1;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "ewc_bench: %s\n"
               "usage: ewc_bench [--workload W]... [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "       ewc_bench --smoke\n"
               "workloads:",
               why.c_str());
  for (const auto& w : workload_table()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string err;
  const auto spec = json::parse_file(kSpec, &err);
  const json::Value* run_seconds = spec ? spec->find("run_seconds") : nullptr;
  if (run_seconds == nullptr || !run_seconds->is_number()) {
    std::fprintf(stderr, "ewc_bench: %s: %s\n", kSpec.c_str(),
                 spec ? "no run_seconds" : err.c_str());
    return 2;
  }
  Options opt;
  opt.seconds = run_seconds->as_number();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(a + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      if (find_workload(v) == nullptr) return usage("unknown workload " + v);
      opt.workloads.push_back(v);
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return usage("bad --seed " + v);
    } else if (a == "--seconds") {
      if (v.empty() || std::strtod(v.c_str(), &end) != opt.seconds ||
          *end != '\0') {
        return usage("--seconds must be " + kSpec + "'s run_seconds, " +
                     sec_tag(opt.seconds));
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.traced = v == "1";
    } else {
      return usage("unknown flag " + a);
    }
  }
  if (opt.smoke) return smoke(opt, *spec);
  if (opt.workloads.empty()) {
    for (const auto& w : workload_table()) opt.workloads.push_back(w.name);
  }
  const auto results = run_all(opt);
  if (!write_result_file(opt, results)) {
    std::fprintf(stderr, "ewc_bench: cannot write %s/bench-result.json\n",
                 kBuildDir.c_str());
  }
  const json::Value line = summary(results, opt.traced);
  std::printf("%s\n", line.dump().c_str());
  return line.find("correct")->as_bool() ? 0 : 1;
}

}  // namespace
}  // namespace ewc::bench

int main(int argc, char** argv) {
  try {
    return ewc::bench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ewc_bench: %s\n", e.what());
    return 1;
  }
}
