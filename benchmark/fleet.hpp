// The daemons one benchmark workload runs against: real `ewcsim serve`
// shards and, for a fleet, an `ewcsim route` front door, each a child
// process whose stdout is captured to a log file. The benchmark reads their
// bound endpoints from the logs, their live RSS and thread counts from
// /proc, their CPU time and peak RSS from wait4() rusage, and, after
// SIGTERM, the bit-exact REPORT lines the shards print while draining.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>
#include <time.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ewc::bench {

/// One child process. The destructor SIGKILLs and reaps a child that was
/// never stopped, so no error path leaves a daemon behind, and the kernel
/// SIGKILLs the child if this process dies first.
class Daemon {
 public:
  /// fork/exec `argv` (argv[0] is the binary path) with stdout redirected
  /// to `log_path` and stderr to `log_path` + ".err". nullptr with *error
  /// when the spawn itself fails.
  static std::unique_ptr<Daemon> spawn(const std::vector<std::string>& argv,
                                       const std::string& log_path,
                                       std::string* error);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Poll the log until the daemon prints its "listening on <endpoint>"
  /// line; the canonical endpoint (a tcp port-0 bind resolved). nullopt
  /// with *error on timeout or early exit.
  std::optional<std::string> wait_listening(double timeout_s,
                                            std::string* error);

  /// Resident set and thread count from /proc/<pid>/status (0 once exited).
  double rss_mb() const;
  int threads() const;
  /// CPU seconds used so far (user + system, all threads), read from the
  /// process's CPU clock at nanosecond resolution; -1 once it exited.
  double cpu_seconds_now() const;

  /// SIGTERM, then wait().
  bool stop(double timeout_s, std::string* error);

  /// Read stdout to EOF and reap the process, waiting up to `timeout_s`
  /// (SIGKILL after it). True when it exited 0 by itself.
  bool wait(double timeout_s, std::string* error);

  /// Valid after wait(): peak resident set over the process lifetime.
  double peak_rss_mb() const;

  /// The stdout captured so far (all of it after wait()).
  const std::string& log() const { return out_; }

 private:
  Daemon() = default;
  bool reap(bool block);
  /// Wait up to `timeout_s` for stdout and append what arrives; false once
  /// the pipe reached EOF.
  bool read_output(double timeout_s);

  pid_t pid_ = -1;
  clockid_t cpu_clock_ = CLOCK_PROCESS_CPUTIME_ID;  ///< set by spawn()
  bool reaped_ = false;
  int status_ = 0;
  struct rusage usage_ {};
  int out_fd_ = -1;  ///< read end of the child's stdout pipe
  std::string out_;
  std::string log_path_;  ///< stdout is saved here by wait()
};

/// Where and how a workload's fleet runs.
struct FleetSpec {
  std::string ewcsim;    ///< path of the ewcsim binary
  std::string run_dir;   ///< logs and UNIX sockets go here
  std::string tag;       ///< file-name prefix (workload + generation)
  std::vector<std::string> serve_flags;  ///< mix, threshold, inflight
  int shards = 1;
  bool tcp = false;      ///< loopback TCP (ephemeral ports) instead of UNIX
};

/// `shards` serve daemons plus, when there is more than one, a router.
class Fleet {
 public:
  /// Spawn every daemon and wait until each is listening.
  static std::unique_ptr<Fleet> start(const FleetSpec& spec,
                                      std::string* error);

  /// The endpoint clients dial: the router's, or the single shard's.
  const std::string& endpoint() const { return endpoint_; }
  const std::vector<std::unique_ptr<Daemon>>& shards() const {
    return shards_;
  }
  /// nullptr for a single-shard fleet.
  const Daemon* router() const { return router_.get(); }

  /// Router first, then the shards; each must exit 0 after printing its
  /// drain line. Appends every failure to *errors.
  bool stop(std::vector<std::string>* errors);

 private:
  Fleet() = default;

  std::vector<std::unique_ptr<Daemon>> shards_;
  std::unique_ptr<Daemon> router_;
  std::string endpoint_;
};

/// One `REPORT` line of an `ewcsim serve` shard: a processed candidate
/// group, with its results as IEEE-754 bit patterns.
struct Report {
  int n = 0;
  std::string tmpl;  ///< "-" when no template covered the group
  int executed = 0;  ///< consolidate::Alternative
  int launches = 0;
  bool degraded = false;
  std::uint64_t overhead = 0, exec = 0, total = 0, energy = 0;
  std::vector<std::string> kernels;
};

/// Every REPORT line of a serve log, in print (= execution) order. nullopt
/// with *error on a malformed line.
std::optional<std::vector<Report>> parse_reports(const std::string& log,
                                                 std::string* error);

/// Threads of the calling process (/proc/self/task entries).
int own_threads();

/// Machine-wide CPU time from the first line of /proc/stat, in clock ticks:
/// all of it, and the part the hypervisor gave to other guests (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostTicks host_ticks();

}  // namespace ewc::bench
