#include "fleet.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace ewc::bench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

/// The value of a "Key:   <number> ..." line of /proc/<pid>/status.
double proc_status_field(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::spawn(const std::vector<std::string>& argv,
                                      const std::string& log_path,
                                      std::string* error) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  const std::string err_path = log_path + ".err";
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  auto d = std::unique_ptr<Daemon>(new Daemon());
  d->log_path_ = log_path;
  const pid_t parent = ::getpid();
  // vfork, as posix_spawn does, so the cost of a spawn (part of setup_s)
  // does not grow with this process's memory. The child only makes system
  // calls before exec. PR_SET_PDEATHSIG kills the daemon when this process
  // dies by any means, a signal included, so no daemon outlives the
  // benchmark; the getppid() check covers a parent that died before it.
  const pid_t pid = ::vfork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int err_fd =
        ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (err_fd < 0 || ::dup2(err_fd, STDERR_FILENO) < 0 ||
        ::dup2(out[1], STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    ::execve(args[0], args.data(), environ);
    ::_exit(127);  // exec failed: wait_listening reports the early exit
  }
  const int spawn_errno = errno;
  ::close(out[1]);
  if (pid < 0) {
    ::close(out[0]);
    *error = "spawn " + argv[0] + ": " + std::strerror(spawn_errno);
    return nullptr;
  }
  d->pid_ = pid;
  d->out_fd_ = out[0];
  if (const int cerr = clock_getcpuclockid(d->pid_, &d->cpu_clock_);
      cerr != 0) {
    *error = "clock_getcpuclockid: " + std::string(std::strerror(cerr));
    return nullptr;  // the destructor kills and reaps the child
  }
  return d;
}

Daemon::~Daemon() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    reap(/*block=*/true);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::reap(bool block) {
  if (reaped_) return true;
  const pid_t r = ::wait4(pid_, &status_, block ? 0 : WNOHANG, &usage_);
  if (r == pid_) reaped_ = true;
  return reaped_;
}

bool Daemon::read_output(double timeout_s) {
  if (out_fd_ < 0) return false;
  pollfd p{out_fd_, POLLIN, 0};
  const int timeout_ms = timeout_s <= 0.0 ? 0 : static_cast<int>(timeout_s * 1e3) + 1;
  if (::poll(&p, 1, timeout_ms) <= 0) return true;
  char buf[65536];
  const ssize_t n = ::read(out_fd_, buf, sizeof buf);
  if (n > 0) {
    out_.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  if (n < 0 && errno == EINTR) return true;
  ::close(out_fd_);  // EOF: the daemon closed stdout (it exited)
  out_fd_ = -1;
  return false;
}

std::optional<std::string> Daemon::wait_listening(double timeout_s,
                                                   std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const auto at = out_.find(" listening on ");
    if (at != std::string::npos) {
      const auto start = at + std::strlen(" listening on ");
      const auto end = out_.find_first_of(" \n", start);
      if (end != std::string::npos) return out_.substr(start, end - start);
    }
    const double left = seconds_until(deadline);
    if (left <= 0.0) {
      *error = log_path_ + ": no listening line within " +
               std::to_string(timeout_s) + " s";
      return std::nullopt;
    }
    if (!read_output(left)) {
      *error = log_path_ + ": exited before listening";
      return std::nullopt;
    }
  }
}

double Daemon::rss_mb() const {
  return reaped_ ? 0.0 : proc_status_field(pid_, "VmRSS") / 1024.0;
}

int Daemon::threads() const {
  return reaped_ ? 0 : static_cast<int>(proc_status_field(pid_, "Threads"));
}

double Daemon::cpu_seconds_now() const {
  timespec ts{};
  if (reaped_ || clock_gettime(cpu_clock_, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

bool Daemon::stop(double timeout_s, std::string* error) {
  if (!reaped_) ::kill(pid_, SIGTERM);
  return wait(timeout_s, error);
}

bool Daemon::wait(double timeout_s, std::string* error) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  // A draining shard prints its REPORT lines and then exits; read stdout to
  // EOF so a long report never blocks on a full pipe.
  while (out_fd_ >= 0 && seconds_until(deadline) > 0.0) {
    read_output(seconds_until(deadline));
  }
  while (!reap(/*block=*/false) && seconds_until(deadline) > 0.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::ofstream log(log_path_, std::ios::trunc);
    log << out_;
  }
  if (!reaped_) {
    ::kill(pid_, SIGKILL);
    reap(/*block=*/true);
    *error = log_path_ + ": did not exit within " +
             std::to_string(timeout_s) + " s";
    return false;
  }
  if (!WIFEXITED(status_) || WEXITSTATUS(status_) != 0) {
    *error = log_path_ + ": exit status " + std::to_string(status_);
    return false;
  }
  return true;
}

double Daemon::peak_rss_mb() const {
  return static_cast<double>(usage_.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<Fleet> Fleet::start(const FleetSpec& spec,
                                    std::string* error) {
  constexpr double kListenTimeout = 30.0;
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  // A run that was killed leaves its UNIX socket files behind, and a stale
  // file makes the next bind fail.
  auto listen_on = [&](const std::string& base) {
    if (spec.tcp) return std::string("tcp:127.0.0.1:0");
    ::unlink((base + ".sock").c_str());
    return "unix:" + base + ".sock";
  };
  std::vector<std::string> shard_endpoints;
  for (int i = 0; i < spec.shards; ++i) {
    const std::string base = spec.run_dir + "/" + spec.tag + "-shard" +
                             std::to_string(i);
    std::vector<std::string> argv = {spec.ewcsim, "serve", "--socket",
                                     listen_on(base)};
    argv.insert(argv.end(), spec.serve_flags.begin(), spec.serve_flags.end());
    auto d = Daemon::spawn(argv, base + ".log", error);
    if (d == nullptr) return nullptr;
    fleet->shards_.push_back(std::move(d));
  }
  for (auto& d : fleet->shards_) {
    auto ep = d->wait_listening(kListenTimeout, error);
    if (!ep.has_value()) return nullptr;
    shard_endpoints.push_back(*ep);
  }
  if (spec.shards == 1) {
    fleet->endpoint_ = shard_endpoints.front();
    return fleet;
  }
  const std::string base = spec.run_dir + "/" + spec.tag + "-router";
  std::vector<std::string> argv = {spec.ewcsim, "route", "--listen",
                                   listen_on(base)};
  for (const auto& ep : shard_endpoints) {
    argv.push_back("--shard");
    argv.push_back(ep);
  }
  fleet->router_ = Daemon::spawn(argv, base + ".log", error);
  if (fleet->router_ == nullptr) return nullptr;
  auto ep = fleet->router_->wait_listening(kListenTimeout, error);
  if (!ep.has_value()) return nullptr;
  fleet->endpoint_ = *ep;
  return fleet;
}

bool Fleet::stop(std::vector<std::string>* errors) {
  constexpr double kStopTimeout = 30.0;
  bool ok = true;
  auto stop_one = [&](Daemon& d, const char* drained_line) {
    std::string err;
    if (!d.stop(kStopTimeout, &err)) {
      errors->push_back(err);
      ok = false;
    } else if (d.log().find(drained_line) == std::string::npos) {
      errors->push_back(std::string("daemon exited without '") +
                        drained_line + "'");
      ok = false;
    }
  };
  if (router_ != nullptr) stop_one(*router_, "router stopped\n");
  for (auto& d : shards_) stop_one(*d, "ewcd drained, exiting\n");
  return ok;
}

std::optional<std::vector<Report>> parse_reports(const std::string& log,
                                                 std::string* error) {
  std::vector<Report> reports;
  std::istringstream in(log);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("REPORT ", 0) != 0) continue;
    Report r;
    int fields = 0;
    std::istringstream tokens(line.substr(7));
    std::string tok;
    while (tokens >> tok) {
      const auto eq = tok.find('=');
      if (eq == std::string::npos) continue;
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      auto hex = [&] { return std::strtoull(val.c_str(), nullptr, 16); };
      ++fields;
      if (key == "n") r.n = std::atoi(val.c_str());
      else if (key == "tmpl") r.tmpl = val;
      else if (key == "executed") r.executed = std::atoi(val.c_str());
      else if (key == "launches") r.launches = std::atoi(val.c_str());
      else if (key == "degraded") r.degraded = val == "1";
      else if (key == "overhead") r.overhead = hex();
      else if (key == "exec") r.exec = hex();
      else if (key == "total") r.total = hex();
      else if (key == "energy") r.energy = hex();
      else if (key == "kernels") {
        std::istringstream names(val);
        std::string name;
        while (std::getline(names, name, ',')) r.kernels.push_back(name);
      } else {
        --fields;
      }
    }
    if (fields != 10 || r.n <= 0 ||
        r.kernels.size() != static_cast<std::size_t>(r.n)) {
      *error = "malformed REPORT line: " + line;
      return std::nullopt;
    }
    reports.push_back(std::move(r));
  }
  return reports;
}

int own_threads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

HostTicks host_ticks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  HostTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

}  // namespace ewc::bench
