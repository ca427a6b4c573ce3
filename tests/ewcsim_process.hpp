// Fork/exec helpers for the suites that drive the real ewcsim binary as
// separate processes. Each such suite's target defines EWCSIM_PATH.
#pragma once

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace ewc {

/// Start `ewcsim <args...>` with stdout and stderr redirected to
/// `stdout_path`. Returns the child's pid (<= 0 on fork failure).
inline pid_t spawn_ewcsim(const std::vector<std::string>& args,
                          const std::string& stdout_path) {
  std::vector<std::string> full;
  full.push_back(EWCSIM_PATH);
  full.insert(full.end(), args.begin(), args.end());
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until execv.
    const int fd =
        ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (auto& a : full) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

/// A spawned ewcsim whose stdout and stderr arrive on a pipe.
struct PipedEwcsim {
  pid_t pid = -1;  ///< <= 0 on failure
  int out = -1;    ///< the pipe's read end; close it after reaping
};

/// Start `ewcsim <args...>` with stdout and stderr on a close-on-exec pipe,
/// so later children do not hold it open.
inline PipedEwcsim spawn_ewcsim_piped(const std::vector<std::string>& args) {
  std::vector<std::string> full;
  full.push_back(EWCSIM_PATH);
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return {};
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], 1);
    ::dup2(fds[1], 2);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return {};
  }
  return {pid, fds[0]};
}

/// Read `fd` through the "... listening on <endpoint> ..." banner line and
/// return the endpoint; "" if the stream ends first. It blocks on the pipe,
/// so nothing sleeps or polls.
inline std::string read_banner(int fd) {
  const std::string key = "listening on ";
  std::string line;
  char c;
  while (::read(fd, &c, 1) == 1) {
    if (c != '\n') {
      line += c;
      continue;
    }
    const auto at = line.find(key);
    if (at != std::string::npos) {
      const auto start = at + key.size();
      return line.substr(start, line.find(' ', start) - start);
    }
    line.clear();
  }
  return "";
}

/// The rest of `fd` up to end of stream.
inline std::string read_all(int fd) {
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;) text.append(buf, n);
  return text;
}

/// The `Threads:` count in /proc/<pid>/status (-1 if unreadable).
inline int thread_count(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Reap `pid`: its exit code, or minus the signal that killed it.
inline int wait_exit_code(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -WTERMSIG(status);
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Parse "KEY k1=v1 k2=v2 ..." lines with the given leading keyword.
inline std::vector<std::map<std::string, std::string>> parse_records(
    const std::string& text, const std::string& keyword) {
  std::vector<std::map<std::string, std::string>> records;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string word;
    if (!(words >> word) || word != keyword) continue;
    std::map<std::string, std::string> rec;
    while (words >> word) {
      const auto eq = word.find('=');
      if (eq != std::string::npos) {
        rec[word.substr(0, eq)] = word.substr(eq + 1);
      }
    }
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace ewc
