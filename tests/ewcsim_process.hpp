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
