#include "fault/injector.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <thread>

#include "common/log.hpp"
#include "obs/registry.hpp"

namespace ewc::fault {

namespace {

// Every site with a hook in the tree. Keep sorted; known_sites() is part of
// the scenario-validation contract and docs/ROBUSTNESS.md mirrors this list.
constexpr std::array<std::string_view, 14> kKnownSites = {
    "backend.batch",     // consolidate::Backend::process_batch entry
    "backend.price",     // consolidate::BatchFormer pure pricing entry
    "decision.decide",   // consolidate::DecisionEngine::decide entry
    "net.accept",        // net::Listener::accept, after readiness (fd mint)
    "net.connect",       // net::connect_unix entry
    "net.frame.send",    // net::write_frame, whole assembled frame
    "net.recv",          // net::Socket::recv_exact entry + reactor read
    "net.send",          // net::Socket::send_exact entry
    "net.tcp_connect",   // net::connect_tcp entry
    "router.forward",    // router downstream->upstream frame forward
    "router.handoff",    // router live-migration, before the export
    "server.admit",      // server pump, before launch admission
    "server.migrate",    // server migrate export/import handlers
    "server.reply",      // server reply delivery, before the frame
};

bool is_known_site(std::string_view site) {
  return std::find(kKnownSites.begin(), kKnownSites.end(), site) !=
         kKnownSites.end();
}

std::optional<ActionKind> parse_kind(std::string_view text) {
  if (text == "fail") return ActionKind::kFail;
  if (text == "stall") return ActionKind::kStall;
  if (text == "short_write") return ActionKind::kShortWrite;
  if (text == "corrupt") return ActionKind::kCorrupt;
  if (text == "close") return ActionKind::kClose;
  if (text == "drop") return ActionKind::kDrop;
  if (text == "delay") return ActionKind::kDelay;
  return std::nullopt;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_double(const std::string& text, double* out) {
  try {
    std::size_t pos = 0;
    *out = std::stod(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_int(const std::string& text, long long* out) {
  try {
    std::size_t pos = 0;
    *out = std::stoll(text, &pos);
    return pos == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool fail(std::string* error, const std::string& why) {
  if (error) *error = why;
  return false;
}

bool parse_rule(const std::string& text, Rule* rule, std::string* error) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return fail(error, "rule '" + text + "' is not site=kind[:opt=..]");
  }
  rule->site = text.substr(0, eq);
  if (!is_known_site(rule->site)) {
    std::string known;
    for (const auto& s : kKnownSites) {
      known += known.empty() ? std::string(s) : ", " + std::string(s);
    }
    return fail(error, "unknown site '" + rule->site + "' (known: " + known + ")");
  }
  const auto parts = split(text.substr(eq + 1), ':');
  const auto kind = parse_kind(parts[0]);
  if (!kind) {
    return fail(error, "unknown fault kind '" + parts[0] +
                           "' (fail, stall, short_write, corrupt, close, "
                           "drop, delay)");
  }
  rule->kind = *kind;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t opt_eq = parts[i].find('=');
    if (opt_eq == std::string::npos) {
      return fail(error, "option '" + parts[i] + "' is not name=value");
    }
    const std::string name = parts[i].substr(0, opt_eq);
    const std::string value = parts[i].substr(opt_eq + 1);
    if (name == "p") {
      double p = 0.0;
      if (!parse_double(value, &p) || p < 0.0 || p > 1.0) {
        return fail(error, "p must be in [0,1], got '" + value + "'");
      }
      rule->probability = p;
    } else if (name == "after") {
      long long n = 0;
      if (!parse_int(value, &n) || n < 0) {
        return fail(error, "after must be >= 0, got '" + value + "'");
      }
      rule->after = static_cast<int>(n);
    } else if (name == "times") {
      long long n = 0;
      if (!parse_int(value, &n) || n < -1) {
        return fail(error, "times must be >= -1, got '" + value + "'");
      }
      rule->times = static_cast<int>(n);
    } else if (name == "dur") {
      double s = 0.0;
      if (!parse_double(value, &s) || s < 0.0) {
        return fail(error, "dur must be >= 0 seconds, got '" + value + "'");
      }
      rule->duration = common::Duration::from_seconds(s);
    } else if (name == "bytes") {
      long long n = 0;
      if (!parse_int(value, &n) || n < 0) {
        return fail(error, "bytes must be >= 0, got '" + value + "'");
      }
      rule->bytes = static_cast<std::size_t>(n);
    } else {
      return fail(error, "unknown option '" + name +
                             "' (p, after, times, dur, bytes)");
    }
  }
  return true;
}

}  // namespace

const char* action_kind_name(ActionKind k) {
  switch (k) {
    case ActionKind::kNone: return "none";
    case ActionKind::kFail: return "fail";
    case ActionKind::kStall: return "stall";
    case ActionKind::kShortWrite: return "short_write";
    case ActionKind::kCorrupt: return "corrupt";
    case ActionKind::kClose: return "close";
    case ActionKind::kDrop: return "drop";
    case ActionKind::kDelay: return "delay";
  }
  return "?";
}

std::span<const std::string_view> known_sites() {
  return {kKnownSites.data(), kKnownSites.size()};
}

std::optional<std::vector<Rule>> parse_scenario(const std::string& text,
                                                std::string* error) {
  std::vector<Rule> rules;
  for (const auto& part : split(text, ';')) {
    if (part.empty()) continue;  // tolerate trailing ';'
    Rule rule;
    if (!parse_rule(part, &rule, error)) return std::nullopt;
    rules.push_back(std::move(rule));
  }
  return rules;
}

Injector::Injector() {
  const char* scenario = std::getenv("EWC_FAULTS");
  if (scenario == nullptr || scenario[0] == '\0') return;
  std::uint64_t seed = 0;
  if (const char* s = std::getenv("EWC_FAULTS_SEED")) {
    seed = std::strtoull(s, nullptr, 10);
  }
  std::string error;
  if (!arm(scenario, seed, &error)) {
    // A chaos run with a typo'd scenario silently testing nothing is worse
    // than a crash.
    common::log_info("fault: bad EWC_FAULTS scenario: ", error);
    std::abort();
  }
}

Injector& Injector::instance() {
  static Injector inj;
  return inj;
}

bool Injector::arm(const std::string& scenario, std::uint64_t seed,
                   std::string* error) {
  auto rules = parse_scenario(scenario, error);
  if (!rules) return false;
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  for (auto& rule : *rules) rules_.push_back(ArmedRule{std::move(rule), 0, 0});
  rng_ = common::Rng(seed);
  armed_.store(!rules_.empty(), std::memory_order_relaxed);
  return true;
}

void Injector::disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

Action Injector::hit(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  for (ArmedRule& armed : rules_) {
    if (armed.rule.site != site) continue;
    armed.hits++;
    if (armed.hits <= armed.rule.after) continue;
    if (armed.rule.times >= 0 && armed.fired >= armed.rule.times) continue;
    if (armed.rule.probability < 1.0 &&
        rng_.uniform() >= armed.rule.probability) {
      continue;
    }
    armed.fired++;
    obs::Registry::instance()
        .counter("fault.injected." + std::string(site))
        .inc();
    Action action;
    action.kind = armed.rule.kind;
    action.duration = armed.rule.duration;
    action.bytes = armed.rule.bytes;
    action.draw = rng_.engine()();
    return action;
  }
  return {};
}

std::uint64_t Injector::fired(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ArmedRule& armed : rules_) {
    if (armed.rule.site == site) n += static_cast<std::uint64_t>(armed.fired);
  }
  return n;
}

std::uint64_t Injector::total_fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const ArmedRule& armed : rules_) {
    n += static_cast<std::uint64_t>(armed.fired);
  }
  return n;
}

void sleep_for(common::Duration d) {
  if (!d.is_finite() || d.seconds() <= 0.0) return;
  // Chunked so an armed process answering SIGTERM doesn't hang a full
  // scripted stall.
  double left = d.seconds();
  while (left > 0.0) {
    const double step = std::min(left, 0.05);
    std::this_thread::sleep_for(std::chrono::duration<double>(step));
    left -= step;
  }
}

}  // namespace ewc::fault
