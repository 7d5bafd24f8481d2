#include "base/fault_injection.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "base/random.h"
#include "base/sync.h"

namespace psky::fault {

namespace {

struct Clause {
  // Occurrence window [first, last], 1-based inclusive; last = UINT64_MAX
  // for open ranges. Ignored by probabilistic clauses (probability >= 0).
  uint64_t first = 0;
  uint64_t last = 0;
  double probability = -1.0;  // < 0: deterministic occurrence match
  int fail_errno = 0;         // nonzero: fail clause
  uint64_t delay_ms = 0;      // nonzero: delay clause

  bool Matches(uint64_t occurrence, Rng* rng) const {
    if (probability >= 0.0) return rng->NextBernoulli(probability);
    return occurrence >= first && occurrence <= last;
  }
};

struct Schedule {
  std::vector<Clause> per_site[kSiteCount];
  uint64_t occurrences[kSiteCount] = {};
  Rng rng{0x5EEDu};
  Stats stats;
};

// Constant-initialized (constexpr ctor), so hooks that fire during
// static init/teardown never touch an unconstructed lock.
Mutex g_mu{"fault-schedule", lockrank::kFaultSchedule};
Schedule g_schedule PSKY_GUARDED_BY(g_mu);

constexpr const char* kSiteNames[kSiteCount] = {
    "ckpt-open",  "ckpt-write", "ckpt-fsync", "ckpt-rename",
    "step",       "wal-append", "wal-fsync",  "segment-io",
};

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

bool ParseErrnoName(std::string_view name, int* out) {
  if (name == "eio") {
    *out = EIO;
  } else if (name == "enospc") {
    *out = ENOSPC;
  } else if (name == "eintr") {
    *out = EINTR;
  } else {
    return false;
  }
  return true;
}

// "N" | "N..M" | "N+" into [first, last].
bool ParseOccurrenceSpec(std::string_view spec, uint64_t* first,
                         uint64_t* last) {
  const size_t dots = spec.find("..");
  if (dots != std::string_view::npos) {
    return ParseU64(spec.substr(0, dots), first) &&
           ParseU64(spec.substr(dots + 2), last) && *first >= 1 &&
           *last >= *first;
  }
  if (!spec.empty() && spec.back() == '+') {
    *last = UINT64_MAX;
    return ParseU64(spec.substr(0, spec.size() - 1), first) && *first >= 1;
  }
  if (!ParseU64(spec, first)) return false;
  *last = *first;
  return *first >= 1;
}

bool FailParse(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = "chaos schedule: " + msg;
  return false;
}

// One "key=value" clause into `out`; seed clauses update `*seed`.
bool ParseClause(std::string_view clause, Schedule* out, uint64_t* seed,
                 std::string* error) {
  const size_t eq = clause.find('=');
  if (eq == std::string_view::npos) {
    return FailParse(error, "clause '" + std::string(clause) +
                                "' is not key=value");
  }
  const std::string_view key = clause.substr(0, eq);
  const std::string_view value = clause.substr(eq + 1);

  if (key == "seed") {
    if (!ParseU64(value, seed)) {
      return FailParse(error, "bad seed '" + std::string(value) + "'");
    }
    return true;
  }

  if (key == "fail" || key == "delay") {
    const size_t at = value.find('@');
    if (at == std::string_view::npos) {
      return FailParse(error, std::string(key) + " clause needs <site>@<occ>");
    }
    Site site;
    if (!ParseSiteName(value.substr(0, at), &site)) {
      return FailParse(error, "unknown site '" +
                                  std::string(value.substr(0, at)) + "'");
    }
    std::string_view rest = value.substr(at + 1);
    Clause c;
    if (key == "fail") {
      // occ[:err]
      const size_t colon = rest.find(':');
      std::string_view occ = rest;
      c.fail_errno = EIO;
      if (colon != std::string_view::npos) {
        occ = rest.substr(0, colon);
        if (!ParseErrnoName(rest.substr(colon + 1), &c.fail_errno)) {
          return FailParse(error, "unknown errno name '" +
                                      std::string(rest.substr(colon + 1)) +
                                      "'");
        }
      }
      if (!ParseOccurrenceSpec(occ, &c.first, &c.last)) {
        return FailParse(error,
                         "bad occurrence spec '" + std::string(occ) + "'");
      }
    } else {
      // occ:ms
      const size_t colon = rest.rfind(':');
      if (colon == std::string_view::npos) {
        return FailParse(error, "delay clause needs <occ>:<ms>");
      }
      if (!ParseOccurrenceSpec(rest.substr(0, colon), &c.first, &c.last) ||
          !ParseU64(rest.substr(colon + 1), &c.delay_ms)) {
        return FailParse(error,
                         "bad delay clause '" + std::string(rest) + "'");
      }
    }
    out->per_site[static_cast<int>(site)].push_back(c);
    return true;
  }

  if (key == "pfail") {
    // <site>:<prob>[:<err>]
    const size_t colon = value.find(':');
    if (colon == std::string_view::npos) {
      return FailParse(error, "pfail clause needs <site>:<prob>");
    }
    Site site;
    if (!ParseSiteName(value.substr(0, colon), &site)) {
      return FailParse(error, "unknown site '" +
                                  std::string(value.substr(0, colon)) + "'");
    }
    std::string_view rest = value.substr(colon + 1);
    Clause c;
    c.fail_errno = EIO;
    const size_t colon2 = rest.find(':');
    std::string_view prob = rest;
    if (colon2 != std::string_view::npos) {
      prob = rest.substr(0, colon2);
      if (!ParseErrnoName(rest.substr(colon2 + 1), &c.fail_errno)) {
        return FailParse(error, "unknown errno name '" +
                                    std::string(rest.substr(colon2 + 1)) +
                                    "'");
      }
    }
    char* end = nullptr;
    const std::string prob_str(prob);
    c.probability = std::strtod(prob_str.c_str(), &end);
    // Pointer/char equality, not a float compare: strtod end-pointer check.
    if (end == prob_str.c_str() || *end != '\0' ||  // psky-lint: allow(float-eq)
        c.probability < 0.0 || c.probability > 1.0) {
      return FailParse(error, "bad probability '" + prob_str + "'");
    }
    out->per_site[static_cast<int>(site)].push_back(c);
    return true;
  }

  return FailParse(error, "unknown clause key '" + std::string(key) + "'");
}

}  // namespace

namespace internal {

std::atomic<bool> g_armed{false};

int FailErrnoSlow(Site site) {
  MutexLock lock(g_mu);
  const int s = static_cast<int>(site);
  const uint64_t occurrence = ++g_schedule.occurrences[s];
  for (const Clause& c : g_schedule.per_site[s]) {
    if (c.fail_errno != 0 && c.Matches(occurrence, &g_schedule.rng)) {
      ++g_schedule.stats.failures_injected;
      return c.fail_errno;
    }
  }
  return 0;
}

uint64_t DelayMsSlow(Site site) {
  MutexLock lock(g_mu);
  const int s = static_cast<int>(site);
  const uint64_t occurrence = ++g_schedule.occurrences[s];
  for (const Clause& c : g_schedule.per_site[s]) {
    if (c.delay_ms != 0 && c.Matches(occurrence, &g_schedule.rng)) {
      ++g_schedule.stats.delays_injected;
      g_schedule.stats.delay_ms_total += c.delay_ms;
      return c.delay_ms;
    }
  }
  return 0;
}

}  // namespace internal

const char* SiteName(Site site) {
  return kSiteNames[static_cast<int>(site)];
}

bool ParseSiteName(std::string_view name, Site* out) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

void MaybeDelay(Site site) {
  const uint64_t ms = DelayMs(site);
  if (ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool LoadSchedule(std::string_view spec, std::string* error) {
  Schedule fresh;
  uint64_t seed = 0x5EEDu;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view clause = spec.substr(start, end - start);
    if (!clause.empty() && !ParseClause(clause, &fresh, &seed, error)) {
      return false;
    }
    start = end + 1;
  }
  fresh.rng = Rng(seed);

  bool any = false;
  for (const auto& clauses : fresh.per_site) any = any || !clauses.empty();
  {
    MutexLock lock(g_mu);
    g_schedule = std::move(fresh);
  }
  internal::g_armed.store(any, std::memory_order_relaxed);
  return true;
}

void Clear() {
  internal::g_armed.store(false, std::memory_order_relaxed);
  MutexLock lock(g_mu);
  g_schedule = Schedule{};
}

Stats StatsSnapshot() {
  MutexLock lock(g_mu);
  return g_schedule.stats;
}

uint64_t Occurrences(Site site) {
  MutexLock lock(g_mu);
  return g_schedule.occurrences[static_cast<int>(site)];
}

}  // namespace psky::fault
