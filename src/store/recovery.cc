#include "store/recovery.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>

namespace psky {

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

void Note(std::string* notes, const std::string& msg) {
  if (!notes->empty()) notes->append("; ");
  notes->append(msg);
}

bool ParsePaddedU64(const std::string& digits, uint64_t* out) {
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

std::string Describe(const ReplayTarget& target) {
  if (target.kind == ReplayTarget::Kind::kStep) {
    return "replay target " + std::to_string(target.step);
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "replay target ts:%.17g", target.time);
  return buf;
}

// True once `r` lies past the target: the rebuild stops before it.
bool PastTarget(const ReplayTarget& target, const WalRecord& r) {
  return target.kind == ReplayTarget::Kind::kStep
             ? r.step_after > target.step
             : r.element.time > target.time;
}

}  // namespace

bool ParseCheckpointStep(const std::string& path, uint64_t* step) {
  const std::string name = std::filesystem::path(path).filename().string();
  if (name.size() != CheckpointFileName(0).size() ||
      name.rfind("ckpt-", 0) != 0 ||
      name.compare(name.size() - 5, 5, ".psky") != 0) {
    return false;
  }
  return ParsePaddedU64(name.substr(5, 20), step);
}

bool StreamRecovery(const std::string& dir,
                    const std::optional<ReplayTarget>& target,
                    const RecoverySink& sink, RecoveredState* out,
                    std::string* error) {
  RecoveredState state;

  // The base: the newest checkpoint that validates and, with a target,
  // whose state is a prefix of the target sequence. For a step target
  // that is any checkpoint at or before the step; for a time target the
  // admitted-timestamp monotonicity (window policies reject or clamp
  // out-of-order arrivals) makes "newest window element at or before T"
  // the same prefix condition. The probe read validates the whole file,
  // so a corrupt one is skipped before any of it reaches the sink.
  const std::vector<std::string> checkpoints = ListCheckpointFiles(dir);
  std::string base_path;
  for (const std::string& path : checkpoints) {  // newest first
    uint64_t step = 0;
    if (!ParseCheckpointStep(path, &step)) continue;
    if (target && target->kind == ReplayTarget::Kind::kStep &&
        step > target->step) {
      continue;
    }
    CheckpointState header;
    double newest_time = -std::numeric_limits<double>::infinity();
    std::string file_error;
    if (!ReadCheckpointFileStreamed(
            path, &header,
            [&newest_time](const UncertainElement& e) { newest_time = e.time; },
            &file_error)) {
      Note(&state.notes, file_error);
      continue;
    }
    if (target && target->kind == ReplayTarget::Kind::kTime &&
        newest_time > target->time) {
      continue;
    }
    state.checkpoint = std::move(header);
    state.has_checkpoint = true;
    base_path = path;
    break;
  }
  if (checkpoints.empty()) Note(&state.notes, "no checkpoint files in " + dir);
  const uint64_t base_step = state.checkpoint.elements_consumed;

  // The WAL chain extending the base starts at the last file whose start
  // step is at or below it; earlier files only hold older records.
  const std::vector<std::string> wal_files =
      sink.record ? ListWalFiles(dir) : std::vector<std::string>{};
  size_t first = 0;
  bool covers_base = false;
  for (size_t i = 0; i < wal_files.size(); ++i) {
    uint64_t start = 0;
    if (ParseWalStartStep(wal_files[i], &start) && start <= base_step) {
      first = i;
      covers_base = true;
    }
  }
  if (target && !state.has_checkpoint && !covers_base) {
    // Without a checkpoint base the WAL must cover the stream from
    // step 1, or the rebuild would answer from a truncated history.
    if (checkpoints.empty() && wal_files.empty()) {
      return Fail(error, "nothing to replay in " + dir);
    }
    return Fail(error, Describe(*target) + " predates retained history in " +
                           dir + (state.notes.empty() ? "" : ": " +
                                                              state.notes));
  }

  // Reads chain file `i` into `contents`, tracking the append target and
  // torn tails; an unreadable file breaks the chain.
  WalContents contents;
  bool any_readable = false;
  bool chain_broken = false;
  auto read_wal = [&](size_t i) {
    contents = WalContents{};
    std::string file_error;
    if (!ReadWalFile(wal_files[i], &contents, &file_error)) {
      Note(&state.notes, file_error);
      chain_broken = true;
      return false;
    }
    any_readable = true;
    state.active_wal = wal_files[i];
    state.active_wal_start = contents.start_step;
    state.active_wal_tail = WalTailOf(contents);
    if (contents.tail_truncated) {
      state.tail_truncated = true;
      Note(&state.notes, wal_files[i] + ": " + contents.tail_diagnostic);
    }
    return true;
  };
  if (first < wal_files.size() && read_wal(first)) {
    state.wal_dims = contents.dims;
  }

  if (sink.begin && !sink.begin(state)) {
    if (error != nullptr) error->clear();
    return false;
  }
  if (state.has_checkpoint) {
    CheckpointState again;
    std::string read_error;
    if (!ReadCheckpointFileStreamed(base_path, &again, sink.element,
                                    &read_error)) {
      return Fail(error, read_error);
    }
  }

  // Records step_after = base + 1, base + 2, ... across consecutive
  // files, up to the first gap, unreadable stretch or the target.
  // Without a target the scan reads on past a break to find the newest
  // readable file, the resumed run's append target.
  uint64_t expected = base_step + 1;
  bool reached = false;
  for (size_t i = first; i < wal_files.size() && !reached; ++i) {
    if (i != first && !read_wal(i)) continue;
    if (chain_broken) continue;
    for (const WalRecord& r : contents.records) {
      if (r.step_after < expected) continue;  // pre-base or duplicate
      if (r.step_after != expected) {
        Note(&state.notes, wal_files[i] + ": gap before step " +
                               std::to_string(r.step_after) + " (expected " +
                               std::to_string(expected) + ")");
        chain_broken = true;
        break;
      }
      if (target && PastTarget(*target, r)) {
        reached = true;
        break;
      }
      sink.record(r);
      ++expected;
    }
  }

  if (!target && !state.has_checkpoint && !any_readable) {
    return Fail(error, state.notes.empty()
                           ? "nothing to recover in " + dir
                           : "nothing to recover in " + dir + ": " +
                                 state.notes);
  }
  const bool covered =
      !target || (target->kind == ReplayTarget::Kind::kStep
                      ? expected > target->step
                      : reached || !chain_broken);
  if (!covered) {
    return Fail(error, Describe(*target) +
                           " is beyond retained WAL coverage (have steps "
                           "up to " +
                           std::to_string(expected - 1) + ")");
  }
  *out = std::move(state);
  return true;
}

bool RecoverState(const std::string& dir, RecoveredState* out,
                  std::string* error) {
  std::vector<UncertainElement> window;
  std::vector<WalRecord> tail;
  RecoverySink sink;
  sink.element = [&window](const UncertainElement& e) { window.push_back(e); };
  sink.record = [&tail](const WalRecord& r) { tail.push_back(r); };
  if (!StreamRecovery(dir, std::nullopt, sink, out, error)) return false;
  out->checkpoint.window = std::move(window);
  out->tail = std::move(tail);
  return true;
}

bool ParseReplayTarget(const std::string& spec, ReplayTarget* out,
                       std::string* error) {
  ReplayTarget target;
  if (spec.rfind("ts:", 0) == 0) {
    const std::string value = spec.substr(3);
    char* end = nullptr;
    target.kind = ReplayTarget::Kind::kTime;
    target.time = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(target.time)) {
      return Fail(error, "bad --replay-at timestamp '" + value + "'");
    }
  } else {
    target.kind = ReplayTarget::Kind::kStep;
    if (!ParsePaddedU64(spec, &target.step) || spec.empty()) {
      return Fail(error, "bad --replay-at position '" + spec +
                             "' (want a step count or ts:<seconds>)");
    }
  }
  *out = target;
  return true;
}

}  // namespace psky
