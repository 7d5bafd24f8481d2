#include "core/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "base/build_info.h"
#include "base/crc32.h"
#include "base/fault_injection.h"
#include "base/wire.h"
#include "geom/point.h"

namespace psky {

namespace {

using wire::AppendF64;
using wire::AppendString;
using wire::AppendU32;
using wire::AppendU64;
using wire::Cursor;

constexpr char kMagic[8] = {'P', 'S', 'K', 'Y', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 24;
// Build-info stamps are short one-liners; anything longer than this in the
// length field is corruption, not a stamp.
constexpr uint64_t kMaxProducerBytes = 4096;
// Upper bound on the payload's fixed fields: the producer stamp plus the
// configuration, stream-position and counter fields that follow it.
constexpr uint64_t kMaxFixedBytes = kMaxProducerBytes + 256;

CheckpointCrashHook g_crash_hook = nullptr;

// Dies at `point` (returns false) when a crash hook is installed and asks
// for it; no hook means run to completion.
bool SurvivesCrashPoint(CheckpointCrashPoint point) {
  return g_crash_hook == nullptr || g_crash_hook(point);
}

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// strerror's static buffer is not thread-safe in general, but checkpoint
// IO runs entirely on the caller's thread and nothing else in this
// process calls strerror concurrently.
std::string ErrnoString(int err) {
  return std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
}
std::string ErrnoString() { return ErrnoString(errno); }

// Failure with an errno attached, for callers (the retry wrapper) that
// classify transient vs. permanent conditions. `err` of 0 means the
// failure was not errno-shaped (simulated crash hook, logic error) and is
// treated as permanent.
bool FailIo(std::string* error, int* out_errno, int err,
            const std::string& msg) {
  if (out_errno != nullptr) *out_errno = err;
  return Fail(error, msg);
}

uint64_t ElementBytes(int dims) { return 24 + 8 * static_cast<uint64_t>(dims); }

std::string EncodeHeader(uint32_t crc, uint64_t payload_size) {
  std::string header;
  header.append(kMagic, sizeof kMagic);
  AppendU32(&header, kVersion);
  AppendU32(&header, crc);
  AppendU64(&header, payload_size);
  return header;
}

// Fixed-field payload prefix shared by EncodeCheckpoint and the
// streaming writer, so both produce identical bytes for the same
// logical state. `window_count` is the element count that follows.
std::string EncodePayloadPrefix(const CheckpointState& state,
                                uint64_t window_count) {
  std::string payload;
  // The stamp identifies the *writer*: an explicitly pre-set producer (a
  // re-encoded foreign snapshot) is preserved, otherwise this binary's.
  AppendString(&payload,
               state.producer.empty() ? BuildInfoString() : state.producer);
  AppendU32(&payload, static_cast<uint32_t>(state.dims));
  AppendF64(&payload, state.q);
  payload.push_back(static_cast<char>(state.window_kind));
  AppendU64(&payload, state.window_capacity);
  AppendF64(&payload, state.time_span);
  AppendU64(&payload, state.elements_consumed);
  AppendU64(&payload, state.lines_consumed);
  AppendU64(&payload, state.next_seq);
  AppendU64(&payload, state.bad_lines_skipped);
  AppendU64(&payload, state.probs_clamped);
  AppendU64(&payload, state.ooo_dropped);
  AppendU64(&payload, window_count);
  return payload;
}

void AppendElement(std::string* payload, const UncertainElement& e, int dims) {
  AppendU64(payload, e.seq);
  AppendF64(payload, e.prob);
  AppendF64(payload, e.time);
  for (int i = 0; i < dims; ++i) AppendF64(payload, e.pos[i]);
}

// Validates the file header (`bytes` may run past it) and yields the
// payload CRC and size it promises.
bool DecodeHeader(std::string_view bytes, uint32_t* crc,
                  uint64_t* payload_size, std::string* error) {
  if (bytes.size() < kHeaderSize) {
    return Fail(error, "checkpoint truncated: " + std::to_string(bytes.size()) +
                           " bytes, header needs " +
                           std::to_string(kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Fail(error, "bad checkpoint magic (not a checkpoint file?)");
  }
  Cursor header(bytes.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  uint32_t version = 0;
  header.ReadU32(&version);
  header.ReadU32(crc);
  header.ReadU64(payload_size);
  if (version != kVersion) {
    return Fail(error, "unsupported checkpoint version " +
                           std::to_string(version) + " (expected " +
                           std::to_string(kVersion) + ")");
  }
  return true;
}

// Checks the payload actually present against the header's promise.
bool VerifyPayload(uint64_t size, uint32_t crc, uint64_t want_size,
                   uint32_t want_crc, std::string* error) {
  if (size != want_size) {
    return Fail(error, "checkpoint payload size mismatch: header says " +
                           std::to_string(want_size) + ", file has " +
                           std::to_string(size));
  }
  if (crc != want_crc) {
    return Fail(error, "checkpoint CRC mismatch (corrupted payload)");
  }
  return true;
}

// Decodes and validates the fixed fields from `prefix`, the first bytes
// of a CRC-verified payload of `payload_size` bytes (at least
// min(payload_size, kMaxFixedBytes) of them). Sets `*count` to the
// element count and `*consumed` to the offset of the element section,
// whose size must match the count exactly.
bool DecodeFixedFields(std::string_view prefix, uint64_t payload_size,
                       CheckpointState* state, uint64_t* count,
                       size_t* consumed, std::string* error) {
  Cursor c(prefix);
  uint32_t dims = 0;
  uint8_t kind = 0;
  if (!c.ReadString(&state->producer, kMaxProducerBytes)) {
    return Fail(error, "checkpoint build-info stamp truncated or oversized");
  }
  if (!c.ReadU32(&dims) || !c.ReadF64(&state->q) || !c.ReadU8(&kind) ||
      !c.ReadU64(&state->window_capacity) || !c.ReadF64(&state->time_span) ||
      !c.ReadU64(&state->elements_consumed) ||
      !c.ReadU64(&state->lines_consumed) || !c.ReadU64(&state->next_seq) ||
      !c.ReadU64(&state->bad_lines_skipped) ||
      !c.ReadU64(&state->probs_clamped) || !c.ReadU64(&state->ooo_dropped) ||
      !c.ReadU64(count)) {
    return Fail(error, "checkpoint payload truncated in fixed fields");
  }
  if (dims < 1 || dims > static_cast<uint32_t>(kMaxDims)) {
    return Fail(error, "checkpoint dims out of range: " + std::to_string(dims));
  }
  state->dims = static_cast<int>(dims);
  if (!(state->q > 0.0) || !(state->q <= 1.0) || !std::isfinite(state->q)) {
    return Fail(error, "checkpoint q out of range");
  }
  if (kind > static_cast<uint8_t>(WindowKind::kTime)) {
    return Fail(error, "checkpoint window kind unknown: " +
                           std::to_string(kind));
  }
  state->window_kind = static_cast<WindowKind>(kind);
  *consumed = prefix.size() - c.remaining();
  const uint64_t section = payload_size - *consumed;
  const uint64_t elem_bytes = ElementBytes(state->dims);
  // Divide instead of multiplying: count is attacker-controlled and
  // count * elem_bytes can wrap mod 2^64 to match the section size,
  // sending a colossal count into window.reserve() (fuzz regression
  // ckpt-count-overflow).
  if (*count > section / elem_bytes || section != *count * elem_bytes) {
    return Fail(error, "checkpoint element section size mismatch: " +
                           std::to_string(*count) + " elements need " +
                           std::to_string(*count * elem_bytes) + " bytes, " +
                           std::to_string(section) + " present");
  }
  return true;
}

// Decodes the whole elements in `bytes` (element `first_index` onward),
// validating each before it reaches `sink`.
bool DecodeElements(std::string_view bytes, int dims, uint64_t first_index,
                    const CheckpointElementSink& sink, std::string* error) {
  Cursor c(bytes);
  const uint64_t n = bytes.size() / ElementBytes(dims);
  for (uint64_t i = first_index; i < first_index + n; ++i) {
    UncertainElement e;
    e.pos = Point(dims);
    c.ReadU64(&e.seq);
    c.ReadF64(&e.prob);
    c.ReadF64(&e.time);
    for (int d = 0; d < dims; ++d) c.ReadF64(&e.pos[d]);
    if (!std::isfinite(e.prob) || e.prob <= 0.0 || e.prob > 1.0) {
      return Fail(error, "checkpoint element " + std::to_string(i) +
                             " has invalid probability");
    }
    for (int d = 0; d < dims; ++d) {
      if (!std::isfinite(e.pos[d])) {
        return Fail(error, "checkpoint element " + std::to_string(i) +
                               " has non-finite coordinate");
      }
    }
    sink(e);
  }
  return true;
}

// Decodes an open checkpoint file in two passes: the payload CRC is
// verified before any element reaches `sink`, then the fixed fields and
// elements stream through in batches.
bool ReadOpenCheckpoint(std::FILE* f, CheckpointState* out,
                        const CheckpointElementSink& sink,
                        std::string* error) {
  char header[kHeaderSize];
  const size_t header_got = std::fread(header, 1, sizeof header, f);
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  if (!DecodeHeader(std::string_view(header, header_got), &crc, &payload_size,
                    error)) {
    return false;
  }
  // Pass 1: checksum the payload without retaining it.
  uint32_t actual_crc = 0;
  uint64_t actual_size = 0;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    actual_crc = Crc32(buf, n, actual_crc);
    actual_size += n;
  }
  if (std::ferror(f) != 0) return Fail(error, "cannot read payload");
  if (!VerifyPayload(actual_size, actual_crc, payload_size, crc, error)) {
    return false;
  }
  // Pass 2: decode. The fixed fields fit a small buffer; elements stream
  // in batches.
  std::string fixed(
      static_cast<size_t>(std::min<uint64_t>(payload_size, kMaxFixedBytes)),
      '\0');
  if (std::fseek(f, static_cast<long>(kHeaderSize), SEEK_SET) != 0 ||
      std::fread(fixed.data(), 1, fixed.size(), f) != fixed.size()) {
    return Fail(error, "cannot read payload");
  }
  CheckpointState state;
  uint64_t count = 0;
  size_t consumed = 0;
  if (!DecodeFixedFields(fixed, payload_size, &state, &count, &consumed,
                         error)) {
    return false;
  }
  if (std::fseek(f, static_cast<long>(kHeaderSize + consumed), SEEK_SET) != 0) {
    return Fail(error, "cannot seek to element section");
  }
  constexpr uint64_t kBatchElements = 4096;
  std::string batch;
  for (uint64_t i = 0; i < count; i += kBatchElements) {
    batch.resize(static_cast<size_t>(std::min(kBatchElements, count - i) *
                                     ElementBytes(state.dims)));
    if (std::fread(batch.data(), 1, batch.size(), f) != batch.size()) {
      return Fail(error, "cannot read payload");
    }
    if (!DecodeElements(batch, state.dims, i, sink, error)) return false;
  }
  *out = std::move(state);
  return true;
}

// The temp files this program's atomic writers leave when interrupted: a
// checkpoint's ("ckpt-*.psky.tmp"), a WAL creation's or rotation's
// ("wal-*.pskywal.tmp") and a quarantine dump's ("quarantine-*.tmp",
// its checkpoint or its note). Any other "*.tmp" in the directory
// belongs to someone else.
bool IsOwnTemp(const std::string& name) {
  auto framed = [&name](std::string_view prefix, std::string_view suffix) {
    return name.size() > prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  return framed("ckpt-", ".psky.tmp") || framed("wal-", ".pskywal.tmp") ||
         framed("quarantine-", ".tmp");
}

}  // namespace

void SetCheckpointCrashHook(CheckpointCrashHook hook) { g_crash_hook = hook; }

std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string payload = EncodePayloadPrefix(state, state.window.size());
  payload.reserve(payload.size() +
                  state.window.size() * ElementBytes(state.dims));
  for (const UncertainElement& e : state.window) {
    AppendElement(&payload, e, state.dims);
  }
  return EncodeHeader(Crc32(payload.data(), payload.size()), payload.size()) +
         payload;
}

bool DecodeCheckpoint(std::string_view bytes, CheckpointState* out,
                      std::string* error) {
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  if (!DecodeHeader(bytes, &crc, &payload_size, error)) return false;
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (!VerifyPayload(payload.size(), Crc32(payload.data(), payload.size()),
                     payload_size, crc, error)) {
    return false;
  }
  CheckpointState state;
  uint64_t count = 0;
  size_t consumed = 0;
  if (!DecodeFixedFields(payload, payload_size, &state, &count, &consumed,
                         error)) {
    return false;
  }
  state.window.reserve(count);
  if (!DecodeElements(
          payload.substr(consumed), state.dims, 0,
          [&state](const UncertainElement& e) { state.window.push_back(e); },
          error)) {
    return false;
  }
  *out = std::move(state);
  return true;
}

bool WriteCheckpointFile(const std::string& path, const CheckpointState& state,
                         std::string* error, int* out_errno) {
  size_t next = 0;
  return WriteCheckpointFileStreamed(
      path, state, state.window.size(),
      [&](UncertainElement* e) {
        *e = state.window[next++];
        return true;
      },
      error, out_errno);
}

bool WriteCheckpointFileStreamed(const std::string& path,
                                 const CheckpointState& state,
                                 uint64_t window_count,
                                 const CheckpointElementSource& source,
                                 std::string* error, int* out_errno) {
  if (out_errno != nullptr) *out_errno = 0;
  // A crash mid-write leaves a ".tmp" behind; clear that wreckage before
  // producing more so interrupted runs cannot accumulate temp files. Only
  // this program's temp names are swept (IsOwnTemp).
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  RemoveStaleCheckpointTemps(parent.empty() ? "." : parent);
  const std::string tmp = path + ".tmp";
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kCheckpointOpen)) {
      return FailIo(error, out_errno, inj,
                    "cannot open " + tmp + ": " + ErrnoString(inj) +
                        " (injected)");
    }
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return FailIo(error, out_errno, errno,
                  "cannot open " + tmp + ": " + ErrnoString());
  }
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kCheckpointWrite)) {
      std::fclose(f);
      return FailIo(error, out_errno, inj,
                    "cannot write " + tmp + ": " + ErrnoString(inj) +
                        " (injected)");
    }
  }
  auto fail_write = [&]() {
    const int err = errno != 0 ? errno : EIO;
    std::fclose(f);
    return FailIo(error, out_errno, err, "short write to " + tmp);
  };
  // Placeholder header: the payload CRC and size are only known once the
  // payload has streamed past the incremental checksum, so they are
  // back-patched before the fsync. The rename-into-place discipline means
  // no reader ever sees the placeholder.
  const std::string placeholder = EncodeHeader(0, 0);
  errno = 0;
  if (std::fwrite(placeholder.data(), 1, placeholder.size(), f) !=
      placeholder.size()) {
    return fail_write();
  }
  uint32_t crc = 0;
  uint64_t payload_size = 0;
  std::string chunk = EncodePayloadPrefix(state, window_count);
  auto flush_chunk = [&]() {
    crc = Crc32(chunk.data(), chunk.size(), crc);
    payload_size += chunk.size();
    errno = 0;
    const bool ok =
        std::fwrite(chunk.data(), 1, chunk.size(), f) == chunk.size();
    chunk.clear();
    return ok;
  };
  if (!flush_chunk()) return fail_write();
  if (!SurvivesCrashPoint(CheckpointCrashPoint::kMidPayload)) {
    std::fclose(f);
    return Fail(error, "simulated crash mid-checkpoint-write");
  }
  // One chunk of elements in memory at a time — never the window.
  constexpr size_t kChunkBytes = 1 << 18;
  UncertainElement e;
  for (uint64_t i = 0; i < window_count; ++i) {
    if (!source(&e)) {
      std::fclose(f);
      return Fail(error, "checkpoint element source ended early at " +
                             std::to_string(i) + " of " +
                             std::to_string(window_count));
    }
    AppendElement(&chunk, e, state.dims);
    if (chunk.size() >= kChunkBytes && !flush_chunk()) return fail_write();
  }
  if (!chunk.empty() && !flush_chunk()) return fail_write();
  const std::string patched = EncodeHeader(crc, payload_size);
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    const int err = errno;
    std::fclose(f);
    return FailIo(error, out_errno, err,
                  "cannot seek in " + tmp + ": " + ErrnoString(err));
  }
  errno = 0;
  if (std::fwrite(patched.data(), 1, patched.size(), f) != patched.size()) {
    return fail_write();
  }
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kCheckpointFsync)) {
      std::fclose(f);
      return FailIo(error, out_errno, inj,
                    "cannot flush " + tmp + ": " + ErrnoString(inj) +
                        " (injected)");
    }
  }
  if (std::fflush(f) != 0 || fsync(fileno(f)) != 0) {
    const int err = errno;
    std::fclose(f);
    return FailIo(error, out_errno, err,
                  "cannot flush " + tmp + ": " + ErrnoString(err));
  }
  std::fclose(f);
  if (!SurvivesCrashPoint(CheckpointCrashPoint::kBeforeRename)) {
    return Fail(error, "simulated crash before checkpoint rename");
  }
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kCheckpointRename)) {
      return FailIo(error, out_errno, inj,
                    "cannot rename " + tmp + " to " + path + ": " +
                        ErrnoString(inj) + " (injected)");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return FailIo(error, out_errno, errno,
                  "cannot rename " + tmp + " to " + path + ": " +
                      ErrnoString());
  }
  return true;
}

bool WriteCheckpointFileStreamedRetry(
    const std::string& path, const CheckpointState& state,
    uint64_t window_count,
    const std::function<CheckpointElementSource()>& source_factory,
    const RetryPolicy& policy, RetryStats* stats, std::string* error) {
  std::string last_error;
  const bool ok = RetryWithBackoff(
      policy,
      [&](int* err) {
        // A fresh source per attempt: a cursor consumed by a failed
        // attempt cannot be rewound.
        return WriteCheckpointFileStreamed(path, state, window_count,
                                           source_factory(), &last_error, err);
      },
      stats);
  if (!ok && error != nullptr) *error = last_error;
  return ok;
}

bool ReadCheckpointFileStreamed(const std::string& path, CheckpointState* out,
                                const CheckpointElementSink& sink,
                                std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Fail(error, "cannot open " + path + ": " + ErrnoString());
  }
  std::string decode_error;
  const bool ok = ReadOpenCheckpoint(f, out, sink, &decode_error);
  std::fclose(f);
  if (!ok) return Fail(error, path + ": " + decode_error);
  return true;
}

bool ReadCheckpointFile(const std::string& path, CheckpointState* out,
                        std::string* error) {
  std::vector<UncertainElement> window;
  if (!ReadCheckpointFileStreamed(
          path, out,
          [&window](const UncertainElement& e) { window.push_back(e); },
          error)) {
    return false;
  }
  out->window = std::move(window);
  return true;
}

std::string CheckpointFileName(uint64_t elements_consumed) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ckpt-%020llu.psky",
                static_cast<unsigned long long>(elements_consumed));
  return buf;
}

std::vector<std::string> ListCheckpointFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == CheckpointFileName(0).size() &&
        name.rfind("ckpt-", 0) == 0 &&
        name.compare(name.size() - 5, 5, ".psky") == 0) {
      files.push_back(entry.path().string());
    }
  }
  // Zero-padded counts make lexicographic order stream order.
  std::sort(files.begin(), files.end(), std::greater<>());
  return files;
}

void PruneCheckpoints(const std::string& dir, size_t keep) {
  const std::vector<std::string> files = ListCheckpointFiles(dir);
  std::error_code ec;
  for (size_t i = keep; i < files.size(); ++i) {
    std::filesystem::remove(files[i], ec);
  }
  RemoveStaleCheckpointTemps(dir);
}

size_t RemoveStaleCheckpointTemps(const std::string& dir) {
  size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (IsOwnTemp(entry.path().filename().string())) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

bool EnsureCheckpointDir(const std::string& dir, std::string* error) {
  std::error_code ec;
  if (std::filesystem::is_directory(dir, ec)) return true;
  if (std::filesystem::exists(dir, ec)) {
    *error = dir + " exists but is not a directory";
    return false;
  }
  if (!std::filesystem::create_directories(dir, ec)) {
    *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

void ReplayWindow(const CheckpointState& state, WindowSkylineOperator* op) {
  for (const UncertainElement& e : state.window) op->Insert(e);
}

}  // namespace psky
