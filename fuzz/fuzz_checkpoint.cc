// Fuzz target for the durable-state decoder: checkpoint files
// (core/checkpoint.h), which quarantine dumps are too.
//
// The first input byte selects a mode; the rest is the attacker-controlled
// byte stream. The raw mode hammers the header validation (magic, version,
// size, CRC). The fix-up mode treats the input as a *payload* and wraps it
// in a syntactically valid header with a matching CRC-32 — without this
// the fuzzer would essentially never get past the checksum, and the
// payload decoder (the interesting attack surface: length fields, element
// counts) would stay cold.
//
// Contract under test: decoders return false with a diagnostic on ANY
// input — never crash, never abort, never allocate absurd amounts. A
// successful decode must yield a state that re-encodes cleanly.
//
// Both modes are also differential: every resume reads files
// through ReadCheckpointFile (the streamed reader), so the same bytes go
// through a scratch file and that reader must accept exactly the inputs
// DecodeCheckpoint accepts and decode the same state, bit for bit.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "base/crc32.h"
#include "base/wire.h"
#include "core/checkpoint.h"

namespace {

void Require(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "fuzz_checkpoint invariant violated: %s\n", what);
    std::abort();
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameState(const psky::CheckpointState& a, const psky::CheckpointState& b) {
  if (a.producer != b.producer || a.dims != b.dims || !SameBits(a.q, b.q) ||
      a.window_kind != b.window_kind ||
      a.window_capacity != b.window_capacity ||
      !SameBits(a.time_span, b.time_span) ||
      a.elements_consumed != b.elements_consumed ||
      a.lines_consumed != b.lines_consumed || a.next_seq != b.next_seq ||
      a.bad_lines_skipped != b.bad_lines_skipped ||
      // A u64 counter, not a probability.
      a.probs_clamped != b.probs_clamped ||  // psky-lint: allow(float-eq)
      a.ooo_dropped != b.ooo_dropped || a.window.size() != b.window.size()) {
    return false;
  }
  for (size_t i = 0; i < a.window.size(); ++i) {
    const psky::UncertainElement& x = a.window[i];
    const psky::UncertainElement& y = b.window[i];
    if (x.seq != y.seq || !SameBits(x.prob, y.prob) ||
        !SameBits(x.time, y.time) || x.pos.dims() != y.pos.dims() ||
        std::memcmp(x.pos.data(), y.pos.data(),
                    sizeof(double) * static_cast<size_t>(x.pos.dims())) !=
            0) {
      return false;
    }
  }
  return true;
}

// The file readers' public entries take a path; inputs go through one
// reused scratch file. Fuzzing file-at-a-time is fine for the smoke
// budget this target runs under. Returns false when the file cannot be
// written (the file-side checks are then skipped).
const std::string& ScratchPath() {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    std::string p = (dir != nullptr && *dir != '\0') ? dir : "/tmp";
    p += "/fuzz_checkpoint_scratch_" + std::to_string(getpid());
    return p;
  }();
  return path;
}

bool WriteScratch(std::string_view bytes) {
  std::FILE* f = std::fopen(ScratchPath().c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

std::string WrapPayload(const char* magic, uint32_t version,
                        std::string_view payload) {
  std::string out;
  out.append(magic, 8);
  psky::wire::AppendU32(&out, version);
  psky::wire::AppendU32(&out, psky::Crc32(payload.data(), payload.size()));
  psky::wire::AppendU64(&out, payload.size());
  out.append(payload);
  return out;
}

void TryDecodeCheckpoint(std::string_view bytes) {
  psky::CheckpointState state;
  std::string error;
  const bool decoded = psky::DecodeCheckpoint(bytes, &state, &error);
  if (WriteScratch(bytes)) {
    psky::CheckpointState from_file;
    std::string file_error;
    const bool read =
        psky::ReadCheckpointFile(ScratchPath(), &from_file, &file_error);
    Require(read == decoded,
            "ReadCheckpointFile and DecodeCheckpoint disagree on acceptance");
    Require(read || !file_error.empty(), "read failed without diagnostic");
    Require(!read || SameState(state, from_file),
            "ReadCheckpointFile and DecodeCheckpoint decode different states");
  }
  if (!decoded) {
    Require(!error.empty(), "decode failed without diagnostic");
    return;
  }
  // Accepted states must satisfy the documented bounds and survive a
  // round-trip through the encoder.
  Require(state.dims >= 1 && state.dims <= psky::kMaxDims,
          "accepted dims out of range");
  Require(state.q > 0.0 && state.q <= 1.0, "accepted q out of range");
  psky::CheckpointState redecoded;
  Require(psky::DecodeCheckpoint(psky::EncodeCheckpoint(state), &redecoded,
                                 &error),
          "accepted state does not re-encode");
  Require(redecoded.window.size() == state.window.size(),
          "round-trip changed window size");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 1) return 0;
  const uint8_t mode = data[0];
  const std::string_view body(reinterpret_cast<const char*>(data + 1),
                              size - 1);
  if (mode % 2 == 0) {  // raw checkpoint bytes: header/CRC validation paths
    TryDecodeCheckpoint(body);
  } else {  // input as checkpoint payload behind a valid header
    TryDecodeCheckpoint(WrapPayload("PSKYCKPT", 2, body));
  }
  return 0;
}
