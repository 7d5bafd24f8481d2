// Checkpoint format: encode/decode round trips, corruption rejection,
// atomic file persistence, directory management, and the replay-restore
// property against both the definitional oracle and a continuously-run
// operator.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/build_info.h"
#include "base/random.h"
#include "core/checkpoint.h"
#include "core/snapshot.h"
#include "core/ssky_operator.h"
#include "store/recovery.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace psky {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* tag) {
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("psky_ckpt_") + tag + "_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

CheckpointState MakeState(int dims, size_t n, uint64_t seed) {
  StreamConfig cfg;
  cfg.dims = dims;
  cfg.seed = seed;
  StreamGenerator gen(cfg);
  CheckpointState state;
  state.dims = dims;
  state.q = 0.3;
  state.window_kind = WindowKind::kCount;
  state.window_capacity = n;
  state.elements_consumed = 12345;
  state.lines_consumed = 23456;
  state.next_seq = 34567;
  state.bad_lines_skipped = 7;
  state.probs_clamped = 3;
  state.ooo_dropped = 1;
  state.window = gen.Take(n);
  return state;
}

void ExpectStatesEqual(const CheckpointState& a, const CheckpointState& b) {
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.q, b.q);
  EXPECT_EQ(a.window_kind, b.window_kind);
  EXPECT_EQ(a.window_capacity, b.window_capacity);
  EXPECT_EQ(a.time_span, b.time_span);
  EXPECT_EQ(a.elements_consumed, b.elements_consumed);
  EXPECT_EQ(a.lines_consumed, b.lines_consumed);
  EXPECT_EQ(a.next_seq, b.next_seq);
  EXPECT_EQ(a.bad_lines_skipped, b.bad_lines_skipped);
  EXPECT_EQ(a.probs_clamped, b.probs_clamped);
  EXPECT_EQ(a.ooo_dropped, b.ooo_dropped);
  ASSERT_EQ(a.window.size(), b.window.size());
  for (size_t i = 0; i < a.window.size(); ++i) {
    EXPECT_EQ(a.window[i].seq, b.window[i].seq);
    // Bitwise double equality: the format stores raw IEEE-754 bits.
    EXPECT_EQ(a.window[i].prob, b.window[i].prob);
    EXPECT_EQ(a.window[i].time, b.window[i].time);
    EXPECT_EQ(a.window[i].pos, b.window[i].pos);
  }
}

TEST(CheckpointFormat, EncodeDecodeRoundTrip) {
  const CheckpointState state = MakeState(3, 200, 11);
  const std::string bytes = EncodeCheckpoint(state);
  CheckpointState decoded;
  std::string error;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &decoded, &error)) << error;
  ExpectStatesEqual(state, decoded);
}

TEST(CheckpointFormat, TimeWindowRoundTrip) {
  CheckpointState state = MakeState(2, 50, 13);
  state.window_kind = WindowKind::kTime;
  state.window_capacity = 0;
  state.time_span = 2.5;
  const std::string bytes = EncodeCheckpoint(state);
  CheckpointState decoded;
  std::string error;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &decoded, &error)) << error;
  ExpectStatesEqual(state, decoded);
}

TEST(CheckpointFormat, EmptyWindowRoundTrip) {
  CheckpointState state;
  state.dims = 5;
  state.q = 1.0;
  const std::string bytes = EncodeCheckpoint(state);
  CheckpointState decoded;
  std::string error;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &decoded, &error)) << error;
  ExpectStatesEqual(state, decoded);
}

TEST(CheckpointFormat, RejectsTruncationAtEveryBoundary) {
  const std::string bytes = EncodeCheckpoint(MakeState(3, 20, 17));
  CheckpointState decoded;
  // Chop at a spread of prefix lengths, including inside the header and
  // inside the element section: every prefix must fail cleanly.
  for (size_t len : {size_t{0}, size_t{7}, size_t{12}, size_t{23}, size_t{24},
                     size_t{40}, bytes.size() / 2, bytes.size() - 1}) {
    std::string error;
    EXPECT_FALSE(
        DecodeCheckpoint(std::string_view(bytes).substr(0, len), &decoded,
                         &error))
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CheckpointFormat, RejectsBitFlipsInHeaderAndBody) {
  const std::string bytes = EncodeCheckpoint(MakeState(2, 30, 19));
  CheckpointState decoded;
  // One flipped bit in: magic, version, CRC field, payload size, the fixed
  // payload fields, and deep in the element section.
  for (size_t pos : {size_t{0}, size_t{9}, size_t{13}, size_t{17}, size_t{30},
                     bytes.size() - 3}) {
    std::string corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x10);
    std::string error;
    EXPECT_FALSE(DecodeCheckpoint(corrupted, &decoded, &error))
        << "bit flip at " << pos << " decoded";
    EXPECT_FALSE(error.empty());
  }
}

TEST(CheckpointFormat, RejectsTrailingGarbage) {
  std::string bytes = EncodeCheckpoint(MakeState(2, 5, 23));
  bytes += "extra";
  CheckpointState decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpoint(bytes, &decoded, &error));
}

TEST(CheckpointFile, WriteReadRoundTripIsAtomic) {
  const std::string dir = TempDir("atomic");
  const std::string path = dir + "/" + CheckpointFileName(42);
  const CheckpointState state = MakeState(3, 100, 29);
  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(path, state, &error)) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "temp file must be renamed away";
  CheckpointState loaded;
  ASSERT_TRUE(ReadCheckpointFile(path, &loaded, &error)) << error;
  ExpectStatesEqual(state, loaded);
}

TEST(CheckpointFile, MissingFileIsAnErrorNotACrash) {
  CheckpointState loaded;
  std::string error;
  EXPECT_FALSE(ReadCheckpointFile("/nonexistent/dir/x.psky", &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointDir, LatestWinsAndCorruptFilesAreSkipped) {
  const std::string dir = TempDir("latest");
  std::string error;
  CheckpointState s100 = MakeState(2, 10, 31);
  s100.elements_consumed = 100;
  CheckpointState s200 = MakeState(2, 10, 37);
  s200.elements_consumed = 200;
  ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(100), s100,
                                  &error));
  ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(200), s200,
                                  &error));

  RecoveredState loaded;
  ASSERT_TRUE(RecoverState(dir, &loaded, &error)) << error;
  EXPECT_EQ(loaded.checkpoint.elements_consumed, 200u);

  // Corrupt the newest: the loader must fall back to the older one and
  // surface a diagnostic for the skipped file.
  {
    std::ofstream f(dir + "/" + CheckpointFileName(200),
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  ASSERT_TRUE(RecoverState(dir, &loaded, &error));
  EXPECT_EQ(loaded.checkpoint.elements_consumed, 100u);
  EXPECT_FALSE(loaded.notes.empty()) << "skipped-corrupt warning expected";
}

TEST(CheckpointDir, EmptyDirFailsCleanly) {
  const std::string dir = TempDir("empty");
  RecoveredState loaded;
  std::string error;
  EXPECT_FALSE(RecoverState(dir, &loaded, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(RecoverState("/nonexistent/dir", &loaded, &error));
}

TEST(CheckpointDir, PruneKeepsNewestAndClearsTemps) {
  const std::string dir = TempDir("prune");
  std::string error;
  for (uint64_t n : {100u, 200u, 300u, 400u}) {
    CheckpointState s = MakeState(2, 5, n);
    s.elements_consumed = n;
    ASSERT_TRUE(
        WriteCheckpointFile(dir + "/" + CheckpointFileName(n), s, &error));
  }
  {
    std::ofstream f(dir + "/" + CheckpointFileName(50) + ".tmp");
    f << "interrupted";
  }
  PruneCheckpoints(dir, 2);
  const auto files = ListCheckpointFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  RecoveredState loaded;
  ASSERT_TRUE(RecoverState(dir, &loaded, &error));
  EXPECT_EQ(loaded.checkpoint.elements_consumed, 400u);
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 2u) << "temp leftovers must be pruned";
}

// --- replay-restore property --------------------------------------------

std::set<uint64_t> SeqSet(const std::vector<SkylineMember>& ms) {
  std::set<uint64_t> out;
  for (const auto& m : ms) out.insert(m.element.seq);
  return out;
}

TEST(CheckpointReplay, RandomStreamsMatchOracleAndContinuousOperator) {
  // Property test: at random cut points of random streams, a snapshot of
  // the window replayed into a fresh operator must agree with (a) the
  // definitional oracle on the window contents and (b) the continuously
  // maintained operator — same seqs, same P_sky values.
  Rng rng(20260806);
  const SpatialDistribution kDists[] = {SpatialDistribution::kAntiCorrelated,
                                        SpatialDistribution::kIndependent,
                                        SpatialDistribution::kCorrelated};
  for (int round = 0; round < 12; ++round) {
    StreamConfig cfg;
    cfg.dims = 2 + static_cast<int>(rng.NextBounded(3));
    cfg.spatial = kDists[rng.NextBounded(3)];
    cfg.seed = rng.Next();
    const size_t window_size = 50 + rng.NextBounded(150);
    const size_t cut = 1 + rng.NextBounded(4 * window_size);
    const double q = 0.1 + 0.2 * static_cast<double>(rng.NextBounded(4));

    StreamGenerator gen(cfg);
    SskyOperator continuous(cfg.dims, q);
    CountWindow window(window_size);
    for (size_t i = 0; i < cut; ++i) {
      const UncertainElement e = gen.Next();
      if (auto expired = window.Push(e)) continuous.Expire(*expired);
      continuous.Insert(e);
    }

    CheckpointState state;
    state.dims = cfg.dims;
    state.q = q;
    state.window_capacity = window_size;
    state.elements_consumed = cut;
    state.window = window.Snapshot();

    // Round-trip through the wire format before replaying, so the test
    // also proves serialization loses nothing that matters.
    CheckpointState restored;
    std::string error;
    ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(state), &restored, &error))
        << error;

    SskyOperator replayed(cfg.dims, q);
    ReplayWindow(restored, &replayed);

    const auto snap = window.Snapshot();
    std::set<uint64_t> oracle_sky;
    for (size_t idx : QSkylineIndices(snap, q)) oracle_sky.insert(snap[idx].seq);
    std::set<uint64_t> oracle_cand;
    for (size_t idx : CandidateSetIndices(snap, q)) {
      oracle_cand.insert(snap[idx].seq);
    }

    const auto cont_sky = continuous.Skyline();
    const auto repl_sky = replayed.Skyline();
    ASSERT_EQ(SeqSet(repl_sky), oracle_sky)
        << "round " << round << ": replayed skyline diverges from oracle";
    ASSERT_EQ(SeqSet(repl_sky), SeqSet(cont_sky))
        << "round " << round
        << ": replayed skyline diverges from continuous operator";

    const auto cont_cand = continuous.Candidates();
    const auto repl_cand = replayed.Candidates();
    ASSERT_EQ(SeqSet(repl_cand), oracle_cand) << "round " << round;
    ASSERT_EQ(repl_cand.size(), cont_cand.size());
    for (size_t i = 0; i < repl_cand.size(); ++i) {
      ASSERT_EQ(repl_cand[i].element.seq, cont_cand[i].element.seq);
      ASSERT_NEAR(repl_cand[i].psky, cont_cand[i].psky, 1e-12)
          << "round " << round << " seq " << repl_cand[i].element.seq;
    }
    replayed.tree().CheckInvariants(true);
  }
}

TEST(CheckpointFormat, ProducerStampIsEmbeddedAndRecovered) {
  const CheckpointState state = MakeState(2, 5, 21);
  CheckpointState got;
  std::string error;
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(state), &got, &error))
      << error;
  // An empty producer is stamped with this binary's build info on encode.
  EXPECT_EQ(got.producer, BuildInfoString());
  EXPECT_NE(got.producer.find("psky "), std::string::npos);

  // A pre-set producer (a re-encoded foreign snapshot) is preserved.
  CheckpointState foreign = MakeState(2, 5, 21);
  foreign.producer = "psky deadbeef0123 (Release)";
  ASSERT_TRUE(DecodeCheckpoint(EncodeCheckpoint(foreign), &got, &error))
      << error;
  EXPECT_EQ(got.producer, foreign.producer);
}

TEST(CheckpointDir, StaleTempsAreSweptOnWriteAndOnDemand) {
  const std::string dir = TempDir("stale_tmp");
  // Wreckage from two hypothetical earlier crashes, plus one unrelated
  // file that must survive the sweep.
  { std::ofstream f(dir + "/" + CheckpointFileName(10) + ".tmp"); f << "x"; }
  { std::ofstream f(dir + "/" + CheckpointFileName(20) + ".tmp"); f << "y"; }
  { std::ofstream f(dir + "/README.txt"); f << "keep me"; }

  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(dir + "/" + CheckpointFileName(30),
                                  MakeState(2, 5, 22), &error))
      << error;

  size_t temps = 0, others = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++temps;
    if (entry.path().filename() == "README.txt") ++others;
  }
  EXPECT_EQ(temps, 0u) << "pre-seeded stale temps must be removed";
  EXPECT_EQ(others, 1u);
  EXPECT_TRUE(fs::exists(dir + "/" + CheckpointFileName(30)));

  // Direct sweep: counts what it removes, leaves everything else alone.
  { std::ofstream f(dir + "/orphan.tmp"); f << "z"; }
  EXPECT_EQ(RemoveStaleCheckpointTemps(dir), 1u);
  EXPECT_EQ(RemoveStaleCheckpointTemps(dir), 0u);
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));

  // A directory that does not exist is a no-op, not an error.
  EXPECT_EQ(RemoveStaleCheckpointTemps(dir + "/nope"), 0u);
  fs::remove_all(dir);
}

// A checkpoint file must hold exactly EncodeCheckpoint's bytes for its
// state — the bytes a quarantine dump embeds — whichever entry point
// wrote it: resumability cannot depend on the code path or window kind.
TEST(CheckpointStreamed, WriteIsByteIdenticalToMaterializedWrite) {
  const std::string dir = TempDir("stream_ident");
  CheckpointState time_state = MakeState(2, 120, 63);
  time_state.window_kind = WindowKind::kTime;
  time_state.window_capacity = 0;
  time_state.time_span = 2.5;
  CheckpointState empty_state;
  empty_state.dims = 5;
  empty_state.q = 1.0;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  for (const CheckpointState& state :
       {MakeState(3, 200, 61), time_state, empty_state}) {
    SCOPED_TRACE("window of " + std::to_string(state.window.size()));
    const std::string want = EncodeCheckpoint(state);
    std::string error;
    const std::string mat_path = dir + "/mat.psky";
    ASSERT_TRUE(WriteCheckpointFile(mat_path, state, &error)) << error;
    EXPECT_EQ(slurp(mat_path), want);

    CheckpointState header = state;
    header.window.clear();  // the streamed writer must ignore this field
    size_t cursor = 0;
    const auto source = [&](UncertainElement* e) {
      if (cursor >= state.window.size()) return false;
      *e = state.window[cursor++];
      return true;
    };
    const std::string str_path = dir + "/streamed.psky";
    int saved_errno = 0;
    ASSERT_TRUE(WriteCheckpointFileStreamed(str_path, header,
                                            state.window.size(), source,
                                            &error, &saved_errno))
        << error;
    EXPECT_EQ(slurp(str_path), want);
  }
  fs::remove_all(dir);
}

TEST(CheckpointStreamed, ReadRoundTripsWithoutMaterializing) {
  const std::string dir = TempDir("stream_read");
  const CheckpointState state = MakeState(2, 150, 67);
  std::string error;
  const std::string path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(WriteCheckpointFile(path, state, &error)) << error;

  CheckpointState header;
  std::vector<UncertainElement> collected;
  ASSERT_TRUE(ReadCheckpointFileStreamed(
      path, &header,
      [&](const UncertainElement& e) { collected.push_back(e); }, &error))
      << error;
  EXPECT_TRUE(header.window.empty());
  CheckpointState got = header;
  got.window = std::move(collected);
  ExpectStatesEqual(state, got);
  fs::remove_all(dir);
}

// Corruption anywhere in the file must be detected before any element
// reaches the sink: a half-delivered window would rebuild wrong operator
// state on resume.
TEST(CheckpointStreamed, CorruptionDeliversNothingToTheSink) {
  const std::string dir = TempDir("stream_corrupt");
  const CheckpointState state = MakeState(2, 80, 71);
  std::string error;
  const std::string path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(WriteCheckpointFile(path, state, &error)) << error;

  // Flip one bit near the end of the payload — past where a single-pass
  // reader would already have delivered most elements.
  const auto size = fs::file_size(path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 9));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(static_cast<std::streamoff>(size - 9));
    f.write(&byte, 1);
  }
  CheckpointState header;
  size_t delivered = 0;
  EXPECT_FALSE(ReadCheckpointFileStreamed(
      path, &header, [&](const UncertainElement&) { ++delivered; }, &error));
  EXPECT_EQ(delivered, 0u) << "sink ran before CRC validation";
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  fs::remove_all(dir);
}

// A source that ends before yielding the promised element count is an
// error, and the target file must not appear (temp-and-rename).
TEST(CheckpointStreamed, SourceEndingEarlyFailsWithoutATarget) {
  const std::string dir = TempDir("stream_short");
  const CheckpointState state = MakeState(2, 20, 73);
  CheckpointState header = state;
  header.window.clear();
  size_t cursor = 0;
  const auto source = [&](UncertainElement* e) {
    if (cursor >= 10) return false;  // promised 20, deliver 10
    *e = state.window[cursor++];
    return true;
  };
  const std::string path = dir + "/" + CheckpointFileName(1);
  std::string error;
  int saved_errno = 0;
  EXPECT_FALSE(WriteCheckpointFileStreamed(path, header, 20, source, &error,
                                           &saved_errno));
  EXPECT_NE(error.find("ended early"), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(path));
  fs::remove_all(dir);
}

TEST(CheckpointDir, EnsureCreatesMissingDirsAndRejectsFiles) {
  const std::string base = TempDir("ensure_dir");
  std::string error;

  // Nested path created in one call; idempotent on the second.
  const std::string nested = base + "/a/b";
  EXPECT_TRUE(EnsureCheckpointDir(nested, &error)) << error;
  EXPECT_TRUE(fs::is_directory(nested));
  EXPECT_TRUE(EnsureCheckpointDir(nested, &error)) << error;

  // A plain file under the requested name is refused, not clobbered.
  const std::string file_path = base + "/not_a_dir";
  { std::ofstream f(file_path); f << "x"; }
  EXPECT_FALSE(EnsureCheckpointDir(file_path, &error));
  EXPECT_NE(error.find("not a directory"), std::string::npos) << error;
  EXPECT_TRUE(fs::is_regular_file(file_path));
  fs::remove_all(base);
}

}  // namespace
}  // namespace psky
