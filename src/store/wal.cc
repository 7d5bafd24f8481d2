#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "base/crc32.h"
#include "base/fault_injection.h"
#include "base/wire.h"
#include "geom/point.h"

namespace psky {

namespace {

using wire::AppendF64;
using wire::AppendU32;
using wire::AppendU64;
using wire::Cursor;

constexpr char kMagic[8] = {'P', 'S', 'K', 'Y', 'W', 'A', 'L', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 24;
constexpr uint8_t kRecordElement = 1;
// type u8 + dims u8 + 7 LEB128 position/counter stamps (10 bytes worst
// case each) + prob/time f64 + kMaxDims coordinates. Any frame length
// above this is corruption. The stamps are varint-coded because their
// values are small (step counts, near-zero counters): fixed u64s would
// more than double the record, and sync cost scales with bytes flushed.
constexpr uint64_t kMaxBodyBytes = 2 + 7 * 10 + 16 + 8 * kMaxDims;
// Flush (without fsync) whenever the user-space buffer grows past this,
// so a stretched group-commit window cannot hoard memory.
constexpr size_t kFlushThreshold = 1 << 16;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// See checkpoint.cc: strerror is fine on the single pipeline thread.
std::string ErrnoString(int err) {
  return std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
}

bool FailIo(std::string* error, int* out_errno, int err,
            const std::string& msg) {
  if (out_errno != nullptr) *out_errno = err;
  return Fail(error, msg);
}

std::string EncodeWalHeader(uint32_t dims, uint64_t start_step) {
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kMagic, sizeof kMagic);
  AppendU32(&out, kVersion);
  AppendU32(&out, dims);
  AppendU64(&out, start_step);
  return out;
}

// Writes all of `bytes` to `fd`, resuming short writes.
bool WriteAll(int fd, const char* bytes, size_t len, int* out_err) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, bytes + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      *out_err = errno != 0 ? errno : EIO;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

namespace {

constexpr size_t kMaxRecordBody = kMaxBodyBytes;

// Unsigned LEB128: 7 value bits per byte, high bit = continuation.
inline char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<char>(v | 0x80u);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

inline char* PutF64(char* p, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) *p++ = static_cast<char>(bits >> (8 * i));
  return p;
}

bool ReadVarint(Cursor* c, uint64_t* out) {
  uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    uint8_t b = 0;
    if (!c->ReadU8(&b)) return false;
    if (shift == 63 && (b & ~uint8_t{1}) != 0) return false;  // overflow
    v |= static_cast<uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

// Encodes the record body into `scratch` (>= kMaxRecordBody bytes) and
// returns its length. Pointer-bumping into a stack buffer: the append
// hot path runs this once per admitted element, and byte-wise
// std::string::push_back was the dominant cost there.
size_t EncodeWalRecordTo(const WalRecord& r, char* scratch) {
  const int dims = r.element.pos.dims();
  char* p = scratch;
  *p++ = static_cast<char>(kRecordElement);
  *p++ = static_cast<char>(dims);
  p = PutVarint(p, r.step_after);
  p = PutVarint(p, r.next_seq_after);
  p = PutVarint(p, r.lines_after);
  p = PutVarint(p, r.skipped_total);
  p = PutVarint(p, r.clamped_total);
  p = PutVarint(p, r.ooo_total);
  p = PutVarint(p, r.element.seq);
  p = PutF64(p, r.element.prob);
  p = PutF64(p, r.element.time);
  for (int i = 0; i < dims; ++i) p = PutF64(p, r.element.pos[i]);
  return static_cast<size_t>(p - scratch);
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& r) {
  char scratch[kMaxRecordBody];
  return std::string(scratch, EncodeWalRecordTo(r, scratch));
}

bool DecodeWalRecordBody(std::string_view body, WalRecord* out,
                         std::string* error) {
  Cursor c(body);
  uint8_t type = 0;
  uint8_t dims = 0;
  if (!c.ReadU8(&type) || !c.ReadU8(&dims)) {
    return Fail(error, "record body truncated before type/dims");
  }
  if (type != kRecordElement) {
    return Fail(error, "unknown record type " + std::to_string(type));
  }
  if (dims < 1 || dims > kMaxDims) {
    return Fail(error, "record dims " + std::to_string(dims) +
                           " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  WalRecord r;
  if (!ReadVarint(&c, &r.step_after) || !ReadVarint(&c, &r.next_seq_after) ||
      !ReadVarint(&c, &r.lines_after) || !ReadVarint(&c, &r.skipped_total) ||
      !ReadVarint(&c, &r.clamped_total) || !ReadVarint(&c, &r.ooo_total) ||
      !ReadVarint(&c, &r.element.seq) || !c.ReadF64(&r.element.prob) ||
      !c.ReadF64(&r.element.time)) {
    return Fail(error, "record body truncated or malformed in stamps");
  }
  r.element.pos = Point(dims);
  for (int i = 0; i < dims; ++i) {
    if (!c.ReadF64(&r.element.pos[i])) {
      return Fail(error, "record body truncated in coordinates");
    }
  }
  if (c.remaining() != 0) {
    return Fail(error, "record body has trailing bytes");
  }
  *out = r;
  return true;
}

bool DecodeWalBytes(std::string_view bytes, WalContents* out,
                    std::string* error) {
  if (bytes.size() < kHeaderSize) {
    return Fail(error, "file shorter than a WAL header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Fail(error, "bad magic (not a WAL file)");
  }
  Cursor header(bytes.substr(sizeof kMagic));
  uint32_t version = 0;
  WalContents contents;
  if (!header.ReadU32(&version) || !header.ReadU32(&contents.dims) ||
      !header.ReadU64(&contents.start_step)) {
    return Fail(error, "truncated WAL header");
  }
  if (version != kVersion) {
    return Fail(error, "unsupported WAL version " + std::to_string(version));
  }
  if (contents.dims < 1 || contents.dims > static_cast<uint32_t>(kMaxDims)) {
    return Fail(error,
                "WAL header dims " + std::to_string(contents.dims) +
                    " outside [1, " + std::to_string(kMaxDims) + "]");
  }

  contents.valid_bytes = kHeaderSize;
  size_t pos = kHeaderSize;
  auto cut_tail = [&](const std::string& why) {
    contents.tail_truncated = true;
    contents.tail_diagnostic =
        why + " at offset " + std::to_string(contents.valid_bytes);
  };
  while (pos < bytes.size()) {
    Cursor frame(bytes.substr(pos));
    uint32_t body_len = 0;
    uint32_t crc = 0;
    if (!frame.ReadU32(&body_len) || !frame.ReadU32(&crc)) {
      cut_tail("torn frame header");
      break;
    }
    if (body_len > kMaxBodyBytes) {
      cut_tail("frame length " + std::to_string(body_len) +
               " exceeds record maximum");
      break;
    }
    if (frame.remaining() < body_len) {
      cut_tail("torn record body");
      break;
    }
    const std::string_view body = bytes.substr(pos + 8, body_len);
    if (Crc32(body.data(), body.size()) != crc) {
      cut_tail("record CRC mismatch");
      break;
    }
    WalRecord r;
    std::string body_error;
    if (!DecodeWalRecordBody(body, &r, &body_error)) {
      cut_tail(body_error);
      break;
    }
    if (r.element.pos.dims() != static_cast<int>(contents.dims)) {
      cut_tail("record dims disagree with WAL header");
      break;
    }
    contents.records.push_back(r);
    pos += 8 + body_len;
    contents.valid_bytes = pos;
  }
  *out = std::move(contents);
  return true;
}

bool ReadWalFile(const std::string& path, WalContents* out,
                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Fail(error, "cannot open " + path + ": " + ErrnoString(errno));
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Fail(error, "cannot read " + path);
  std::string decode_error;
  if (!DecodeWalBytes(bytes, out, &decode_error)) {
    return Fail(error, path + ": " + decode_error);
  }
  return true;
}

namespace {

// Cuts a torn tail that ReadWalFile reported in `contents` off `path`.
bool TruncateToValidPrefix(const std::string& path,
                           const WalContents& contents, std::string* error) {
  if (!contents.tail_truncated) return true;
  if (::truncate(path.c_str(), static_cast<off_t>(contents.valid_bytes)) !=
      0) {
    return Fail(error, "cannot truncate " + path + " to " +
                           std::to_string(contents.valid_bytes) + ": " +
                           ErrnoString(errno));
  }
  return true;
}

}  // namespace

bool RepairWalFile(const std::string& path, std::string* error) {
  WalContents contents;
  return ReadWalFile(path, &contents, error) &&
         TruncateToValidPrefix(path, contents, error);
}

std::string WalFileName(uint64_t start_step) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "wal-%020llu.pskywal",
                static_cast<unsigned long long>(start_step));
  return buf;
}

bool ParseWalStartStep(const std::string& path, uint64_t* start_step) {
  const std::string name = std::filesystem::path(path).filename().string();
  if (name.size() != WalFileName(0).size() || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 8, 8, ".pskywal") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *start_step = v;
  return true;
}

std::vector<std::string> ListWalFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t step = 0;
    if (ParseWalStartStep(entry.path().filename().string(), &step)) {
      files.push_back(entry.path().string());
    }
  }
  // Zero-padded start steps make lexicographic order stream order.
  std::sort(files.begin(), files.end());
  return files;
}

size_t PruneWalFiles(const std::string& dir, uint64_t keep_from_step) {
  const std::vector<std::string> files = ListWalFiles(dir);
  size_t removed = 0;
  for (size_t i = 0; i + 1 < files.size(); ++i) {
    uint64_t next_start = 0;
    if (!ParseWalStartStep(files[i + 1], &next_start)) continue;
    // Records in files[i] all have step_after <= next_start; once the
    // oldest retained checkpoint is at or past that, no resume reads it.
    if (next_start <= keep_from_step) {
      std::error_code ec;
      if (std::filesystem::remove(files[i], ec)) ++removed;
    }
  }
  return removed;
}

WalWriter::~WalWriter() {
  Close();
  SetAsyncSync(false);  // joins the overlapped-sync worker, if any
}

bool WalWriter::Create(const std::string& path, uint32_t dims,
                       uint64_t start_step, std::string* error,
                       int* out_errno) {
  Close();
  if (dims < 1 || dims > static_cast<uint32_t>(kMaxDims)) {
    return FailIo(error, out_errno, 0,
                  "WAL dims " + std::to_string(dims) + " outside [1, " +
                      std::to_string(kMaxDims) + "]");
  }
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    return FailIo(error, out_errno, EEXIST, path + " already exists");
  }
  // Header goes through tmp+rename so a crash mid-create never leaves a
  // torn header behind (the startup sweep reaps the ".tmp").
  const std::string tmp = path + ".tmp";
  const std::string header = EncodeWalHeader(dims, start_step);
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return FailIo(error, out_errno, errno,
                  "cannot open " + tmp + ": " + ErrnoString(errno));
  }
  int err = 0;
  if (!WriteAll(fd, header.data(), header.size(), &err)) {
    ::close(fd);
    return FailIo(error, out_errno, err,
                  "cannot write " + tmp + ": " + ErrnoString(err));
  }
  if (::fsync(fd) != 0) {
    err = errno;
    ::close(fd);
    return FailIo(error, out_errno, err,
                  "cannot flush " + tmp + ": " + ErrnoString(err));
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return FailIo(error, out_errno, errno,
                  "cannot rename " + tmp + " to " + path + ": " +
                      ErrnoString(errno));
  }
  // Persist the directory entry too, so a crash right after a rotation
  // cannot lose the new log file; Sync() then only needs fdatasync.
  {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    const int dfd =
        ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);  // best effort: some filesystems reject dir fsync
      ::close(dfd);
    }
  }
  fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return FailIo(error, out_errno, errno,
                  "cannot reopen " + path + ": " + ErrnoString(errno));
  }
  fd_ = fd;
  UpdateAsyncTarget(fd_);
  path_ = path;
  dims_ = dims;
  buffer_.clear();
  pending_ = 0;
  return true;
}

bool WalWriter::OpenForAppend(const std::string& path, std::string* error,
                              int* out_errno, uint64_t* out_next_step) {
  Close();
  // One decode repairs the tail and yields the next step.
  WalContents contents;
  if (!ReadWalFile(path, &contents, error) ||
      !TruncateToValidPrefix(path, contents, error)) {
    if (out_errno != nullptr) *out_errno = 0;
    return false;
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return FailIo(error, out_errno, errno,
                  "cannot open " + path + ": " + ErrnoString(errno));
  }
  fd_ = fd;
  UpdateAsyncTarget(fd_);
  path_ = path;
  dims_ = contents.dims;
  buffer_.clear();
  pending_ = 0;
  if (out_next_step != nullptr) {
    *out_next_step = contents.records.empty()
                         ? contents.start_step + 1
                         : contents.records.back().step_after + 1;
  }
  return true;
}

bool WalWriter::FlushBuffer(std::string* error, int* out_errno) {
  if (buffer_.empty()) return true;
  int err = 0;
  if (!WriteAll(fd_, buffer_.data(), buffer_.size(), &err)) {
    return FailIo(error, out_errno, err,
                  "cannot write " + path_ + ": " + ErrnoString(err));
  }
  buffer_.clear();
  return true;
}

bool WalWriter::Append(const WalRecord& r, std::string* error,
                       int* out_errno) {
  if (fd_ < 0) return FailIo(error, out_errno, 0, "WAL is not open");
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kWalAppend)) {
      return FailIo(error, out_errno, inj,
                    "cannot append to " + path_ + ": " + ErrnoString(inj) +
                        " (injected)");
    }
  }
  if (r.element.pos.dims() != static_cast<int>(dims_)) {
    return FailIo(error, out_errno, 0,
                  "record dims disagree with WAL header");
  }
  // Frame and body are laid out in one stack scratch buffer and land in
  // the group-commit buffer with a single append — no per-record heap
  // allocation and no byte-wise string growth on the hot path.
  char scratch[8 + kMaxRecordBody];
  const size_t body_len = EncodeWalRecordTo(r, scratch + 8);
  const uint32_t crc = Crc32(scratch + 8, body_len);
  char* p = scratch;
  for (int i = 0; i < 4; ++i) {
    *p++ = static_cast<char>(static_cast<uint32_t>(body_len) >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) *p++ = static_cast<char>(crc >> (8 * i));
  buffer_.append(scratch, 8 + body_len);
  ++pending_;
  ++stats_.records_appended;
  if (buffer_.size() >= kFlushThreshold) {
    return FlushBuffer(error, out_errno);
  }
  return true;
}

bool WalWriter::DataSyncNow(std::string* error, int* out_errno) {
  // fdatasync is enough for crash safety here: record data and the file
  // size reach the journal, and the directory entry was already fsynced
  // by Create/RotateTo. Skipping the timestamp flush shaves a solid
  // fraction off every group commit.
  if (::fdatasync(fd_) != 0) {
    return FailIo(error, out_errno, errno,
                  "cannot sync " + path_ + ": " + ErrnoString(errno));
  }
  // The log is write-only until recovery: drop the flushed pages so an
  // hours-long stream doesn't evict the operator's working set from the
  // page cache. Advisory only — failure is not an error.
  (void)::posix_fadvise(fd_, 0, 0, POSIX_FADV_DONTNEED);
  return true;
}

bool WalWriter::ConsumeStickyError(std::string* error, int* out_errno) {
  {
    MutexLock lock(async_.mu);
    if (async_.sticky_errno == 0 && async_.sticky_error.empty()) return true;
    if (error != nullptr) *error = async_.sticky_error;
    if (out_errno != nullptr) *out_errno = async_.sticky_errno;
    async_.sticky_errno = 0;
    async_.sticky_error.clear();
    // The failed fdatasync left appended bytes unsynced. Queue another
    // attempt so a retrying caller's next Sync()/SyncBarrier() waits on
    // a fresh fdatasync instead of vacuously succeeding.
    ++async_.requested;
  }
  async_.cv.NotifyAll();
  return false;
}

bool WalWriter::Sync(std::string* error, int* out_errno) {
  if (fd_ < 0) return FailIo(error, out_errno, 0, "WAL is not open");
  // Surface a background-sync failure before anything else, so the
  // caller's retry path sees overlapped failures exactly where it would
  // see synchronous ones.
  if (async_.enabled && !ConsumeStickyError(error, out_errno)) return false;
  if (pending_ == 0 && buffer_.empty()) return true;
  if (fault::Enabled()) {
    if (const int inj = fault::FailErrno(fault::Site::kWalFsync)) {
      return FailIo(error, out_errno, inj,
                    "cannot sync " + path_ + ": " + ErrnoString(inj) +
                        " (injected)");
    }
  }
  if (!FlushBuffer(error, out_errno)) return false;
  if (async_.enabled) {
    {
      MutexLock lock(async_.mu);
      ++async_.requested;
    }
    async_.cv.NotifyAll();
    pending_ = 0;
    ++stats_.syncs;
    ++stats_.async_syncs;
    return true;
  }
  if (!DataSyncNow(error, out_errno)) return false;
  pending_ = 0;
  ++stats_.syncs;
  return true;
}

void WalWriter::AsyncSyncLoop() {
  while (true) {
    uint64_t target = 0;
    int fd = -1;
    std::string path;
    {
      MutexLock lock(async_.mu);
      async_.cv.Wait(async_.mu, [this] {
        async_.mu.AssertHeld();
        return async_.stop || async_.requested > async_.completed;
      });
      if (async_.stop && async_.requested == async_.completed) return;
      target = async_.requested;
      fd = async_.fd;
      path = async_.path;
    }
    const auto started = std::chrono::steady_clock::now();
    int err = 0;
    if (fd < 0) {
      err = EBADF;
    } else if (::fdatasync(fd) != 0) {
      err = errno;
    } else {
      (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    }
    const uint64_t latency_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count());
    {
      MutexLock lock(async_.mu);
      // One fdatasync covers every request issued before it started.
      if (target > async_.completed) async_.completed = target;
      async_.last_latency_ms = latency_ms;
      if (err != 0) {
        async_.sticky_errno = err;
        // Name the snapshot path published with the fd, not the live
        // path_: the appender thread mutates path_ during Create/Rotate/
        // Close with no lock held (pre-fix this was a data race, and the
        // message could name the *next* log for a failure in the old one).
        async_.sticky_error = "cannot sync " + (path.empty() ? "WAL" : path) +
                              ": " + ErrnoString(err) + " (overlapped)";
      }
    }
    async_.cv.NotifyAll();
  }
}

void WalWriter::SetAsyncSync(bool enabled) {
  if (enabled == async_.enabled) return;
  if (enabled) {
    {
      MutexLock lock(async_.mu);
      async_.stop = false;
      async_.fd = fd_;
      async_.path = path_;
    }
    async_.thread = std::thread([this] { AsyncSyncLoop(); });
    async_.enabled = true;
    return;
  }
  SyncBarrier(nullptr, nullptr);  // best effort; sticky error survives
  {
    MutexLock lock(async_.mu);
    async_.stop = true;
  }
  async_.cv.NotifyAll();
  if (async_.thread.joinable()) async_.thread.join();
  async_.enabled = false;
}

bool WalWriter::SyncBarrier(std::string* error, int* out_errno) {
  if (!async_.enabled) return true;
  {
    MutexLock lock(async_.mu);
    async_.cv.Wait(async_.mu, [this] {
      async_.mu.AssertHeld();
      return async_.completed >= async_.requested;
    });
  }
  return ConsumeStickyError(error, out_errno);
}

uint64_t WalWriter::TakeAsyncSyncLatencyMs() {
  MutexLock lock(async_.mu);
  const uint64_t latency = async_.last_latency_ms;
  async_.last_latency_ms = 0;
  return latency;
}

void WalWriter::UpdateAsyncTarget(int fd) {
  MutexLock lock(async_.mu);
  async_.fd = fd;
  if (fd >= 0) {
    async_.path = path_;
  } else {
    async_.path.clear();
  }
}

bool WalWriter::RotateTo(const std::string& dir, uint64_t start_step,
                         std::string* error, int* out_errno) {
  if (fd_ >= 0) {
    if (!Sync(error, out_errno)) return false;
    // Overlapped mode: wait out any in-flight fdatasync before the fd
    // closes — SyncBarrier returning means the worker is idle.
    if (!SyncBarrier(error, out_errno)) return false;
    UpdateAsyncTarget(-1);
    ::close(fd_);
    fd_ = -1;
  }
  const uint32_t dims = dims_;
  const std::string path =
      (std::filesystem::path(dir) / WalFileName(start_step)).string();
  if (!Create(path, dims, start_step, error, out_errno)) return false;
  ++stats_.rotations;
  return true;
}

void WalWriter::Close() {
  if (fd_ < 0) return;
  std::string error;
  Sync(&error, nullptr);  // best effort; Close has no failure channel
  SyncBarrier(&error, nullptr);
  UpdateAsyncTarget(-1);
  ::close(fd_);
  fd_ = -1;
  path_.clear();
  buffer_.clear();
  pending_ = 0;
}

bool DiskPressureGovernor::ObserveSync(bool transient_failure,
                                       uint64_t latency_ms) {
  if (transient_failure || latency_ms >= opts_.slow_sync_ms) {
    clean_streak_ = 0;
    if (multiplier_ < opts_.max_multiplier) {
      multiplier_ = std::min(multiplier_ * opts_.escalate_factor,
                             opts_.max_multiplier);
      ++escalations_;
      return true;
    }
    return false;
  }
  if (multiplier_ == 1) return false;
  if (++clean_streak_ >= opts_.recover_after) {
    clean_streak_ = 0;
    multiplier_ = std::max<uint64_t>(1, multiplier_ / opts_.escalate_factor);
    ++recoveries_;
    return true;
  }
  return false;
}

}  // namespace psky
