#include "store/segment_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "base/check.h"
#include "base/fault_injection.h"
#include "geom/point.h"

namespace psky {

namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// See checkpoint.cc: strerror is fine on the single pipeline thread.
std::string ErrnoString(int err) {
  return std::strerror(err);  // NOLINT(concurrency-mt-unsafe)
}

// The segment-io fault site, consulted before every segment file open,
// read and write: fails with "cannot <what> <path>: <errno> (injected)".
bool Injected(const char* what, const std::string& path, std::string* error) {
  if (!fault::Enabled()) return false;
  const int inj = fault::FailErrno(fault::Site::kSegmentIo);
  if (inj == 0) return false;
  Fail(error, std::string("cannot ") + what + " " + path + ": " +
                  ErrnoString(inj) + " (injected)");
  return true;
}

std::string SegmentFileName(uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "seg-%020llu.pskyseg",
                static_cast<unsigned long long>(id));
  return buf;
}

bool IsSegmentFileName(const std::string& name) {
  if (name.size() != SegmentFileName(0).size() || name.rfind("seg-", 0) != 0 ||
      name.compare(name.size() - 8, 8, ".pskyseg") != 0) {
    return false;
  }
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

}  // namespace

SegmentStore::SegmentStore(const Options& opts)
    : opts_(opts),
      zero_pos_(opts.dims >= 1 && opts.dims <= kMaxDims ? opts.dims : 0) {}

SegmentStore::~SegmentStore() {
  // Per-run scratch: leave nothing behind on clean destruction. The tail
  // segment may have no file yet.
  std::error_code ec;
  for (uint64_t id : segments_) std::filesystem::remove(SegmentPath(id), ec);
}

bool SegmentStore::Init(std::string* error) {
  if (opts_.dims < 1 || opts_.dims > kMaxDims) {
    return Fail(error, "segment store dims " + std::to_string(opts_.dims) +
                           " outside [1, " + std::to_string(kMaxDims) + "]");
  }
  if (opts_.elements_per_segment == 0) {
    return Fail(error, "segment store needs elements_per_segment >= 1");
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(opts_.dir, ec) &&
      !std::filesystem::create_directories(opts_.dir, ec)) {
    return Fail(error, "cannot create " + opts_.dir + ": " + ec.message());
  }
  return true;
}

std::string SegmentStore::SegmentPath(uint64_t id) const {
  return (std::filesystem::path(opts_.dir) / SegmentFileName(id)).string();
}

void SegmentStore::Allocate(Buffer* b) const {
  if (!b->bytes.empty()) return;
  b->bytes.resize(SlotBytes() * opts_.elements_per_segment);
  ++stats_.segments_resident;
}

bool SegmentStore::TransferSegment(uint64_t id, char* bytes, bool write,
                                   std::string* error) const {
  const std::string path = SegmentPath(id);
  if (Injected("open", path, error)) return false;
  const int fd = write ? ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                0644)
                       : ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(error, "cannot open " + path + ": " + ErrnoString(errno));
  }
  const char* verb = write ? "write" : "read";
  bool ok = !Injected(verb, path, error);
  const size_t total = SlotBytes() * opts_.elements_per_segment;
  for (size_t done = 0; ok && done < total;) {
    const off_t at = static_cast<off_t>(done);
    const ssize_t n = write ? ::pwrite(fd, bytes + done, total - done, at)
                            : ::pread(fd, bytes + done, total - done, at);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const int err = n < 0 ? errno : EIO;  // 0: the file is short
      ok = Fail(error, std::string("cannot ") + verb + " " + path + ": " +
                           ErrnoString(err));
    }
    done += n > 0 ? static_cast<size_t>(n) : 0;
  }
  if (::close(fd) != 0 && ok) {
    ok = Fail(error, "cannot close " + path + ": " + ErrnoString(errno));
  }
  return ok;
}

bool SegmentStore::ReadSegment(size_t seg_index, Buffer* into,
                               std::string* error) const {
  into->lo = into->hi = 0;
  Allocate(into);
  if (!TransferSegment(segments_[seg_index], into->bytes.data(),
                       /*write=*/false, error)) {
    return false;
  }
  into->lo = FrontLo() + seg_index * opts_.elements_per_segment;
  into->hi = into->lo + opts_.elements_per_segment;
  return true;
}

bool SegmentStore::PushBack(const UncertainElement& e, std::string* error) {
  PSKY_CHECK(e.pos.dims() == opts_.dims);
  const uint64_t pushed = total_popped_ + size_;
  if (segments_.empty()) {
    segments_.push_back(next_id_++);
    Allocate(&tail_);
    tail_.lo = pushed;
  } else if (pushed - tail_.lo == opts_.elements_per_segment) {
    if (!TransferSegment(segments_.back(), tail_.bytes.data(),
                         /*write=*/true, error)) {
      return false;
    }
    ++stats_.segments_created;
    if (segments_.size() == 1) {
      // The full tail is also the front: it becomes the head buffer as
      // it stands, without a read.
      std::swap(head_, tail_);
      head_.hi = head_.lo + opts_.elements_per_segment;
      Allocate(&tail_);
    }
    segments_.push_back(next_id_++);
    tail_.lo = pushed;
  }
  char* slot = tail_.bytes.data() + (pushed - tail_.lo) * SlotBytes();
  std::memcpy(slot, &e.seq, 8);
  std::memcpy(slot + 8, &e.prob, 8);
  std::memcpy(slot + 16, &e.time, 8);
  std::memcpy(slot + 24, e.pos.data(), 8 * static_cast<size_t>(opts_.dims));
  ++size_;
  stats_.segments_live = segments_.size();
  return true;
}

bool SegmentStore::LoadFront(std::string* error) {
  if (segments_.size() == 1 || head_.Holds(total_popped_)) return true;
  if (!ReadSegment(0, &head_, error)) return false;
  if (segments_.size() > 2) {
    // Prefetch the next expiry frontier (the tail has no file). Advisory:
    // not a segment-io occurrence, and a failure costs only the hint.
    const int fd = ::open(SegmentPath(segments_[1]).c_str(), O_RDONLY);
    if (fd >= 0) {
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_WILLNEED);
      ::close(fd);
    }
  }
  return true;
}

void SegmentStore::TakeFront(UncertainElement* out) {
  const Buffer& front = segments_.size() == 1 ? tail_ : head_;
  ReadSlot(front.bytes.data() + (total_popped_ - front.lo) * SlotBytes(),
           out);
  ++head_offset_;
  --size_;
  ++total_popped_;
  if (segments_.size() == 1) {
    if (size_ == 0) {
      // Fully drained: the lone segment starts over in place.
      head_offset_ = 0;
      tail_.lo = total_popped_;
    }
  } else if (head_offset_ == opts_.elements_per_segment) {
    std::error_code ec;  // a leftover file is reaped by the next sweep
    std::filesystem::remove(SegmentPath(segments_.front()), ec);
    segments_.pop_front();
    head_offset_ = 0;
  }
  stats_.segments_live = segments_.size();
}

bool SegmentStore::PopFront(UncertainElement* out, std::string* error) {
  PSKY_CHECK(size_ > 0);
  if (!LoadFront(error)) return false;
  TakeFront(out);
  return true;
}

bool SegmentStore::Rotate(const UncertainElement& e, UncertainElement* out,
                          std::string* error) {
  PSKY_CHECK(size_ > 0);
  // The push keeps a loaded front loaded, so the pop needs no I/O.
  if (!LoadFront(error) || !PushBack(e, error)) return false;
  TakeFront(out);
  return true;
}

void SegmentStore::LoadRead(uint64_t abs) const {
  // Callers only ask for live indices: At checks i < size(), and a
  // cursor clamps to [total_popped_, its end).
  PSKY_DCHECK(abs >= total_popped_ && abs - total_popped_ < size_);
  const size_t seg_index =
      static_cast<size_t>((abs - FrontLo()) / opts_.elements_per_segment);
  std::string error;
  PSKY_CHECK_MSG(ReadSegment(seg_index, &read_, &error), error.c_str());
}

std::vector<UncertainElement> SegmentStore::Snapshot() const {
  std::vector<UncertainElement> out;
  out.reserve(size_);
  for (size_t i = 0; i < size_; ++i) out.push_back(At(i));
  return out;
}

SegmentStore::Cursor SegmentStore::NewCursor() const {
  return Cursor(this, total_popped_, total_popped_ + size_);
}

uint64_t SegmentStore::Cursor::remaining() const {
  const uint64_t next = abs_next_ < store_->total_popped_
                            ? store_->total_popped_
                            : abs_next_;
  return next >= abs_end_ ? 0 : abs_end_ - next;
}

StoredCountWindow::StoredCountWindow(size_t capacity,
                                     const SegmentStore::Options& opts)
    : capacity_(capacity), store_(opts) {}

bool StoredCountWindow::Init(std::string* error) {
  return store_.Init(error);
}

std::optional<UncertainElement> StoredCountWindow::Push(
    const UncertainElement& e) {
  if (full()) return PushRotate(e);
  std::string error;
  PSKY_CHECK_MSG(store_.PushBack(e, &error), error.c_str());
  return std::nullopt;
}

UncertainElement StoredCountWindow::PushRotate(const UncertainElement& e) {
  PSKY_CHECK(full());
  std::string error;
  UncertainElement oldest;
  PSKY_CHECK_MSG(store_.Rotate(e, &oldest, &error), error.c_str());
  return oldest;
}

size_t SweepSegmentFiles(const std::string& dir) {
  size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (IsSegmentFileName(entry.path().filename().string())) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) ++removed;
    }
  }
  return removed;
}

}  // namespace psky
