// Out-of-core window buffer: a FIFO of stream elements held in
// fixed-size segment files, read and written with plain file I/O.
//
// The paper's Theorem 8 bounds the live candidate set S_{N,q} at
// O(polylog^d N), so for giant windows only the sky-tree needs RAM — the
// raw window contents (needed solely to know *which* element expires
// next) can live on disk. This store keeps them there: elements append
// to the newest segment and pop from the oldest.
//
// Memory is three segment buffers, whatever the window length:
//   - the tail buffer collects pushes; when it is full its slots go to
//     the segment's file in one pwrite, and the buffer starts the next
//     segment;
//   - the head buffer holds the expiry frontier, read with one pread
//     when the head moves onto a segment. The same move advises the
//     kernel to prefetch the following segment (POSIX_FADV_WILLNEED);
//   - the read buffer holds the segment of the last At() or Cursor read
//     that the head and tail buffers do not cover.
// A segment that fits in the tail buffer is never written; a drained
// segment's file is deleted. So peak RSS is O(S_{N,q}) + 3 segment
// buffers, independent of N.
//
// Buffers are keyed by absolute stream index (the element's push
// ordinal), and a written segment never changes, so a buffer that holds
// an index holds the right element: no reader caches anything that a
// push or pop could invalidate.
//
// Segments are per-run scratch, not durable state: files are recreated
// on startup (the startup sweep deletes leftovers) and carry no CRC —
// durability comes from checkpoints plus the WAL (store/wal.h). Slot
// layout is the checkpoint v2 element encoding (seq u64, prob f64,
// time f64, pos[dims] f64), written via memcpy of host-endian bit
// patterns so reads round-trip bit-exactly.
//
// I/O failures report through bool + *error (no exceptions, no output)
// and leave the store unchanged, so a failed call can be retried. The
// segment-io fault-injection site fires at every segment file open,
// read and write.

#ifndef PSKY_STORE_SEGMENT_STORE_H_
#define PSKY_STORE_SEGMENT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "base/check.h"
#include "stream/element.h"

namespace psky {

/// FIFO of UncertainElements over segment files.
class SegmentStore {
 public:
  struct Options {
    std::string dir;                     ///< segment file directory
    int dims = 2;                        ///< element dimensionality
    size_t elements_per_segment = 4096;  ///< slots per segment file and buffer
    /// Unused: the store holds three segment buffers by construction.
    size_t resident_budget = 8;
  };

  struct Stats {
    uint64_t segments_created = 0;   ///< segment files written
    uint64_t segments_recycled = 0;  ///< always 0: drained files are deleted
    uint64_t segments_live = 0;      ///< segments holding window data
    uint64_t segments_resident = 0;  ///< segment buffers allocated (<= 3)
    uint64_t readahead_hits = 0;     ///< always 0: prefetch is not counted
    uint64_t readahead_misses = 0;   ///< always 0: prefetch is not counted
    uint64_t recycle_pressure = 0;   ///< always 0: there is no budget
  };

  /// Streams the live window oldest→newest through the store's read
  /// buffer. The cursor survives concurrent PopFront/PushBack on its
  /// store: elements popped under it are skipped, elements pushed after
  /// creation are not yielded.
  class Cursor {
   public:
    /// Copies the next element into `*out`; returns false when the
    /// cursor is exhausted.
    bool Next(UncertainElement* out) {
      // Elements popped since the last call are gone; skip to the oldest
      // survivor (total_popped_ is the absolute index of the current head).
      if (abs_next_ < store_->total_popped_) abs_next_ = store_->total_popped_;
      if (abs_next_ >= abs_end_) return false;
      store_->ReadSlot(store_->SlotOf(abs_next_++), out);
      return true;
    }

    /// Elements this cursor can still yield (shrinks if the store pops
    /// past unvisited elements).
    uint64_t remaining() const;

   private:
    friend class SegmentStore;
    Cursor(const SegmentStore* store, uint64_t abs_next, uint64_t abs_end)
        : store_(store), abs_next_(abs_next), abs_end_(abs_end) {}

    const SegmentStore* store_;
    uint64_t abs_next_;  ///< absolute stream index of the next element
    uint64_t abs_end_;   ///< absolute stream index one past the last
  };

  explicit SegmentStore(const Options& opts);
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Creates the directory and validates options. Call once before use.
  bool Init(std::string* error);

  /// Appends `e` as the newest element. When the tail buffer is full it
  /// is first written to its segment file (fault site: segment-io).
  bool PushBack(const UncertainElement& e, std::string* error);

  /// Removes the oldest element into `*out`. The first pop from a
  /// segment reads it into the head buffer (fault site: segment-io); the
  /// pop that drains a segment deletes its file. Requires size() > 0.
  bool PopFront(UncertainElement* out, std::string* error);

  /// PushBack(e), then PopFront(out), as one step: on failure neither
  /// happened. Requires size() > 0.
  bool Rotate(const UncertainElement& e, UncertainElement* out,
              std::string* error);

  /// The i-th element from the oldest (0 = oldest). Requires i < size().
  /// Reads the containing segment into the read buffer unless a buffer
  /// already holds it, so a sequential sweep reads each segment once.
  /// A read failure is fatal (PSKY_CHECK).
  UncertainElement At(size_t i) const {
    PSKY_CHECK(i < size_);
    UncertainElement e;
    ReadSlot(SlotOf(total_popped_ + i), &e);
    return e;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int dims() const { return opts_.dims; }

  /// All elements, oldest first. O(size) memory — use NewCursor() for
  /// giant windows; this remains for small snapshots and tests.
  std::vector<UncertainElement> Snapshot() const;

  /// Streaming oldest→newest view of the current contents.
  Cursor NewCursor() const;

  const Stats& stats() const { return stats_; }

 private:
  /// One segment's slots in memory: slot k holds absolute stream index
  /// lo + k, for indices below hi.
  struct Buffer {
    std::vector<char> bytes;
    uint64_t lo = 0;
    uint64_t hi = 0;  ///< lo == hi: holds nothing
    bool Holds(uint64_t abs) const { return abs >= lo && abs < hi; }
  };

  size_t SlotBytes() const {
    return 24 + 8 * static_cast<size_t>(opts_.dims);
  }
  std::string SegmentPath(uint64_t id) const;
  /// Absolute stream index of slot 0 of the front segment.
  uint64_t FrontLo() const { return total_popped_ - head_offset_; }
  /// Sizes `*b` to one segment on first use.
  void Allocate(Buffer* b) const;
  /// Writes one segment's slots from `bytes` to segment `id`'s file, or
  /// reads them into `bytes`: one open and one whole-segment pwrite or
  /// pread, each a segment-io occurrence.
  bool TransferSegment(uint64_t id, char* bytes, bool write,
                       std::string* error) const;
  /// Reads segments_[seg_index] into `*into`. On failure `*into` holds
  /// nothing.
  bool ReadSegment(size_t seg_index, Buffer* into, std::string* error) const;
  /// Makes the front segment readable for TakeFront: reads it into the
  /// head buffer unless it is the tail or already there.
  bool LoadFront(std::string* error);
  /// Pops the oldest element; LoadFront must have succeeded.
  void TakeFront(UncertainElement* out);
  /// The slot holding live absolute index `abs`: from the tail, head or
  /// read buffer, reading its segment into the read buffer first when
  /// none holds it (PSKY_CHECK on failure).
  const char* SlotOf(uint64_t abs) const {
    const Buffer* b = &read_;
    if (abs >= tail_.lo) {
      b = &tail_;
    } else if (head_.Holds(abs)) {
      b = &head_;
    } else if (!read_.Holds(abs)) {
      LoadRead(abs);
    }
    return b->bytes.data() + (abs - b->lo) * SlotBytes();
  }
  void LoadRead(uint64_t abs) const;
  void ReadSlot(const char* slot, UncertainElement* e) const {
    e->pos = zero_pos_;
    std::memcpy(&e->seq, slot, 8);
    std::memcpy(&e->prob, slot + 8, 8);
    std::memcpy(&e->time, slot + 16, 8);
    for (int d = 0; d < opts_.dims; ++d) {
      std::memcpy(&e->pos[d], slot + 24 + 8 * static_cast<size_t>(d), 8);
    }
  }

  Options opts_;
  /// Point(dims) is a variable-length fill per call; reads copy this
  /// zero point of the store's dimensionality instead.
  Point zero_pos_;
  std::deque<uint64_t> segments_;  ///< live segment ids, oldest first
  uint64_t next_id_ = 0;
  size_t head_offset_ = 0;  ///< elements already popped from the front segment
  size_t size_ = 0;
  uint64_t total_popped_ = 0;  ///< lifetime pops; anchors Cursor positions
  /// The back segment; tail_.hi is unused, since every live index at or
  /// above tail_.lo is in it.
  Buffer tail_;
  /// The front segment while it is not the tail: read by LoadFront, or
  /// handed over by the push that writes the lone segment.
  Buffer head_;
  // The read buffer changes under const readers (At, Snapshot, Cursor)
  // without changing the FIFO contents.
  mutable Buffer read_;
  mutable Stats stats_;
};

/// Count-based sliding window with the CountWindow interface but the
/// buffer held in a SegmentStore. `--window-store=disk` swaps this in;
/// its operator-visible behaviour is validated bit-equal to CountWindow.
/// Store I/O failures are fatal (PSKY_CHECK): a window that lost its
/// buffer cannot continue correctly, and the crash-quarantine handler
/// turns the check failure into a post-mortem dump. A failed step leaves
/// the window as the previous step left it, so the dump holds it whole.
class StoredCountWindow {
 public:
  StoredCountWindow(size_t capacity, const SegmentStore::Options& opts);

  /// Creates the backing store. Call once before use; returns false with
  /// a diagnostic when the directory cannot be set up.
  bool Init(std::string* error);

  /// Appends `e`; returns the evicted oldest element when the window
  /// overflows (see CountWindow::Push).
  std::optional<UncertainElement> Push(const UncertainElement& e);

  /// Steady-state rotation; requires full() (see CountWindow::PushRotate).
  /// Pushes before it pops (SegmentStore::Rotate).
  UncertainElement PushRotate(const UncertainElement& e);

  size_t size() const { return store_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return store_.size() == capacity_; }

  /// The i-th element from the oldest (SegmentStore::At).
  UncertainElement At(size_t i) const { return store_.At(i); }

  /// Window contents, oldest first. O(size) memory — prefer NewCursor().
  std::vector<UncertainElement> Snapshot() const { return store_.Snapshot(); }

  /// Streaming oldest→newest view (see SegmentStore::Cursor).
  SegmentStore::Cursor NewCursor() const { return store_.NewCursor(); }

  const SegmentStore::Stats& store_stats() const { return store_.stats(); }

 private:
  size_t capacity_;
  SegmentStore store_;
};

/// Deletes segment files ("seg-*.pskyseg") left in `dir` by earlier
/// runs. Segments are per-run scratch, so at startup every one of them
/// is garbage. Returns the number removed; missing directories are a
/// no-op.
size_t SweepSegmentFiles(const std::string& dir);

}  // namespace psky

#endif  // PSKY_STORE_SEGMENT_STORE_H_
