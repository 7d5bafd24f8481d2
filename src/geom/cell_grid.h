// Uniform grid over the dimension space, used by the sharded ingestion
// engine (core/shard_engine.h) for routing at d <= 2 only: hashing an
// element's cell id spreads spatially clustered arrivals across shards.
// At d >= 3 the engine routes by the sector around the diagonal instead.
//
// Coordinates are expected in [0, 1] (the Börzsönyi generators and the
// CSV reader produce this range); out-of-range values and NaN clamp to
// the edge cells, so every point has a cell.

#ifndef PSKY_GEOM_CELL_GRID_H_
#define PSKY_GEOM_CELL_GRID_H_

#include <cstdint>

#include "geom/point.h"

namespace psky {

class CellGrid {
 public:
  /// Cell coordinates of one point, one index per dimension.
  struct Cell {
    uint32_t coord[kMaxDims] = {};
  };

  CellGrid(int dims, uint32_t resolution)
      : dims_(dims), resolution_(resolution) {
    num_cells_ = 1;
    for (int d = 0; d < dims_; ++d) num_cells_ *= resolution_;
  }

  /// The largest per-dimension resolution whose total cell count
  /// (res^dims) stays within `budget`, but at least 2.
  static uint32_t ChooseResolution(int dims, uint32_t budget = 4096) {
    uint32_t res = 2;
    while (true) {
      const uint32_t next = res + 1;
      uint64_t cells = 1;
      for (int d = 0; d < dims; ++d) cells *= next;
      if (cells > budget) break;
      res = next;
    }
    return res;
  }

  int dims() const { return dims_; }
  uint64_t num_cells() const { return num_cells_; }

  Cell CellOf(const Point& p) const {
    Cell c;
    for (int d = 0; d < dims_; ++d) {
      double scaled = p[d] * static_cast<double>(resolution_);
      if (!(scaled > 0.0)) scaled = 0.0;  // clamp lows and NaN to cell 0
      uint32_t idx = static_cast<uint32_t>(scaled);
      if (idx >= resolution_) idx = resolution_ - 1;  // clamp highs
      c.coord[d] = idx;
    }
    return c;
  }

  /// Row-major linear index of a cell, in [0, num_cells()).
  uint64_t IndexOf(const Cell& c) const {
    uint64_t idx = 0;
    for (int d = 0; d < dims_; ++d) {
      idx = idx * resolution_ + c.coord[d];
    }
    return idx;
  }

  uint64_t IndexOf(const Point& p) const { return IndexOf(CellOf(p)); }

  /// Mixes a cell index into a routing hash (splitmix64 finalizer), so
  /// grid-sharded streams spread clustered cells across shards instead
  /// of striping them.
  static uint64_t HashCell(uint64_t cell_index) {
    uint64_t z = cell_index + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  int dims_;
  uint32_t resolution_;
  uint64_t num_cells_;
};

}  // namespace psky

#endif  // PSKY_GEOM_CELL_GRID_H_
