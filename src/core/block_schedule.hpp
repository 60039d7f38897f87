#pragma once

#include <cstdint>
#include <vector>

#include "core/bcm_layout.hpp"

namespace rpbcm::core {

/// Compacted surviving-block schedule: for each group of an eMAC loop nest,
/// the ascending list of surviving blocks, stored CSR-style. The hot loops
/// iterate exactly the live entries — no skip_[] branch in the inner loop —
/// so compute cost scales with 1-α the way the accelerator's skip-index
/// datapath does (Section IV-B), while the entries' ascending order keeps
/// every per-bin accumulation chain identical to the dense serial nest
/// (bitwise — the golden vectors do not move when blocks are pruned in a
/// different order).
///
/// conv_row_schedule is the one builder: BcmConv2d (and so BcmLinear, its
/// K=1 case) rebuilds it lazily off mask_version_, alongside the
/// weight-spectrum cache (rpbcm.core.sched.{rebuilds,cache_hits}), and the
/// Q7.8 functional model (hw::bcm_conv_fixed_point) builds one per call
/// for its instantiation of the same lane eMAC nest.
/// BcmConv2d::backward builds one more per call, over the transposed
/// layer's permuted skip index, for its input-gradient pass.
struct BlockSchedule {
  /// One surviving block. `pos` is its out-block bo; `blk` is the flat
  /// block id into the weight planes.
  struct Entry {
    std::uint32_t pos = 0;
    std::uint32_t blk = 0;
  };

  std::vector<std::uint32_t> offsets;  // [groups+1] CSR row offsets
  std::vector<Entry> entries;          // [surviving], ascending per group

  std::size_t groups() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t surviving() const { return entries.size(); }
  std::size_t group_size(std::size_t g) const {
    return offsets[g + 1] - offsets[g];
  }

  const Entry* begin(std::size_t g) const {
    return entries.data() + offsets[g];
  }
  const Entry* end(std::size_t g) const {
    return entries.data() + offsets[g + 1];
  }
};

/// Conv schedule: group = (kh*K+kw)*in_blocks+bi (one "row" of the weight
/// plane), entries (pos=bo, blk) ascending in bo. The forward eMAC nest and
/// the backward's weight-gradient nest walk this row-major order.
BlockSchedule conv_row_schedule(const BcmLayout& layout,
                                const std::vector<std::uint8_t>& skip);

}  // namespace rpbcm::core
