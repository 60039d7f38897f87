#include "core/block_schedule.hpp"

#include "base/check.hpp"

namespace rpbcm::core {

namespace {

std::uint32_t narrow32(std::size_t v) {
  RPBCM_DCHECK(v <= 0xFFFFFFFFU);
  return static_cast<std::uint32_t>(v);
}

}  // namespace

BlockSchedule conv_row_schedule(const BcmLayout& layout,
                                const std::vector<std::uint8_t>& skip) {
  RPBCM_CHECK(skip.size() == layout.total_blocks());
  const std::size_t rows =
      layout.kernel * layout.kernel * layout.in_blocks();
  const std::size_t nbo = layout.out_blocks();
  BlockSchedule s;
  s.offsets.reserve(rows + 1);
  s.offsets.push_back(0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t bo = 0; bo < nbo; ++bo) {
      const std::size_t blk = r * nbo + bo;  // == block_id(kh, kw, bi, bo)
      if (skip[blk] != 0)
        s.entries.push_back({narrow32(bo), narrow32(blk)});
    }
    s.offsets.push_back(narrow32(s.entries.size()));
  }
  return s;
}

}  // namespace rpbcm::core
