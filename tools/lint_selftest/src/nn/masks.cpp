// Fixture for the lint selftest: the no-vector-bool rule. The deliberate
// violation below is part of the finding count the rpbcm_lint_selftest
// CTest asserts; the "allowed patterns" section must produce no findings.

#include <cstdint>
#include <string>
#include <vector>

namespace fixture {

struct bool_flag {
  bool on = false;
};

inline std::size_t fixture_bit_mask(std::size_t n) {
  std::vector< bool > mask(n, true);  // no-vector-bool (spaced tokens)
  return mask.size();
}

// --- allowed patterns: none of these may be reported ------------------------

inline std::size_t fixture_byte_mask(std::size_t n) {
  std::vector<std::uint8_t> mask(n, 1);     // one byte per flag
  std::vector<bool_flag> flags(n);          // `bool` is only a prefix
  const std::string doc = "std::vector<bool>";  // inside a string literal
  return mask.size() + flags.size() + doc.size();  // std::vector<bool> here
}

}  // namespace fixture
