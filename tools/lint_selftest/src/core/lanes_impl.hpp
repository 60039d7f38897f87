#pragma once

// Fixture for the lint selftest: a *_impl.hpp loop nest may include the
// transform codelets it instantiates; nothing here may be reported.

#include "numeric/rfft_codelet.hpp"

namespace fixture {

inline int fixture_lane_nest() { return 0; }

}  // namespace fixture
