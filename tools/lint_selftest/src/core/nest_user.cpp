// Fixture for the lint selftest: a .cpp may include a *_impl.hpp loop-nest
// header and the transform codelets (each TU keeps its own internal-linkage
// copy); nothing here may be reported.

#include "core/nest_impl.hpp"
#include "numeric/rfft_codelet.hpp"

namespace fixture {

inline int fixture_nest_user() { return 0; }

}  // namespace fixture
