// Fixture for the lint selftest: a .cpp may include a *_impl.hpp loop-nest
// header (each TU keeps its own internal-linkage copy); nothing here may be
// reported.

#include "core/nest_impl.hpp"

namespace fixture {

inline int fixture_nest_user() { return 0; }

}  // namespace fixture
