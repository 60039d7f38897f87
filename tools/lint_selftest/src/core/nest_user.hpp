#pragma once

// Fixture for the lint selftest: the impl-header-in-cpp-only rule. The
// deliberate violation below is part of the finding count the
// rpbcm_lint_selftest CTest asserts; the "allowed patterns" section must
// produce no findings.

#  include   <core/nest_impl.hpp>  // impl-header-in-cpp-only (angle form)

// --- allowed patterns: none of these may be reported ------------------------

#include "core/nest.hpp"             // a plain header
#include "core/nest_impl_notes.hpp"  // `_impl.hpp` is not the suffix
// #include "core/nest_impl.hpp" inside a comment

inline const char* fixture_impl_doc() {
  return "#include \"core/nest_impl.hpp\"";  // inside a string literal
}
