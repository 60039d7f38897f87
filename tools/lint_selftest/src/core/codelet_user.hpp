#pragma once

// Fixture for the lint selftest: the impl-header-in-cpp-only rule over the
// transform codelets. The deliberate violation below is part of the
// finding count the rpbcm_lint_selftest CTest asserts; the "allowed
// patterns" section must produce no findings.

#include "numeric/rfft_codelet.hpp"  // impl-header-in-cpp-only (codelets)

// --- allowed patterns: none of these may be reported ------------------------

#include "numeric/rfft.hpp"                // the public transform header
#include "numeric/rfft_codelet_notes.hpp"  // not the codelet header
// #include "numeric/rfft_codelet.hpp" inside a comment
