// rpbcm_lint — repo-specific invariant linter.
//
// Enforces rules the generic tools (compiler warnings, clang-tidy,
// sanitizers) cannot express:
//
//   pragma-once      every header under src/, bench/, tests/ starts with
//                    `#pragma once`
//   no-raw-assert    no raw `assert(...)` in src/, bench/, examples/ —
//                    library code must use RPBCM_CHECK / RPBCM_CHECK_MSG so
//                    contract violations throw CheckError instead of
//                    aborting (and survive NDEBUG builds)
//   obs-side-effect  arguments to the RPBCM_OBS_* macros must be
//                    side-effect-free (`++`, `--`, assignment, compound
//                    assignment are rejected): with RPBCM_OBS=OFF the macro
//                    arguments are unevaluated, so a side effect there
//                    silently changes program behaviour between builds
//   metric-name      metric-name string literals passed to
//                    counter()/gauge()/histogram() or the RPBCM_OBS_*
//                    macros must follow the registry convention
//                    `rpbcm.<area>.<name>` (lowercase [a-z0-9_] segments),
//                    so dashboards and the Prometheus export stay
//                    consistently namespaced. Dynamically built names are
//                    not checked.
//   no-rand          no rand()/srand()/time() calls and no
//                    std::random_device without an explicit constructor
//                    argument anywhere in src/ — every stochastic kernel
//                    must take a caller-provided seed (numeric/random.hpp)
//                    so runs are reproducible bit-for-bit
//   unordered-iter   no iteration (range-for, .begin()/.end() family) over
//                    std::unordered_map / std::unordered_set variables in
//                    src/core, src/numeric, src/nn — iteration order is
//                    unspecified and varies across libstdc++ versions, so
//                    any FP accumulation or output ordering built on it
//                    breaks the determinism contract (docs/parallelism.md).
//                    Keyed lookup is fine; iterate a sorted key vector or
//                    use std::map when order matters.
//   no-std-reduce    no std::reduce / std::transform_reduce /
//                    std::execution in src/ — unordered reductions produce
//                    run-to-run FP differences; kernel reductions must use
//                    the fixed chunk tree in base/parallel.hpp
//   fault-site       string-literal site names passed to
//                    RPBCM_FAULT_POINT must follow the registry grammar
//                    `<area>.<component>.<event>` — at least three
//                    dot-separated lowercase [a-z0-9_] segments
//                    (docs/robustness.md) — so RPBCM_FAULTS configs stay
//                    greppable and collision-free. Dynamically built names
//                    are not checked.
//   no-vector-bool   no std::vector<bool> in src/ — its elements are bits
//                    behind proxy objects, so every read and write is a
//                    shift-and-mask the compiler cannot vectorize (the
//                    training masks were scalar, branchy loops for this
//                    reason); keep one byte per flag, or pack bits a whole
//                    word at a time
//   impl-header-in-cpp-only
//                    no `#include` of a `*_impl.hpp` loop-nest header from
//                    a header, anywhere — those headers define their nests
//                    with internal linkage so that each including .cpp
//                    keeps its own copy, compiled with that TU's ISA flags
//                    (src/core/conv_lanes_impl.hpp); included from a header
//                    a nest would be copied into every TU that includes it
//
// A finding may be waived on its line with `// rpbcm-lint: allow(<rule>)`.
// Waivers are themselves checked: a waiver that suppresses nothing is
// reported as `stale-waiver` so dead annotations cannot accumulate.
//
// Usage: rpbcm_lint <repo-root> [--verbose]
// Exits 0 when the tree is clean, 1 on findings, 2 on usage/IO errors.
//
// Header self-containment (the fourth repo invariant) is a compile check,
// not a text check: tools/CMakeLists.txt generates one TU per src/ header
// and builds them as the `rpbcm_header_selfcheck` object library.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, std::size_t line, std::string rule,
            std::string message) {
  g_findings.push_back(
      {file.generic_string(), line, std::move(rule), std::move(message)});
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::cerr << "rpbcm_lint: cannot read " << p << '\n';
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Replaces comments and string/char literal *contents* with spaces while
// preserving newlines and the literal delimiters, so later scans see code
// structure (parens, operators) without literal noise. Comment text is kept
// in a parallel copy so the allow() waiver can be found per line.
std::string strip_literals_and_comments(const std::string& src) {
  std::string out = src;
  enum class St { kCode, kLine, kBlock, kStr, kChr, kRawStr };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident_char(src[i - 1]))) {
          const std::size_t paren = src.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim.assign(1, ')');
            raw_delim.append(src, i + 2, paren - i - 2);
            raw_delim.push_back('"');
            st = St::kRawStr;
            for (std::size_t j = i; j <= paren; ++j) out[j] = ' ';
            i = paren;
          }
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'' && (i == 0 || !is_ident_char(src[i - 1]))) {
          // Identifier check skips digit separators (1'000'000).
          st = St::kChr;
        }
        break;
      case St::kLine:
        if (c == '\n')
          st = St::kCode;
        else
          out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          st = St::kCode;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChr:
        if (c == '\\' && next != '\0') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRawStr:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::size_t line_of(const std::string& src, std::size_t pos) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < pos && i < src.size(); ++i)
    if (src[i] == '\n') ++line;
  return line;
}

// Waivers are collected up front per file so that, after all checks ran,
// any waiver that never suppressed a finding can be reported as stale.
struct Waiver {
  std::size_t line = 0;
  std::string rule;
  bool used = false;
};

std::vector<Waiver> g_waivers;  // waivers of the file currently being checked

void collect_waivers(const std::string& raw) {
  g_waivers.clear();
  static constexpr std::string_view kTag = "rpbcm-lint: allow(";
  std::size_t lineno = 1;
  std::size_t start = 0;
  while (start <= raw.size()) {
    std::size_t end = raw.find('\n', start);
    if (end == std::string::npos) end = raw.size();
    const std::string_view text(raw.data() + start, end - start);
    std::size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string_view::npos) {
      pos += kTag.size();
      const std::size_t close = text.find(')', pos);
      if (close == std::string_view::npos) break;
      g_waivers.push_back({lineno, std::string(text.substr(pos, close - pos))});
      pos = close + 1;
    }
    if (end == raw.size()) break;
    start = end + 1;
    ++lineno;
  }
}

// Consumes (marks used) a matching waiver on the given line.
bool line_has_waiver(std::size_t line, std::string_view rule) {
  bool found = false;
  for (Waiver& w : g_waivers)
    if (w.line == line && w.rule == rule) {
      w.used = true;
      found = true;
    }
  return found;
}

// --- rule: pragma-once -----------------------------------------------------

void check_pragma_once(const fs::path& file, const std::string& raw) {
  std::istringstream in(raw);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    std::string_view t(line.data() + first, line.size() - first);
    if (t.starts_with("//")) continue;
    if (t.starts_with("#pragma once")) return;
    report(file, lineno, "pragma-once",
           "header must start with `#pragma once` (found other content "
           "first)");
    return;
  }
  report(file, 1, "pragma-once", "header is missing `#pragma once`");
}

// --- rule: no-raw-assert ---------------------------------------------------

void check_no_raw_assert(const fs::path& file, const std::string& code) {
  std::size_t pos = 0;
  while ((pos = code.find("assert", pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += 6;
    if (at > 0 && is_ident_char(code[at - 1])) continue;  // static_assert etc.
    std::size_t after = at + 6;
    while (after < code.size() &&
           (code[after] == ' ' || code[after] == '\t'))
      ++after;
    if (after >= code.size() || code[after] != '(') continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "no-raw-assert")) continue;
    report(file, line, "no-raw-assert",
           "raw assert() in library code — use RPBCM_CHECK / RPBCM_CHECK_MSG "
           "(throws CheckError, survives NDEBUG)");
  }
}

// --- rule: obs-side-effect -------------------------------------------------

// Returns the description of the first side-effecting operator found in a
// macro argument list, or empty if clean. `args` has literals blanked out.
std::string find_side_effect(std::string_view args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    const char next = i + 1 < args.size() ? args[i + 1] : '\0';
    const char prev = i > 0 ? args[i - 1] : '\0';
    if (c == '+' && next == '+') return "increment (++)";
    if (c == '-' && next == '-') return "decrement (--)";
    if (c == '=' && next != '=') {
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>') {
        // ==, !=, <=, >= are comparisons — unless the '<'/'>' is itself the
        // second char of a shift, which makes this <<= / >>=.
        const char prev2 = i > 1 ? args[i - 2] : '\0';
        if ((prev == '<' && prev2 == '<') || (prev == '>' && prev2 == '>'))
          return "shift-assignment (<<= or >>=)";
        continue;
      }
      if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^')
        return std::string("compound assignment (") + prev + "=)";
      return "assignment (=)";
    }
  }
  return {};
}

void check_obs_macro_args(const fs::path& file, const std::string& code) {
  static constexpr std::string_view kPrefix = "RPBCM_OBS_";
  std::size_t pos = 0;
  while ((pos = code.find(kPrefix, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += kPrefix.size();
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    // Macro name runs to the first non-identifier char.
    std::size_t open = at + kPrefix.size();
    while (open < code.size() && is_ident_char(code[open])) ++open;
    const std::string_view name(code.data() + at, open - at);
    // RPBCM_OBS_ONLY wraps whole statements that exist only in instrumented
    // builds — side effects there are the point, not a hazard. The CONCAT
    // helpers are token-pasting plumbing.
    if (name == "RPBCM_OBS_ONLY" || name.starts_with("RPBCM_OBS_CONCAT"))
      continue;
    while (open < code.size() && (code[open] == ' ' || code[open] == '\t' ||
                                  code[open] == '\n' || code[open] == '\r'))
      ++open;
    if (open >= code.size() || code[open] != '(') continue;  // mention, not call
    // Balanced-paren scan (literals are already blanked).
    int depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '(') ++depth;
      if (code[close] == ')' && --depth == 0) break;
    }
    if (depth != 0) break;  // unbalanced tail; nothing more to scan
    const std::string_view args(code.data() + open + 1, close - open - 1);
    const std::string effect = find_side_effect(args);
    if (effect.empty()) continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "obs-side-effect")) continue;
    report(file, line, "obs-side-effect",
           "RPBCM_OBS_* argument contains " + effect +
               " — macro arguments are unevaluated when RPBCM_OBS=OFF, so "
               "side effects change behaviour between builds");
  }
}

// --- rule: metric-name -----------------------------------------------------

// rpbcm.<area>.<name>[.<more>]: at least three dot-separated lowercase
// [a-z0-9_] segments, the first being "rpbcm".
bool valid_metric_name(std::string_view name) {
  std::size_t segments = 0;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    const std::string_view seg = name.substr(start, dot - start);
    if (seg.empty()) return false;
    if (segments == 0) {
      if (seg != "rpbcm") return false;
    } else {
      for (char c : seg)
        if (!(std::islower(static_cast<unsigned char>(c)) != 0 ||
              std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '_'))
          return false;
    }
    ++segments;
    if (dot == name.size()) break;
    start = dot + 1;
  }
  return segments >= 3;
}

// If the expression starting at code[pos] is a string literal (possibly a
// juxtaposition of several), returns its raw concatenated content and sets
// *found=true. The blanked `code` preserves the quote delimiters, so quote
// positions index into `raw` for the actual content.
std::string leading_literal(const std::string& raw, const std::string& code,
                            std::size_t pos, std::size_t end, bool* found) {
  *found = false;
  std::string content;
  while (true) {
    while (pos < end && std::isspace(static_cast<unsigned char>(code[pos])))
      ++pos;
    if (pos >= end || code[pos] != '"') return content;
    const std::size_t close = code.find('"', pos + 1);
    if (close == std::string::npos || close >= end) return content;
    content.append(raw, pos + 1, close - pos - 1);
    *found = true;
    pos = close + 1;
  }
}

// Splits a balanced-paren argument list (blanked code) at top-level commas,
// returning the start offset of each argument.
std::vector<std::size_t> arg_starts(const std::string& code, std::size_t open,
                                    std::size_t close) {
  std::vector<std::size_t> starts{open + 1};
  int depth = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (code[i] == '(' || code[i] == '[' || code[i] == '{') ++depth;
    if (code[i] == ')' || code[i] == ']' || code[i] == '}') --depth;
    if (code[i] == ',' && depth == 0) starts.push_back(i + 1);
  }
  return starts;
}

void report_metric_name(const fs::path& file, const std::string& raw,
                        const std::string& code, std::size_t name_pos,
                        std::size_t arg_begin, std::size_t arg_end) {
  bool is_literal = false;
  const std::string name =
      leading_literal(raw, code, arg_begin, arg_end, &is_literal);
  if (!is_literal) return;  // dynamically built name: unchecked
  if (valid_metric_name(name)) return;
  const std::size_t line = line_of(code, name_pos);
  if (line_has_waiver(line, "metric-name")) return;
  report(file, line, "metric-name",
         "metric name \"" + name +
             "\" does not follow `rpbcm.<area>.<name>` "
             "(lowercase [a-z0-9_] segments)");
}

void check_metric_names(const fs::path& file, const std::string& raw,
                        const std::string& code) {
  // Registry member calls: .counter("..."), ->gauge("..."),
  // .histogram("...") — first argument.
  static constexpr std::string_view kMembers[] = {"counter", "gauge",
                                                  "histogram"};
  for (const std::string_view member : kMembers) {
    std::size_t pos = 0;
    while ((pos = code.find(member, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += member.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      // Require a member access so declarations/definitions don't match.
      std::size_t before = at;
      while (before > 0 && (code[before - 1] == ' ' || code[before - 1] == '\t'))
        --before;
      const bool member_access =
          (before >= 1 && code[before - 1] == '.') ||
          (before >= 2 && code[before - 2] == '-' && code[before - 1] == '>');
      if (!member_access) continue;
      std::size_t open = pos;
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open])))
        ++open;
      if (open >= code.size() || code[open] != '(') continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < code.size(); ++close) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')' && --depth == 0) break;
      }
      if (depth != 0) break;
      const auto starts = arg_starts(code, open, close);
      if (!starts.empty())
        report_metric_name(file, raw, code, at, starts[0],
                           starts.size() > 1 ? starts[1] - 1 : close);
    }
  }

  // Macro calls: the metric argument is the first for COUNT/GAUGE/OBSERVE
  // and the third for TIMED_SCOPE.
  struct MacroRule {
    std::string_view name;
    std::size_t arg;  // zero-based index of the metric-name argument
  };
  static constexpr MacroRule kMacros[] = {{"RPBCM_OBS_COUNT", 0},
                                          {"RPBCM_OBS_GAUGE", 0},
                                          {"RPBCM_OBS_OBSERVE", 0},
                                          {"RPBCM_OBS_TIMED_SCOPE", 2}};
  for (const MacroRule& macro : kMacros) {
    std::size_t pos = 0;
    while ((pos = code.find(macro.name, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += macro.name.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      std::size_t open = pos;
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open])))
        ++open;
      if (open >= code.size() || code[open] != '(') continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < code.size(); ++close) {
        if (code[close] == '(') ++depth;
        if (code[close] == ')' && --depth == 0) break;
      }
      if (depth != 0) break;
      const auto starts = arg_starts(code, open, close);
      if (starts.size() <= macro.arg) continue;
      const std::size_t arg_end =
          starts.size() > macro.arg + 1 ? starts[macro.arg + 1] - 1 : close;
      report_metric_name(file, raw, code, at, starts[macro.arg], arg_end);
    }
  }
}

// --- rule: no-rand ---------------------------------------------------------

// True when the identifier at `at` is a member access (`x.time(...)`,
// `p->rand(...)`) rather than the libc free function (or `std::`-qualified
// call, which stays flagged).
bool is_member_access(const std::string& code, std::size_t at) {
  std::size_t before = at;
  while (before > 0 && (code[before - 1] == ' ' || code[before - 1] == '\t'))
    --before;
  return (before >= 1 && code[before - 1] == '.') ||
         (before >= 2 && code[before - 2] == '-' && code[before - 1] == '>');
}

void check_no_rand(const fs::path& file, const std::string& code) {
  static constexpr std::string_view kCalls[] = {"rand", "srand", "time"};
  for (const std::string_view fn : kCalls) {
    std::size_t pos = 0;
    while ((pos = code.find(fn, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += fn.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      if (is_member_access(code, at)) continue;
      std::size_t open = pos;
      while (open < code.size() &&
             (code[open] == ' ' || code[open] == '\t'))
        ++open;
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t line = line_of(code, at);
      if (line_has_waiver(line, "no-rand")) continue;
      report(file, line, "no-rand",
             std::string(fn) + "() is nondeterministic (or wall-clock "
             "seeded) — kernels must take an explicit seed via "
             "numeric/random.hpp so runs reproduce bit-for-bit");
    }
  }

  // std::random_device without an explicit constructor token (e.g. a
  // device path) draws entropy from the environment — the one thing a
  // reproducible experiment must never do silently.
  static constexpr std::string_view kRd = "random_device";
  std::size_t pos = 0;
  while ((pos = code.find(kRd, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += kRd.size();
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    if (pos < code.size() && is_ident_char(code[pos])) continue;
    // Skip whitespace, then an optional variable name, then look for a
    // constructor argument list. Anything without a non-empty (...)/{...}
    // — `rd;`, `rd{}`, `rd()`, a bare temporary — is argless.
    std::size_t i = pos;
    auto skip_ws = [&] {
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
    };
    skip_ws();
    while (i < code.size() && is_ident_char(code[i])) ++i;  // var name
    skip_ws();
    bool has_arg = false;
    if (i < code.size() && (code[i] == '(' || code[i] == '{')) {
      const char open_c = code[i];
      const char close_c = open_c == '(' ? ')' : '}';
      int depth = 0;
      for (std::size_t j = i; j < code.size(); ++j) {
        if (code[j] == open_c) {
          ++depth;
        } else if (code[j] == close_c) {
          if (--depth == 0) break;
        } else if (!std::isspace(static_cast<unsigned char>(code[j]))) {
          has_arg = true;
        }
      }
    }
    if (has_arg) continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "no-rand")) continue;
    report(file, line, "no-rand",
           "argless std::random_device draws nondeterministic entropy — "
           "kernels must take an explicit seed via numeric/random.hpp");
  }
}

// --- rule: unordered-iter --------------------------------------------------

// Names declared in this file as std::unordered_{map,set,multimap,multiset}
// variables or members (the declaration's template argument list is skipped
// to find the declared name).
std::vector<std::string> unordered_container_names(const std::string& code) {
  std::vector<std::string> names;
  static constexpr std::string_view kTypes[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const std::string_view type : kTypes) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += type.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      std::size_t i = pos;
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
      if (i >= code.size() || code[i] != '<') continue;  // include line etc.
      int depth = 0;
      for (; i < code.size(); ++i) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
      }
      while (i < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[i])) ||
              code[i] == '&' || code[i] == '*'))
        ++i;
      const std::size_t begin = i;
      while (i < code.size() && is_ident_char(code[i])) ++i;
      if (i > begin) names.push_back(code.substr(begin, i - begin));
    }
  }
  return names;
}

void check_unordered_iteration(const fs::path& file, const std::string& code) {
  static constexpr std::string_view kIterMembers[] = {
      "begin", "cbegin", "rbegin", "crbegin", "end", "cend", "rend", "crend"};
  for (const std::string& name : unordered_container_names(code)) {
    std::size_t pos = 0;
    while ((pos = code.find(name, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += name.size();
      if (at > 0 && is_ident_char(code[at - 1])) continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      bool iterates = false;
      std::string how;
      // `name.begin()` family (explicit iterator loops, algorithms).
      std::size_t i = pos;
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
      if (i < code.size() && code[i] == '.') {
        ++i;
        const std::size_t mb = i;
        while (i < code.size() && is_ident_char(code[i])) ++i;
        const std::string_view member(code.data() + mb, i - mb);
        for (const std::string_view it : kIterMembers)
          if (member == it) {
            iterates = true;
            // std::string(...) rather than assigning the literal: works
            // around the gcc 12 -Wrestrict false positive on short-literal
            // operator= (PR105329) under -O2 -Werror.
            how = std::string(".");
            how.append(member).append("()");
          }
      }
      // `for (... : name)` range-for. The previous non-space char being a
      // single ':' (not '::') and the next being ')' identifies the
      // range-expression position.
      if (!iterates) {
        std::size_t before = at;
        while (before > 0 &&
               std::isspace(static_cast<unsigned char>(code[before - 1])))
          --before;
        const bool after_colon = before >= 1 && code[before - 1] == ':' &&
                                 (before < 2 || code[before - 2] != ':');
        if (after_colon && i < code.size() && code[i] == ')') {
          iterates = true;
          how = "range-for";
        }
      }
      if (!iterates) continue;
      const std::size_t line = line_of(code, at);
      if (line_has_waiver(line, "unordered-iter")) continue;
      // Built with append, not operator+ chains: gcc 12's -Wrestrict
      // false-positives on `const char* + std::string&&` (PR 105329)
      // under -O2 -Werror.
      std::string msg = "iteration (";
      msg.append(how)
          .append(") over unordered container '")
          .append(name)
          .append("' — iteration order is unspecified, which breaks the "
                  "determinism contract; iterate a sorted key vector or use "
                  "std::map");
      report(file, line, "unordered-iter", msg);
    }
  }
}

// --- rule: fault-site ------------------------------------------------------

// <area>.<component>.<event>[.<more>]: at least three dot-separated
// lowercase [a-z0-9_] segments — the same grammar
// base::FaultRegistry::valid_site_name enforces at arm time. The lint rule
// catches sites that only a fault-injection run would ever reach.
bool valid_fault_site(std::string_view name) {
  std::size_t segments = 0;
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t dot = name.find('.', start);
    if (dot == std::string_view::npos) dot = name.size();
    const std::string_view seg = name.substr(start, dot - start);
    if (seg.empty()) return false;
    for (char c : seg)
      if (!(std::islower(static_cast<unsigned char>(c)) != 0 ||
            std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '_'))
        return false;
    ++segments;
    if (dot == name.size()) break;
    start = dot + 1;
  }
  return segments >= 3;
}

void check_fault_sites(const fs::path& file, const std::string& raw,
                       const std::string& code) {
  static constexpr std::string_view kMacro = "RPBCM_FAULT_POINT";
  std::size_t pos = 0;
  while ((pos = code.find(kMacro, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += kMacro.size();
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    if (pos < code.size() && is_ident_char(code[pos])) continue;
    std::size_t open = pos;
    while (open < code.size() &&
           std::isspace(static_cast<unsigned char>(code[open])))
      ++open;
    if (open >= code.size() || code[open] != '(') continue;
    int depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '(') ++depth;
      if (code[close] == ')' && --depth == 0) break;
    }
    if (depth != 0) break;
    const auto starts = arg_starts(code, open, close);
    if (starts.empty()) continue;
    const std::size_t arg_end = starts.size() > 1 ? starts[1] - 1 : close;
    bool is_literal = false;
    const std::string name =
        leading_literal(raw, code, starts[0], arg_end, &is_literal);
    if (!is_literal) continue;  // dynamically built site: unchecked
    if (valid_fault_site(name)) continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "fault-site")) continue;
    report(file, line, "fault-site",
           "fault site \"" + name +
               "\" does not follow `<area>.<component>.<event>` "
               "(>=3 lowercase [a-z0-9_] dot segments, docs/robustness.md)");
  }
}

// --- rule: no-std-reduce ---------------------------------------------------

void check_no_std_reduce(const fs::path& file, const std::string& code) {
  static constexpr std::string_view kBanned[] = {
      "std::reduce", "std::transform_reduce", "std::execution"};
  for (const std::string_view token : kBanned) {
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
      const std::size_t at = pos;
      pos += token.size();
      if (at > 0 && (is_ident_char(code[at - 1]) || code[at - 1] == ':'))
        continue;
      if (pos < code.size() && is_ident_char(code[pos])) continue;
      const std::size_t line = line_of(code, at);
      if (line_has_waiver(line, "no-std-reduce")) continue;
      report(file, line, "no-std-reduce",
             std::string(token) +
                 " reduces in unspecified order (run-to-run FP drift) — "
                 "kernel reductions must use the fixed chunk tree in "
                 "base/parallel.hpp");
    }
  }
}

// --- rule: no-vector-bool --------------------------------------------------

void check_no_vector_bool(const fs::path& file, const std::string& code) {
  static constexpr std::string_view kVector = "vector";
  std::size_t pos = 0;
  while ((pos = code.find(kVector, pos)) != std::string::npos) {
    const std::size_t at = pos;
    pos += kVector.size();
    if (at > 0 && is_ident_char(code[at - 1])) continue;
    // `vector` `<` `bool` `>`, with any whitespace between the tokens.
    std::size_t i = pos;
    auto skip_ws = [&] {
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])))
        ++i;
    };
    skip_ws();
    if (i >= code.size() || code[i] != '<') continue;
    ++i;
    skip_ws();
    if (code.compare(i, 4, "bool") != 0) continue;
    i += 4;
    skip_ws();
    if (i >= code.size() || code[i] != '>') continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "no-vector-bool")) continue;
    report(file, line, "no-vector-bool",
           "std::vector<bool> reads and writes single bits through proxies, "
           "so its loops stay scalar — use one std::uint8_t per flag, or "
           "build bit masks a whole word at a time");
  }
}

// --- rule: impl-header-in-cpp-only -----------------------------------------

void check_impl_header_includes(const fs::path& file, const std::string& raw,
                                const std::string& code) {
  static constexpr std::string_view kImpl = "_impl.hpp";
  std::size_t pos = 0;
  while ((pos = code.find('#', pos)) != std::string::npos) {
    const std::size_t at = pos++;
    // `#` `include` `"name"` or `<name>`, with blanks between the tokens;
    // the name is read from the raw text (string contents are blanked in
    // `code`, so a directive inside a literal or comment never matches).
    std::size_t i = pos;
    auto skip_blanks = [&] {
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
    };
    skip_blanks();
    if (code.compare(i, 7, "include") != 0) continue;
    i += 7;
    skip_blanks();
    if (i >= code.size() || (code[i] != '"' && code[i] != '<')) continue;
    const std::size_t end = raw.find_first_of(code[i] == '"' ? "\"\n" : ">\n",
                                              i + 1);
    if (end == std::string::npos) continue;
    const std::string_view name(raw.data() + i + 1, end - i - 1);
    if (!name.ends_with(kImpl)) continue;
    const std::size_t line = line_of(code, at);
    if (line_has_waiver(line, "impl-header-in-cpp-only")) continue;
    report(file, line, "impl-header-in-cpp-only",
           "header includes the loop-nest header \"" + std::string(name) +
               "\": *_impl.hpp nests have internal linkage so each .cpp "
               "keeps its own ISA-specific copy — include it from a .cpp "
               "only");
  }
}

// --- driver ----------------------------------------------------------------

bool has_ext(const fs::path& p, std::string_view a, std::string_view b = "") {
  const std::string e = p.extension().string();
  return e == a || (!b.empty() && e == b);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: rpbcm_lint <repo-root> [--verbose]\n";
    return 2;
  }
  const fs::path root = argv[1];
  const bool verbose = argc > 2 && std::string_view(argv[2]) == "--verbose";
  if (!fs::is_directory(root)) {
    std::cerr << "rpbcm_lint: not a directory: " << root << '\n';
    return 2;
  }

  // (dir, headers-need-pragma-once, forbid-raw-assert)
  struct Scope {
    const char* dir;
    bool pragma_once;
    bool no_assert;
  };
  static constexpr Scope kScopes[] = {
      {"src", true, true},        {"bench", true, true},
      {"examples", true, true},   {"tests", true, false},
      {"tools", false, false},
  };

  std::size_t scanned = 0;
  for (const Scope& scope : kScopes) {
    const fs::path dir = root / scope.dir;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      const bool header = has_ext(p, ".hpp", ".h");
      if (!header && !has_ext(p, ".cpp", ".cc")) continue;
      const fs::path rel = fs::relative(p, root);
      // The macro definitions and the linter itself legitimately contain
      // the tokens the scanner looks for (including the waiver syntax in
      // documentation).
      if (rel == fs::path("src") / "obs" / "macros.hpp") continue;
      if (rel == fs::path("src") / "base" / "fault.hpp") continue;
      if (rel == fs::path("tools") / "rpbcm_lint.cpp") continue;
      // Self-test fixtures contain deliberate violations (the selftest
      // CTests run the tools on those trees and expect the findings).
      const std::string rel_str = rel.generic_string();
      if (rel_str.find("lint_selftest") != std::string::npos ||
          rel_str.find("deps_selftest") != std::string::npos)
        continue;
      ++scanned;
      const std::string raw = read_file(p);
      const std::string code = strip_literals_and_comments(raw);
      collect_waivers(raw);
      if (header && scope.pragma_once) check_pragma_once(rel, raw);
      if (scope.no_assert) check_no_raw_assert(rel, code);
      check_obs_macro_args(rel, code);
      check_metric_names(rel, raw, code);
      check_fault_sites(rel, raw, code);
      if (header) check_impl_header_includes(rel, raw, code);
      // Library-code rules. Random sources, unordered reductions and bit
      // vectors are banned across all of src/; the unordered-iteration
      // rule covers the layers whose outputs feed FP accumulations or
      // serialized artifacts.
      if (std::string_view(scope.dir) == "src") {
        check_no_rand(rel, code);
        check_no_std_reduce(rel, code);
        check_no_vector_bool(rel, code);
        if (rel_str.starts_with("src/core/") ||
            rel_str.starts_with("src/numeric/") ||
            rel_str.starts_with("src/nn/"))
          check_unordered_iteration(rel, code);
      }
      for (const Waiver& w : g_waivers)
        if (!w.used)
          report(rel, w.line, "stale-waiver",
                 "waiver `allow(" + w.rule +
                     ")` suppressed nothing — remove it (or fix the rule "
                     "name)");
    }
  }

  for (const Finding& f : g_findings)
    std::cerr << f.file << ':' << f.line << ": [" << f.rule << "] "
              << f.message << '\n';
  if (verbose || !g_findings.empty())
    std::cerr << "rpbcm_lint: " << scanned << " files scanned, "
              << g_findings.size() << " finding(s)\n";
  return g_findings.empty() ? 0 : 1;
}
