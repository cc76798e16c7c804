#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mlint.h"

/// \file internal.h
/// Token-stream helpers shared by the lexical rules (mlint.cc), the pass-1
/// fact extractor (program.cc) and the autofixer (fix.cc). Everything here
/// is pure over a token vector: no filesystem, no global state.

namespace mlint::internal {

using Tokens = std::vector<Token>;

inline bool Is(const Tokens& t, std::size_t i, Token::Kind k,
               const char* text) {
  return i < t.size() && t[i].kind == k && t[i].text == text;
}
inline bool IsPunct(const Tokens& t, std::size_t i, const char* text) {
  return Is(t, i, Token::Kind::kPunct, text);
}
inline bool IsIdent(const Tokens& t, std::size_t i, const char* text) {
  return Is(t, i, Token::Kind::kIdent, text);
}
inline bool IsAnyIdent(const Tokens& t, std::size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

inline std::string TrimWs(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

inline bool PathContains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

/// `i` points at '<'. Returns the index one past the matching '>', or
/// `fail` if the angle run is not template-like (hits ';', '{' or EOF).
inline std::size_t SkipAngles(const Tokens& t, std::size_t i,
                              std::size_t fail) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    const std::string& x = t[j].text;
    if (t[j].kind == Token::Kind::kPunct) {
      if (x == "<") ++depth;
      else if (x == ">") {
        if (--depth == 0) return j + 1;
      } else if (x == ";" || x == "{" || x == "}") {
        return fail;
      }
    }
  }
  return fail;
}

/// `i` points at '('. Returns the index of the matching ')' or t.size().
inline std::size_t MatchParen(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "(") ++depth;
    else if (t[j].text == ")" && --depth == 0) return j;
  }
  return t.size();
}

/// `i` points at '{'. Returns the index of the matching '}' or t.size().
inline std::size_t MatchBrace(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "{") ++depth;
    else if (t[j].text == "}" && --depth == 0) return j;
  }
  return t.size();
}

/// `i` points at ']' scanning backwards; returns index of matching '['.
inline std::size_t MatchBracketBack(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i + 1; j-- > 0;) {
    if (t[j].kind != Token::Kind::kPunct) continue;
    if (t[j].text == "]") ++depth;
    else if (t[j].text == "[" && --depth == 0) return j;
  }
  return 0;
}

struct LambdaBody {
  std::size_t intro;         // index of the introducer '['
  std::size_t begin;         // first token inside '{'
  std::size_t end;           // index of matching '}'
  std::size_t params_begin;  // first token inside '(' (== params_end if none)
  std::size_t params_end;    // index of the params ')'
};

/// Finds lambda bodies lexically inside token range [from, to): a '[' whose
/// previous token cannot end an expression (so it is a lambda-introducer,
/// not a subscript), its ']', optional (params), tokens up to '{'.
inline std::vector<LambdaBody> FindLambdas(const Tokens& t, std::size_t from,
                                           std::size_t to) {
  std::vector<LambdaBody> out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (!IsPunct(t, i, "[")) continue;
    if (i > 0) {
      const Token& p = t[i - 1];
      bool prev_ends_expr =
          p.kind == Token::Kind::kIdent || p.kind == Token::Kind::kNumber ||
          (p.kind == Token::Kind::kPunct &&
           (p.text == "]" || p.text == ")" || p.text == ">"));
      if (prev_ends_expr) continue;  // subscript, not a lambda introducer
    }
    // Capture list.
    int depth = 0;
    std::size_t j = i;
    for (; j < t.size(); ++j) {
      if (IsPunct(t, j, "[")) ++depth;
      else if (IsPunct(t, j, "]") && --depth == 0) break;
    }
    if (j >= t.size()) break;
    ++j;
    std::size_t params_begin = j, params_end = j;
    if (IsPunct(t, j, "(")) {
      params_begin = j + 1;
      params_end = MatchParen(t, j);
      j = params_end + 1;
    }
    // Skip mutable / noexcept / trailing return type up to '{'.
    while (j < t.size() && !IsPunct(t, j, "{") && !IsPunct(t, j, ";") &&
           !IsPunct(t, j, ")")) {
      ++j;
    }
    if (j >= t.size() || !IsPunct(t, j, "{")) continue;
    std::size_t close = MatchBrace(t, j);
    out.push_back(LambdaBody{i, j + 1, close, params_begin, params_end});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parallel-region detection
// ---------------------------------------------------------------------------

/// True when the call at `i` hands its callback arguments to a parallel
/// region: the exec entry points ParallelFor and ParallelReduce. (Rel
/// operators take compiled ScalarExpr programs, not callbacks.)
inline bool IsParallelCallee(const Tokens& t, std::size_t i) {
  if (t[i].kind != Token::Kind::kIdent) return false;
  const std::string& x = t[i].text;
  return x == "ParallelFor" || x == "ParallelReduce";
}

/// One parallel-region body: a lambda handed to a parallel callee, or a
/// GatherBatch/SampleBatch override definition (the engines invoke those
/// hooks from inside their chunked loops).
struct ParallelRegion {
  LambdaBody body;
  std::string desc;       // "ParallelFor body", "GatherBatch override", ...
  int line = 0;           // line of the region's opening construct
  bool is_override = false;  // batched vertex/VG hook override
};

/// Collects the parallel-region bodies of a token stream. Call sites and
/// free functions sharing a hook's name do not match (an override
/// definition is the identifier, its parameter list, then qualifier
/// identifiers including `override` before '{').
inline std::vector<ParallelRegion> ParallelRegions(const Tokens& t) {
  std::vector<ParallelRegion> regions;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!IsParallelCallee(t, i)) continue;
    std::string desc = t[i].text + " body";
    std::size_t j = i + 1;
    if (IsPunct(t, j, "<")) {
      j = SkipAngles(t, j, t.size());
      if (j == t.size()) continue;
    }
    if (!IsPunct(t, j, "(")) continue;
    std::size_t close = MatchParen(t, j);
    for (const LambdaBody& b : FindLambdas(t, j + 1, close)) {
      regions.push_back(ParallelRegion{b, desc, t[b.intro].line, false});
    }
  }
  // Batched vertex/VG hooks: the GAS engine calls GatherBatch once per
  // ParallelFor chunk, and the columnar VgApply calls SampleBatch once
  // for every invocation group at once — simulator charges inside either
  // body would interleave by scheduling or diverge from the per-edge /
  // per-tuple accounting of the scalar paths.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!(IsIdent(t, i, "GatherBatch") || IsIdent(t, i, "SampleBatch"))) {
      continue;
    }
    if (!IsPunct(t, i + 1, "(")) continue;
    std::size_t close = MatchParen(t, i + 1);
    if (close >= t.size()) continue;
    std::size_t j = close + 1;
    bool has_override = false;
    while (j < t.size() && t[j].kind == Token::Kind::kIdent) {
      if (t[j].text == "override" || t[j].text == "final") has_override = true;
      ++j;
    }
    if (!has_override || !IsPunct(t, j, "{")) continue;
    regions.push_back(ParallelRegion{
        LambdaBody{i, j + 1, MatchBrace(t, j), i + 2, close},
        t[i].text + " override", t[i].line, true});
  }
  return regions;
}

// ---------------------------------------------------------------------------
// Hazard scanners (shared by lexical rules and pass-1 fact extraction)
// ---------------------------------------------------------------------------

/// An identifier starting with "Charge" or one of the allocator entry
/// points, immediately called.
inline bool IsChargeCall(const Tokens& t, std::size_t i) {
  if (t[i].kind != Token::Kind::kIdent) return false;
  const std::string& x = t[i].text;
  bool chargey = x.rfind("Charge", 0) == 0 || x == "Allocate" ||
                 x == "AllocateEverywhere" || x == "AllocateTransient" ||
                 x == "Free" || x == "FreeEverywhere";
  return chargey && IsPunct(t, i + 1, "(");
}

/// Phase/ledger finalization calls that must stay on the serial caller
/// side of every parallel loop.
inline bool IsLedgerOrderCall(const Tokens& t, std::size_t i) {
  if (t[i].kind != Token::Kind::kIdent) return false;
  const std::string& x = t[i].text;
  return (x == "EndPhase" || x == "CommitLedger" || x == "CommitLedgers") &&
         IsPunct(t, i + 1, "(");
}

/// Entropy-source uses in [from, to): std::random_device mentions and
/// calls to the C nondeterminism APIs (member calls are unrelated APIs).
inline std::vector<std::pair<int, std::string>> ScanEntropy(
    const Tokens& t, std::size_t from, std::size_t to) {
  std::vector<std::pair<int, std::string>> out;
  static const char* kBanned[] = {"rand", "srand", "time", "clock"};
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (t[i].text == "random_device") {
      out.emplace_back(t[i].line, t[i].text);
      continue;
    }
    for (const char* b : kBanned) {
      if (t[i].text != b) continue;
      if (!IsPunct(t, i + 1, "(")) continue;
      if (i > 0 && (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->"))) break;
      out.emplace_back(t[i].line, t[i].text);
      break;
    }
  }
  return out;
}

/// Simulator charge/alloc calls in [from, to).
inline std::vector<std::pair<int, std::string>> ScanCharges(
    const Tokens& t, std::size_t from, std::size_t to) {
  std::vector<std::pair<int, std::string>> out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (IsChargeCall(t, i)) out.emplace_back(t[i].line, t[i].text);
  }
  return out;
}

/// EndPhase / CommitLedger / CommitLedgers calls in [from, to).
inline std::vector<std::pair<int, std::string>> ScanLedgerOrder(
    const Tokens& t, std::size_t from, std::size_t to) {
  std::vector<std::pair<int, std::string>> out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (IsLedgerOrderCall(t, i)) out.emplace_back(t[i].line, t[i].text);
  }
  return out;
}

inline const std::set<std::string>& ThreadPrimitives() {
  static const std::set<std::string> kPrimitives = {
      "thread",       "jthread",       "mutex",
      "recursive_mutex", "shared_mutex", "timed_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",       "atomic_flag",   "atomic_ref",
      "atomic_thread_fence", "atomic_signal_fence",
      "this_thread",  "stop_token",    "stop_source",
      "lock_guard",   "unique_lock",   "scoped_lock",
      "shared_lock",  "future",        "promise",
      "async",        "barrier",       "latch",
      "counting_semaphore", "binary_semaphore"};
  return kPrimitives;
}

/// The lock-free pool's spin/park vocabulary: cpu-relax intrinsics only
/// belong in src/exec/'s dispatch loops — anywhere else they signal a
/// hand-rolled spin lock.
inline const std::set<std::string>& SpinIntrinsics() {
  static const std::set<std::string> kSpin = {"__builtin_ia32_pause",
                                              "_mm_pause"};
  return kSpin;
}

/// Raw threading uses in [from, to): std:: primitives and spin
/// intrinsics. (Header includes are a file-level concern; the lexical
/// rule handles them.)
inline std::vector<std::pair<int, std::string>> ScanRawThread(
    const Tokens& t, std::size_t from, std::size_t to) {
  std::vector<std::pair<int, std::string>> out;
  for (std::size_t i = from; i < to && i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (SpinIntrinsics().count(t[i].text) != 0) {
      out.emplace_back(t[i].line, t[i].text);
      continue;
    }
    if (t[i].text == "std" && IsPunct(t, i + 1, "::") &&
        IsAnyIdent(t, i + 2) && ThreadPrimitives().count(t[i + 2].text) != 0) {
      out.emplace_back(t[i].line, "std::" + t[i + 2].text);
    }
  }
  return out;
}

/// Keywords that can precede an identifier without declaring it.
inline bool IsNonTypeKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "return",   "if",     "while",  "else",   "case",  "goto",
      "new",      "delete", "throw",  "sizeof", "do",    "switch",
      "co_return", "co_await", "co_yield", "not", "and", "or"};
  return kKeywords.count(s) != 0;
}

/// Statement keywords that look like calls (`if (`, `for (`) plus other
/// identifiers that never name a repo function.
inline bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",     "switch",        "catch",
      "return",   "sizeof",   "alignof",   "decltype",      "static_assert",
      "new",      "delete",   "throw",     "noexcept",      "alignas",
      "typeid",   "assert",   "defined",   "co_await",      "co_return",
      "co_yield", "operator", "constexpr", "const", "static"};
  return kKeywords.count(s) != 0;
}

/// True when identifier `name` is declared inside token range [from, to):
/// some occurrence is preceded by a type-ish token (identifier, '>', '&',
/// '*', 'auto') and not part of a member access, or appears in a
/// structured binding.
inline bool DeclaredWithin(const Tokens& t, std::size_t from, std::size_t to,
                           const std::string& name) {
  for (std::size_t i = from; i < to; ++i) {
    if (!(t[i].kind == Token::Kind::kIdent && t[i].text == name)) continue;
    if (i == 0) continue;
    const Token& p = t[i - 1];
    bool typeish =
        (p.kind == Token::Kind::kIdent && !IsNonTypeKeyword(p.text)) ||
        (p.kind == Token::Kind::kPunct &&
         (p.text == ">" || p.text == "&" || p.text == "*"));
    if (!typeish) continue;
    if (p.kind == Token::Kind::kPunct && (p.text == "." || p.text == "->")) {
      continue;
    }
    return true;
  }
  // Structured-binding names: appear between '[' and ']' right after auto.
  for (std::size_t i = from; i + 1 < to; ++i) {
    if (!IsIdent(t, i, "auto")) continue;
    std::size_t j = i + 1;
    while (IsPunct(t, j, "&") || IsPunct(t, j, "*")) ++j;
    if (!IsPunct(t, j, "[")) continue;
    for (std::size_t k = j + 1; k < to && !IsPunct(t, k, "]"); ++k) {
      if (t[k].kind == Token::Kind::kIdent && t[k].text == name) return true;
    }
  }
  return false;
}

/// True when `name` appears as an identifier anywhere in [from, to) — used
/// for parameter-range membership (loose: type names count too, which only
/// exempts more).
inline bool IdentInRange(const Tokens& t, std::size_t from, std::size_t to,
                         const std::string& name) {
  for (std::size_t k = from; k < to && k < t.size(); ++k) {
    if (t[k].kind == Token::Kind::kIdent && t[k].text == name) return true;
  }
  return false;
}

/// `+=` accumulations in a body whose left-hand-side root is neither a
/// body-local declaration nor a parameter — scheduling-order hazards when
/// the body runs inside a parallel region. Returns (line, root-name).
inline std::vector<std::pair<int, std::string>> ScanNonlocalPlusEq(
    const Tokens& t, std::size_t body_begin, std::size_t body_end,
    std::size_t params_begin, std::size_t params_end) {
  std::vector<std::pair<int, std::string>> out;
  for (std::size_t i = body_begin; i < body_end && i < t.size(); ++i) {
    if (!IsPunct(t, i, "+=")) continue;
    // Walk the LHS chain backwards to its root identifier.
    std::size_t j = i;
    while (j > body_begin) {
      const Token& p = t[j - 1];
      if (p.kind == Token::Kind::kPunct && p.text == "]") {
        j = MatchBracketBack(t, j - 1);
        continue;
      }
      if (p.kind == Token::Kind::kIdent || p.kind == Token::Kind::kNumber) {
        --j;
        continue;
      }
      if (p.kind == Token::Kind::kPunct && (p.text == "." || p.text == "->")) {
        --j;
        continue;
      }
      break;
    }
    if (!IsAnyIdent(t, j)) continue;
    const std::string& root = t[j].text;
    if (DeclaredWithin(t, body_begin, body_end, root)) continue;
    if (IdentInRange(t, params_begin, params_end, root)) continue;
    out.emplace_back(t[i].line, root);
  }
  return out;
}

// ---------------------------------------------------------------------------
// RNG stream tracking (rule 8)
// ---------------------------------------------------------------------------

/// Names of variables declared with type `Rng` anywhere in the file
/// (locals, members, parameters). `stats::Rng rng(seed)` counts;
/// `stats::Rng Make(...)` { — a function returning Rng — does not.
inline std::set<std::string> CollectRngVars(const Tokens& t) {
  std::set<std::string> vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i, "Rng")) continue;
    std::size_t j = i + 1;
    while (IsPunct(t, j, "&") || (IsPunct(t, j, "*"))) ++j;
    if (!IsAnyIdent(t, j)) continue;
    if (IsNonTypeKeyword(t[j].text)) continue;
    // `Rng Rng::Split(...)` / qualified definitions: not a variable.
    if (IsPunct(t, j + 1, "::")) continue;
    if (IsPunct(t, j + 1, "(")) {
      // Constructor-arg variable (`Rng rng(seed);`) vs function returning
      // Rng (`Rng Make(...) {` / `Rng Make(...);` at class scope). A
      // following '{' means a definition; treat everything else as a
      // variable — over-tracking only risks extra rule-8 findings on
      // functions *returning* fresh Rngs, which this repo spells as
      // constructor expressions instead.
      std::size_t close = MatchParen(t, j + 1);
      if (close < t.size() && IsPunct(t, close + 1, "{")) continue;
    }
    vars.insert(t[j].text);
  }
  return vars;
}

/// Uses of a tracked Rng variable inside a body that (a) is not declared
/// in the body, (b) is not one of the body's own parameters, and (c) is
/// not a `.Split(...)` substream derivation. Such a use shares one RNG
/// stream across chunks: draw order becomes scheduling-dependent.
inline std::vector<std::pair<int, std::string>> ScanRngUses(
    const Tokens& t, std::size_t body_begin, std::size_t body_end,
    std::size_t params_begin, std::size_t params_end,
    const std::set<std::string>& rng_vars) {
  std::vector<std::pair<int, std::string>> out;
  if (rng_vars.empty()) return out;
  for (std::size_t i = body_begin; i < body_end && i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || rng_vars.count(t[i].text) == 0) {
      continue;
    }
    const std::string& name = t[i].text;
    if (DeclaredWithin(t, body_begin, body_end, name)) continue;
    if (IdentInRange(t, params_begin, params_end, name)) continue;
    // The sanctioned derivation: rng.Split(chunk-stable index).
    if ((IsPunct(t, i + 1, ".") || IsPunct(t, i + 1, "->")) &&
        IsIdent(t, i + 2, "Split")) {
      continue;
    }
    out.emplace_back(t[i].line, name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Unordered-container iteration sites (rule 2; shared with pass 1)
// ---------------------------------------------------------------------------

inline bool IsUnorderedName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

/// File-level scan: (line, variable) pairs where an unordered container is
/// iterated (begin()/cbegin()/rbegin() or a range-for). Tracks variables
/// declared with unordered types and `using` aliases of them; `.end()`
/// sentinel compares and lookups stay quiet.
inline std::vector<std::pair<int, std::string>> UnorderedIterSites(
    const Tokens& t) {
  std::vector<std::pair<int, std::string>> out;
  // Pass A: names of variables/members declared with an unordered container
  // type, plus `using X = ...unordered_map<...>` aliases (and variables
  // declared with those aliases).
  std::set<std::string> aliases;
  std::set<std::string> vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if ((t[i].text == "using" || t[i].text == "typedef") &&
        IsAnyIdent(t, i + 1)) {
      if (t[i].text == "using" && IsPunct(t, i + 2, "=")) {
        std::string name = t[i + 1].text;
        for (std::size_t j = i + 3; j < t.size() && !IsPunct(t, j, ";"); ++j) {
          if (t[j].kind == Token::Kind::kIdent && IsUnorderedName(t[j].text)) {
            aliases.insert(name);
            break;
          }
        }
      }
      continue;
    }
    bool is_container_type =
        IsUnorderedName(t[i].text) || aliases.count(t[i].text) != 0;
    if (!is_container_type) continue;
    std::size_t j = i + 1;
    if (IsPunct(t, j, "<")) {
      j = SkipAngles(t, j, /*fail=*/t.size());
      if (j == t.size()) continue;
    } else if (aliases.count(t[i].text) == 0) {
      continue;  // bare `unordered_map` without template args: not a decl
    }
    // Declarator list: [*&]* name [, name ...] terminated by ; = { (
    while (j < t.size()) {
      while (IsPunct(t, j, "*") || IsPunct(t, j, "&")) ++j;
      if (!IsAnyIdent(t, j)) break;
      // `Type name(` is a function declarator returning the container —
      // the name is not a container variable.
      if (IsPunct(t, j + 1, "(")) break;
      vars.insert(t[j].text);
      if (IsPunct(t, j + 1, ",")) {
        j += 2;
        continue;
      }
      break;
    }
  }
  if (vars.empty()) return out;

  // Pass B: iterations.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (IsAnyIdent(t, i) && vars.count(t[i].text) != 0 &&
        (IsPunct(t, i + 1, ".") || IsPunct(t, i + 1, "->")) &&
        IsAnyIdent(t, i + 2) && IsPunct(t, i + 3, "(")) {
      // `.end()` alone is a find-sentinel comparison, not an iteration;
      // every real traversal needs a begin.
      const std::string& m = t[i + 2].text;
      if (m == "begin" || m == "cbegin" || m == "rbegin") {
        out.emplace_back(t[i].line, t[i].text);
      }
      continue;
    }
    // Range-for whose sequence expression mentions a tracked container.
    if (IsIdent(t, i, "for") && IsPunct(t, i + 1, "(")) {
      std::size_t close = MatchParen(t, i + 1);
      std::size_t colon = t.size();
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (IsPunct(t, j, "(")) ++depth;
        else if (IsPunct(t, j, ")")) --depth;
        else if (depth == 1 && IsPunct(t, j, ":")) {
          colon = j;
          break;
        }
      }
      if (colon == t.size()) continue;  // classic for loop
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (IsAnyIdent(t, j) && vars.count(t[j].text) != 0) {
          out.emplace_back(t[i].line, t[j].text);
          break;
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allowances
// ---------------------------------------------------------------------------

/// The (rule, line) pairs whose findings are suppressed in `file`:
/// allowances for known rules that carry a reason. When `bad_out` is
/// non-null, reasonless or unknown-rule allowances are appended to it as
/// `bad-suppression` findings (they suppress nothing).
std::set<std::pair<std::string, int>> ActiveAllowances(
    const SourceFile& file, const std::set<std::string>& known_rules,
    std::vector<Finding>* bad_out);

/// Appends a finding unless one with the same (rule, line) already exists;
/// on a duplicate, a non-empty chain upgrades the existing finding.
void AddFinding(std::vector<Finding>* out, const SourceFile& f,
                const std::string& rule, int line, std::string message,
                int col = 0, std::vector<std::string> chain = {});

/// JSON string-body escaping (shared by the reporters and the callgraph
/// dump).
std::string JsonEscape(const std::string& s);

}  // namespace mlint::internal
