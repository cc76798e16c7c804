#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

/// \file mlint.h
/// mlint — the repo-specific determinism & accounting linter.
///
/// Every number this repository reports rests on invariants the compiler
/// cannot check: simulated charges, RNG streams and peak-RAM ledgers must be
/// bit-identical across thread counts and engine representations. mlint
/// makes those invariants machine-checked.
///
/// The analyzer runs in two passes (DESIGN.md §11):
///
///   Pass 1 — per file: tokenize (comments and string/char literals
///   stripped, so fixture snippets and docs never trigger rules), extract
///   *facts*: function definitions (free functions, methods by qualified
///   name, lambda-to-local bindings), their call sites, their hazard sites
///   (entropy sources, simulator charges, ledger commits, raw threading,
///   non-local `+=` roots, shared-RNG draws, unordered iterations), the
///   include edges, and the parallel-region roots (ParallelFor /
///   ParallelReduce lambdas and GatherBatch / SampleBatch overrides).
///
///   Pass 2 — whole program: link the facts into a conservative call graph,
///   compute transitive reachability from every parallel-region root, and
///   evaluate the parallel-region rules against every *reachable* function
///   body — so hoisting a violation into a named helper no longer escapes
///   the lint. Each transitive finding carries the reachability chain that
///   proves it (`--why`).
///
/// Lexical (single-file) rules, inline
///     `// mlint: allow(<rule-list>) — <reason>`
/// suppressions (the reason is mandatory; a bare allow() is itself a
/// finding), the content-keyed baseline, and the text/JSON reporters ride
/// on top unchanged.

namespace mlint {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind : std::uint8_t {
    kIdent,    // identifiers and keywords
    kNumber,   // numeric literals
    kPunct,    // operators / punctuation (mostly single chars; ::, ->, +=)
    kPreproc,  // one whole preprocessor directive, continuations folded
  };
  Kind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
  int col;   // 1-based column of the token's first character
};

/// One inline suppression comment. `line` is the source line the allowance
/// applies to: a trailing comment covers its own line, a comment-only line
/// covers the next line that carries code.
struct Allowance {
  std::string rule;   // rule name inside allow(...)
  std::string reason; // free text after the closing paren; may be empty
  int line;           // effective line the allowance covers
  int comment_line;   // line the comment itself sits on
};

/// One non-suppression mlint marker comment (`// mlint: <marker> ...`),
/// e.g. `// mlint: frozen-grain — regolden PR-NN`. Line resolution follows
/// the allowance rules (trailing covers its line, standalone the next).
struct Marker {
  std::string name;  // marker keyword, e.g. "frozen-grain"
  int line;
  int comment_line;
};

struct SourceFile {
  std::string path;
  bool is_header = false;
  std::vector<std::string> lines;  // raw source, for snippets
  std::vector<Token> tokens;
  std::vector<Allowance> allowances;
  std::vector<Marker> markers;

  /// Raw line `line` (1-based), trimmed; empty string when out of range.
  std::string Snippet(int line) const;
};

/// Tokenizes `content` as C++ source. Never fails: unterminated literals
/// and comments are closed at end of file.
SourceFile Parse(std::string path, const std::string& content);

// ---------------------------------------------------------------------------
// Findings and rules
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;
  int col = 0;  // 1-based column of the fixable site (0 = unknown)
  std::string message;
  std::string snippet;
  bool baselined = false;
  /// For transitive findings: the reachability chain proving the site runs
  /// inside a parallel region. Entry 0 is the parallel-region root, middle
  /// entries are call sites, the last entry is the hazard itself. Each
  /// entry is "path:line: text". Empty for lexical findings.
  std::vector<std::string> chain;
};

struct RuleInfo {
  std::string name;
  std::string summary;
};

/// Names and one-line summaries of every registered rule, in check order.
std::vector<RuleInfo> Rules();

/// Runs every *lexical* rule over one parsed file, applies inline
/// allowances, and appends surviving findings (bad suppressions included)
/// to `out`. Transitive (call-graph) findings come from LintProgram /
/// LintSources, which call this per linted file and then add pass-2 results.
void CheckFile(const SourceFile& file, std::vector<Finding>* out);

// ---------------------------------------------------------------------------
// Pass-1 facts (public so the index cache and tests can drive them)
// ---------------------------------------------------------------------------

/// A call site inside a function or parallel-region body.
struct CallSite {
  std::string name;    // base (unqualified) callee name
  bool member = false; // x.f(...) / x->f(...) form
  int line = 0;
};

/// A rule hazard recorded inside a function body. `rule` is the rule the
/// hazard maps to when the body turns out to be parallel-reachable.
/// Allowances are already applied (suppressed hazards are never recorded),
/// so cached facts stay correct without re-reading the source.
struct HazardSite {
  std::string rule;
  int line = 0;
  std::string token;    // the offending identifier, for messages
  std::string snippet;  // trimmed source line, for baseline keys
};

/// One function definition (or lambda bound to a local variable).
struct FunctionFacts {
  enum class Kind : std::uint8_t { kFree, kMethod, kLambdaLocal };
  Kind kind = Kind::kFree;
  std::string name;       // base name
  std::string qualifier;  // "A::B" for out-of-line A::B::name, else ""
  int line = 0;
  bool binds_scoped_ledger = false;  // body mentions sim::ScopedLedger
  std::vector<std::string> params;   // identifiers in the parameter list
  std::vector<CallSite> calls;
  std::vector<HazardSite> hazards;
};

/// A parallel-region root: the body handed to ParallelFor/ParallelReduce,
/// or a GatherBatch/SampleBatch override.
struct RootFacts {
  std::string desc;  // e.g. "ParallelFor body", "GatherBatch override"
  int line = 0;
  bool binds_scoped_ledger = false;
  std::vector<CallSite> calls;
};

/// Everything pass 2 needs to know about one file. Derivable from the
/// parsed source (ExtractFacts) or from the index cache when the content
/// hash matches.
struct FileFacts {
  std::string path;
  std::uint64_t content_hash = 0;
  std::vector<std::string> classes;   // class/struct names defined here
  std::vector<std::string> includes;  // raw "quoted" include operands
  std::vector<FunctionFacts> functions;
  std::vector<RootFacts> roots;
};

/// FNV-1a 64 over the raw bytes; the cache key.
std::uint64_t ContentHash(const std::string& content);

/// Pass 1 for one file.
FileFacts ExtractFacts(const SourceFile& file);

/// Serializes facts for the index cache (text, one record per line).
std::string SerializeFacts(const std::vector<FileFacts>& facts);

/// Parses a cache blob; returns facts keyed by path. Unknown or malformed
/// records are skipped (the caller falls back to re-extraction).
std::map<std::string, FileFacts> ParseFactsCache(const std::string& text);

// ---------------------------------------------------------------------------
// Driving
// ---------------------------------------------------------------------------

struct LintResult {
  std::vector<Finding> findings;  // stable order: path, then line
  int files_scanned = 0;

  int NewCount() const;        // findings not matched by the baseline
  int BaselinedCount() const;
};

struct LintOptions {
  /// Files/directories that build the symbol index (the whole program).
  /// Directories recurse into *.h / *.cc, skipping "build*" and dotted
  /// directories.
  std::vector<std::string> index_paths;
  /// Subset to report findings for. Empty means "everything indexed".
  std::vector<std::string> lint_paths;
  /// Index-cache file to load/save pass-1 facts ("" = no cache). Entries
  /// are keyed on each file's content hash, so a stale cache can only cost
  /// time, never correctness.
  std::string index_cache;
  /// Expand the lint set with headers reachable through the include graph
  /// (quoted includes resolved against the including file, then src/).
  /// Closes the header-hygiene blind spot: a header only ever included
  /// transitively still gets linted when its includer is.
  bool expand_includes = true;
};

/// Whole-program lint over the filesystem. When `callgraph_json` is
/// non-null it receives the call-graph dump (functions, edges,
/// parallel-reachability marks).
LintResult LintProgram(const LintOptions& options,
                       std::string* callgraph_json = nullptr);

/// Whole-program lint over in-memory sources (path, content) — the unit
/// the tests drive. Every source is both indexed and linted.
LintResult LintSources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    std::string* callgraph_json = nullptr);

/// Lints one in-memory file (lexical + same-file transitive analysis).
LintResult LintContent(const std::string& path, const std::string& content);

/// Lints files and directories; equivalent to LintProgram with
/// index == lint == paths and no cache.
LintResult LintPaths(const std::vector<std::string>& paths);

// ---------------------------------------------------------------------------
// Autofixer
// ---------------------------------------------------------------------------
//
// `mlint --fix` repairs the *mechanical* rules only: it inserts `(void)`
// casts for ignored-status, appends a reason stub to reasonless
// suppressions, and drops a sort-keys scaffold comment above
// unordered-iter emission sites. Parallel-region semantic rules
// (charge-in-parallel, rng-in-parallel, ledger-order, borrow-escape,
// naive-reduction, frozen-grain, nondet-random, raw-thread) are never
// auto-edited: their fixes change program semantics and need a human.

/// Rewrites `content` applying fixes for `findings` that belong to `path`.
/// Returns the fixed content; `*edits` receives the number of lines
/// changed. Idempotent: already-fixed sites are left alone.
std::string FixContent(const std::string& path, const std::string& content,
                       const std::vector<Finding>& findings, int* edits);

/// Unified-diff-style rendering of FixContent's changes for --fix
/// --dry-run.
std::string FixDiff(const std::string& path, const std::string& before,
                    const std::string& after);

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------
//
// The baseline file grandfathers known findings so the lint gate can be
// enabled before every legacy site is fixed. One entry per line:
//
//     <rule>|<path>|<trimmed source line>
//
// '#' starts a comment. Matching is by content, not line number, so
// unrelated edits do not invalidate entries; each entry absorbs at most one
// finding (duplicates need duplicate entries). The goal state — and the
// state this repo ships in — is an empty baseline.

/// Identity of a finding for baseline matching.
std::string FindingKey(const Finding& f);

/// Parses baseline text into a multiset of finding keys.
std::multimap<std::string, int> ParseBaseline(const std::string& text);

/// Marks findings present in the baseline; returns the number of stale
/// baseline entries (entries that matched nothing — candidates to delete).
int ApplyBaseline(const std::string& baseline_text, LintResult* result);

// ---------------------------------------------------------------------------
// Reporters
// ---------------------------------------------------------------------------

/// Human-readable report: one `path:line: [rule] message` per finding plus
/// a summary line. Transitive findings print a one-line `via` hint; the
/// full chain is `--why` / JSON territory.
std::string TextReport(const LintResult& result);

/// Machine-readable report. Schema (stable, checked by mlint_test):
///   {"mlint_version": 2,
///    "files_scanned": N,
///    "summary": {"total": N, "new": N, "baselined": N},
///    "findings": [{"rule": "...", "path": "...", "line": N,
///                  "message": "...", "snippet": "...",
///                  "baselined": false, "chain": ["...", ...]}, ...]}
std::string JsonReport(const LintResult& result);

/// GitHub Actions annotations: one `::error file=...,line=...::...` line
/// per new finding (what tools/mlint_changed.sh pipes onto PRs).
std::string GithubAnnotations(const LintResult& result);

/// The reachability chains for findings matching `spec` (a rule name, a
/// "path:line", or any substring of "rule|path:line"). Lexical findings
/// report themselves as single-step chains.
std::string WhyReport(const LintResult& result, const std::string& spec);

}  // namespace mlint
