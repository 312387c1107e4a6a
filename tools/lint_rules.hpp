// CHARISMA-specific lint rules.
//
// The simulator's determinism contract (sim/engine.hpp) cannot be enforced
// by the type system: any wall-clock read, raw libc RNG, or iteration over a
// hash container in a result-producing path silently breaks the "same
// (seed, config) => same trace" guarantee that every bench depends on.  As
// the tree grows parallel execution paths (thread-pooled campaigns and sweep
// runners), a second hazard class appears:
// shared-mutable state smuggled into worker threads through lambda captures,
// pointer-valued ordering that varies with ASLR, and float folds whose value
// depends on thread interleaving.
//
// This engine scans source in multiple passes over one token-blanked buffer
// (comments and string-literal contents blanked): token rules, a
// brace/paren-aware scope and lambda-capture analysis, a pointer-ordering
// pass, a parallel-fold pass, an include-graph layering pass, and a
// suppression audit.  It is deliberately a heuristic, not a parser: the
// rules are tuned so the clean tree has zero findings and each hazard class
// is caught at its call site, with a NOLINT comment naming the charisma rule
// as the audited escape hatch.
//
// Rules:
//   charisma-wallclock      wall-clock reads (system_clock, time(), ...)
//   charisma-raw-random     rand()/srand()/std::random_device outside
//                           util/rng (the only sanctioned entropy source)
//   charisma-unordered-iter range-for over an unordered_map/unordered_set in
//                           an ordering-sensitive (analysis/report/export)
//                           file: hash order leaks into results
//   charisma-float-time     `float` anywhere in the simulator: simulated
//                           time and byte counts overflow a 24-bit mantissa
//   charisma-shared-capture a lambda passed to ThreadPool::submit,
//                           parallel_for, or a SweepRunner entry point
//                           captures a non-const local by reference (or uses
//                           a default [&] capture): shared-mutable state
//                           escaping into a parallel region
//   charisma-pointer-order  std::map/std::set keyed on a raw pointer, or
//                           std::sort over a vector of pointers: pointer
//                           order is allocation order and varies run to run
//   charisma-parallel-fold  floating-point accumulation (+=/-=) inside a
//                           parallel_for/submit body: the fold order depends
//                           on thread interleaving; use per-index slots,
//                           util::Summary, or analysis::fold_envelopes
//   charisma-layering       a quoted #include whose target module sits above
//                           (or beside) the including file's module in the
//                           layering DAG (see layer_rank_of)
//   charisma-trace-materialize  a whole-trace std::vector<Record>
//                           materialization buffer, or a full-vector
//                           .records() accessor call, outside the trace
//                           module's per-block buffers (or tests): the
//                           streaming pipeline's O(window) RSS guarantee
//                           dies the moment a consumer collects the record
//                           stream; push through trace::RecordSink instead
//   charisma-unknown-suppression  a suppression comment naming no known
//                           charisma rule (a stale escape hatch hides
//                           nothing but doubt)
//   charisma-unused-suppression   a suppression naming a known charisma rule
//                           on a line where that rule would not have fired
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace charisma::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Path-derived rule context.
struct FileClass {
  /// util/rng is the one place allowed to talk about raw entropy sources.
  bool rng_exempt = false;
  /// Analysis/report/export/postprocess code: iteration order becomes
  /// output order, so hash-container iteration is nondeterminism.
  bool ordering_sensitive = false;
  /// tests/lint/data fixtures are deliberately hazardous and only ever
  /// scanned by the golden tests; scan_source returns no findings for them.
  bool lint_fixture = false;
  /// The trace module (whose record vectors are per-block buffers: a node's
  /// unflushed records, one decoded block per merge cursor) plus tests,
  /// which build small fixture traces by hand: the only places allowed to
  /// hold a record vector.
  bool trace_reference = false;
  /// Module the file belongs to ("util", "cfs", ..., "bench", "tests");
  /// empty when the path carries no module (layering pass disabled).
  std::string module;
  /// The module's rank in the layering DAG; -1 when unknown.
  int layer_rank = -1;
};

/// Derives the rule context from a (repo-relative or absolute) path.
[[nodiscard]] FileClass classify_path(std::string_view path);

/// Rank of a module in the layering DAG, -1 for unknown modules.  An
/// include edge is legal only toward a strictly lower rank (or inside one
/// module).  The DAG, bottom-up — a refinement of
///   util <- {net,disk,sim} <- {ipsc,cfs,trace} <- {cache,workload}
///        <- {analysis,core} <- {bench,tools} <- {tests,examples}
/// with trace above cfs because trace records speak cfs ids:
///   util=0; net,disk,sim=1; ipsc=2; cfs=3; trace=4; cache,workload=5;
///   analysis=6; core=7; bench,tools=8; tests,examples=9.
[[nodiscard]] int layer_rank_of(std::string_view module);

/// Runs every rule over one translation unit's text.
[[nodiscard]] std::vector<Finding> scan_source(std::string_view file_label,
                                               std::string_view content,
                                               const FileClass& cls);

/// Scans root/{src,bench,tools,tests,examples} recursively (*.cpp, *.hpp)
/// in deterministic file order, skipping the tests/lint/data fixtures.
/// Throws std::runtime_error if none of those directories exists (wrong
/// root is a usage error, not a clean tree).
[[nodiscard]] std::vector<Finding> scan_tree(const std::string& root);

/// Names of all rules, for --list-rules and suppression validation.
[[nodiscard]] const std::vector<std::string>& known_rules();

/// "path:line: [rule] message" — one line, stable across runs (the gcc-ish
/// default output; editors parse the path:line: prefix).
[[nodiscard]] std::string format(const Finding& f);

/// The whole findings list as a JSON array of {file, line, rule, message}
/// objects, for downstream tooling (--format=json).
[[nodiscard]] std::string format_json(const std::vector<Finding>& findings);

}  // namespace charisma::lint
