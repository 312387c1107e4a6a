// Invariant checking.
//
// Simulator invariants are checked in all build types: a silently corrupt
// trace would invalidate every downstream experiment, and the checks are
// nowhere near the hot paths' cost.
//
//   * CHECK(cond, parts...)  — extra arguments are streamed into the
//     failure message, so call sites can report the offending values:
//     CHECK(at >= now, "schedule_at(", at, ") behind now=", now).  The
//     condition is tested inline; only a failure calls out of line.
//   * DCHECK(cond, parts...) — same, but compiled out under NDEBUG; for
//     audits too hot or too paranoid to carry in release runs.
//
// Failures throw CheckFailure (never abort): tests assert on them, and the
// bench drivers surface them as a failed experiment instead of a core dump.
#pragma once

#include <source_location>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace charisma::util {

/// Thrown when a simulator invariant is violated.
class CheckFailure : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

/// Streams every part into one string ("" for zero parts).
template <typename... Parts>
[[nodiscard]] std::string check_message(const Parts&... parts) {
  if constexpr (sizeof...(Parts) == 0) {
    return {};
  } else {
    std::ostringstream out;
    (out << ... << parts);
    return std::move(out).str();
  }
}

[[noreturn]] inline void check_fail(std::string_view kind,
                                    std::string_view expression,
                                    const std::string& message,
                                    std::source_location loc) {
  std::string what = std::string(loc.file_name()) + ":" +
                     std::to_string(loc.line()) + ": " + std::string(kind) +
                     "(" + std::string(expression) + ") failed";
  if (!message.empty()) {
    what += ": ";
    what += message;
  }
  throw CheckFailure(what);
}

}  // namespace detail

}  // namespace charisma::util

/// Always-on invariant audit.  Extra arguments are streamed into the message.
#define CHARISMA_CHECK(condition, ...)                                  \
  do {                                                                  \
    if (!(condition)) {                                                 \
      ::charisma::util::detail::check_fail(                             \
          "CHECK", #condition,                                          \
          ::charisma::util::detail::check_message(__VA_ARGS__),         \
          ::std::source_location::current());                           \
    }                                                                   \
  } while (false)

#if defined(NDEBUG) && !defined(CHARISMA_FORCE_DCHECKS)
#define CHARISMA_DCHECK_IS_ON 0
/// Debug-only audit: compiled out (arguments unevaluated) in release builds.
#define CHARISMA_DCHECK(condition, ...) \
  do {                                  \
  } while (false)
#else
#define CHARISMA_DCHECK_IS_ON 1
#define CHARISMA_DCHECK(condition, ...) CHARISMA_CHECK(condition, __VA_ARGS__)
#endif

// Short spellings, yielded if some other library claimed them first.
#ifndef CHECK
#define CHECK CHARISMA_CHECK
#endif
#ifndef DCHECK
#define DCHECK CHARISMA_DCHECK
#endif
