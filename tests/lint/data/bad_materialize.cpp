// Deliberately materializing input for the charisma-trace-materialize
// golden test.  Never compiled — only scanned as a src/analysis/ file, not
// a trace module one.  Line numbers are load-bearing: the golden file
// pins every finding to its line.
#include <vector>

#include "trace/record.hpp"

namespace charisma::analysis {

struct BadStore {
  std::vector<trace::Record> all;
};

inline std::vector<charisma::trace::Record> copy_out(const BadStore& s) {
  return s.all;
}

inline std::size_t count(const BadStore& s) {
  return s.records().size();
}

// NOLINTNEXTLINE(charisma-trace-materialize)
inline std::vector<trace::Record> audited(const BadStore& s) {
  return s.all;
}

}  // namespace charisma::analysis
