// A minimal --key=value command-line parser for the bench and example
// binaries (google-benchmark consumes its own flags; ours are removed from
// argv before handing over).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace charisma::util {

/// Parses all of `text` as a T: a base-10 integer, or a finite double.
/// nullopt on an empty value, any character std::from_chars leaves
/// unconsumed (a leading '+' or space, a trailing unit), overflow, or a
/// non-finite double.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

class Flags {
 public:
  /// Consumes `--key=value` (and bare `--key`, meaning "true") arguments
  /// matching one of the `known` names; everything else is left (in order)
  /// in remaining().
  Flags(int argc, char** argv, const std::vector<std::string>& known);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// Checked numeric reads: `fallback` when the flag is absent, nullopt when
  /// its value is not a number (see parse_number).  The CLIs report nullopt
  /// as a usage error.
  [[nodiscard]] std::optional<double> try_get_double(const std::string& key,
                                                     double fallback) const;
  [[nodiscard]] std::optional<std::int64_t> try_get_int(
      const std::string& key, std::int64_t fallback) const;
  /// Checked boolean read: `fallback` when the flag is absent, true for a
  /// bare --key and for true/1/yes, false for false/0/no, nullopt for any
  /// other value.
  [[nodiscard]] std::optional<bool> try_get_bool(const std::string& key,
                                                 bool fallback) const;
  /// As try_get_int, but a value that is not a number fails a CHECK.  Kept
  /// for the benchmark driver (perfbench/driver/main.cpp), whose flags come
  /// from its own harness, not from a user.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;

  /// argv entries not consumed by this parser (argv[0] first); the vector is
  /// usable as a replacement argv for benchmark::Initialize.
  [[nodiscard]] std::vector<char*>& remaining() { return remaining_; }
  [[nodiscard]] int remaining_argc() const {
    return static_cast<int>(remaining_.size());
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<char*> remaining_;
};

}  // namespace charisma::util
