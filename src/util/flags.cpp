#include "util/flags.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace charisma::util {

Flags::Flags(int argc, char** argv, const std::vector<std::string>& known) {
  if (argc > 0) remaining_.push_back(argv[0]);
  const auto is_known = [&known](const std::string& key) {
    return std::find(known.begin(), known.end(), key) != known.end();
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      const std::string key =
          eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
      if (is_known(key)) {
        // Only --key=value and bare --key (boolean) forms: a separated
        // "--key value" form would be ambiguous with boolean flags.
        values_[key] = eq != std::string::npos ? arg.substr(eq + 1) : "true";
        continue;
      }
    }
    remaining_.push_back(argv[i]);
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::optional<double> Flags::try_get_double(const std::string& key,
                                            double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_number<double>(it->second);
}

std::optional<std::int64_t> Flags::try_get_int(const std::string& key,
                                               std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback
                             : parse_number<std::int64_t>(it->second);
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const std::optional<std::int64_t> value = try_get_int(key, fallback);
  CHECK(value.has_value(), "--", key, "=", get(key, ""),
        " is not an integer");
  return *value;
}

std::optional<bool> Flags::try_get_bool(const std::string& key,
                                        bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return std::nullopt;
}

}  // namespace charisma::util
