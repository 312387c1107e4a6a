// In-memory span recorder and a minimal JSON writer for the benchmark
// driver.
//
// A span is (name, start, end, parent) in host seconds since the tracer was
// built.  Spans nest by scope on the one thread that records them and stay
// in memory until the run ends; run.py turns them into per-layer self
// times.  Counters are named sums read at the same boundaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// The benchmark measures the host, so it reads the host clock.
using HostClock = std::chrono::steady_clock;  // NOLINT(charisma-wallclock)

[[nodiscard]] inline double seconds_between(HostClock::time_point from,
                                            HostClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Builds one JSON object.  Keys and string values are plain ASCII names
/// and hex digests; quotes and backslashes are escaped anyway.
class JsonObject {
 public:
  JsonObject& number(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& string(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  /// `json` must already be a serialized JSON value.
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

  [[nodiscard]] static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 at the root
  };

  /// Open for its lifetime; closes (stamps the end) on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      index_ = static_cast<int>(tracer_.spans_.size());
      tracer_.spans_.push_back(
          {std::move(name), tracer_.now_s(), 0.0, tracer_.open_});
      tracer_.open_ = index_;
    }
    ~Scope() {
      Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
      span.end_s = tracer_.now_s();
      tracer_.open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = 0;
  };

  [[nodiscard]] Scope span(std::string name) {
    return Scope(*this, std::move(name));
  }
  void add(const std::string& counter, double value) {
    counters_[counter] += value;
  }
  void set_max(const std::string& counter, double value) {
    double& slot = counters_[counter];
    if (value > slot) slot = value;
  }

  /// {"spans": [...], "counters": {...}} as two JSON values.
  [[nodiscard]] std::string spans_json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ", ";
      out += JsonObject()
                 .string("name", s.name)
                 .number("start", s.start_s)
                 .number("end", s.end_s)
                 .number("parent", s.parent)
                 .str();
    }
    return out + "]";
  }
  [[nodiscard]] std::string counters_json() const {
    JsonObject obj;
    for (const auto& [name, value] : counters_) obj.number(name, value);
    return obj.str();
  }

 private:
  [[nodiscard]] double now_s() const {
    return seconds_between(origin_, HostClock::now());
  }

  HostClock::time_point origin_ = HostClock::now();
  std::vector<Span> spans_;
  int open_ = -1;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
