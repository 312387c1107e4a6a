#include "tools/lint_rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

namespace charisma::lint {

namespace {

constexpr std::string_view kWallClock = "charisma-wallclock";
constexpr std::string_view kRawRandom = "charisma-raw-random";
constexpr std::string_view kUnorderedIter = "charisma-unordered-iter";
constexpr std::string_view kFloatTime = "charisma-float-time";
constexpr std::string_view kSharedCapture = "charisma-shared-capture";
constexpr std::string_view kPointerOrder = "charisma-pointer-order";
constexpr std::string_view kParallelFold = "charisma-parallel-fold";
constexpr std::string_view kLayering = "charisma-layering";
constexpr std::string_view kTraceMaterialize = "charisma-trace-materialize";
constexpr std::string_view kUnknownSuppression = "charisma-unknown-suppression";
constexpr std::string_view kUnusedSuppression = "charisma-unused-suppression";

[[nodiscard]] bool ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool ws_char(char c) noexcept {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

/// Pre-pass product: `code` mirrors the input byte for byte but with every
/// comment and the *contents* of every string/char literal blanked to
/// spaces, so token rules cannot be fooled by text in either.  Comment text
/// is collected per line for NOLINT handling.
struct Stripped {
  std::string code;
  std::map<int, std::string> comments;  // line -> concatenated comment text
  std::vector<std::size_t> line_start;  // offset of each line's first byte
};

[[nodiscard]] Stripped strip(std::string_view in) {
  Stripped out;
  out.code.assign(in.size(), ' ');
  out.line_start.push_back(0);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  int line = 1;
  std::string raw_terminator;  // for R"delim( ... )delim"
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    if (c == '\n') {
      ++line;
      out.line_start.push_back(i + 1);
      out.code[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;  // swallow the second slash too
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !ident_char(in[i - 1]))) {
          // Raw string: scan the delimiter up to '('.
          std::size_t j = i + 2;
          std::string delim;
          while (j < in.size() && in[j] != '(' && in[j] != '\n') {
            delim += in[j++];
          }
          raw_terminator = ")" + delim + "\"";
          out.code[i] = 'R';
          state = State::kRawString;
          i = j;  // at '(' (blanked)
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kString;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
        out.comments[line] += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          ++i;
          state = State::kCode;
        } else {
          out.comments[line] += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          out.code[i] = '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          out.code[i] = '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          i += raw_terminator.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

[[nodiscard]] int line_of(const Stripped& s, std::size_t offset) {
  const auto it = std::upper_bound(s.line_start.begin(), s.line_start.end(),
                                   offset);
  return static_cast<int>(it - s.line_start.begin());
}

/// One suppression entry naming a known charisma rule, kept for the
/// unused-suppression audit: a suppression that matched no raw finding on
/// its target line is itself a finding.
struct NamedSuppression {
  int comment_line = 0;  // where the NOLINT comment sits (finding anchor)
  int target_line = 0;   // the line it suppresses (== comment_line or +1)
  std::string rule;
};

/// Per-line suppression sets parsed from NOLINT / NOLINTNEXTLINE comments.
struct Suppressions {
  std::map<int, std::set<std::string, std::less<>>> rules;  // empty set = all
  std::vector<Finding> unknown;           // stale charisma-* suppressions
  std::vector<NamedSuppression> audited;  // known charisma-* suppressions

  [[nodiscard]] bool covers(int line, std::string_view rule) const {
    const auto it = rules.find(line);
    if (it == rules.end()) return false;
    return it->second.empty() || it->second.count(rule) > 0;
  }
};

[[nodiscard]] Suppressions parse_suppressions(std::string_view file,
                                              const Stripped& s) {
  Suppressions out;
  for (const auto& [line, text] : s.comments) {
    std::size_t pos = 0;
    while ((pos = text.find("NOLINT", pos)) != std::string::npos) {
      std::size_t after = pos + 6;
      int target = line;
      if (text.compare(after, 8, "NEXTLINE") == 0) {
        after += 8;
        target = line + 1;
      }
      auto& set = out.rules[target];  // bare NOLINT: empty set = all rules
      if (after < text.size() && text[after] == '(') {
        const std::size_t close = text.find(')', after);
        std::stringstream list(
            text.substr(after + 1, close == std::string::npos
                                       ? std::string::npos
                                       : close - after - 1));
        std::string name;
        while (std::getline(list, name, ',')) {
          const auto b = name.find_first_not_of(" \t");
          const auto e = name.find_last_not_of(" \t");
          if (b == std::string::npos) continue;
          name = name.substr(b, e - b + 1);
          set.insert(name);
          if (name.rfind("charisma-", 0) != 0) continue;
          if (std::find(known_rules().begin(), known_rules().end(), name) ==
              known_rules().end()) {
            out.unknown.push_back(
                {std::string(file), line, std::string(kUnknownSuppression),
                 "suppression names unknown rule '" + name + "'"});
          } else if (name != kUnusedSuppression) {
            out.audited.push_back({line, target, name});
          }
        }
      }
      pos = after;
    }
  }
  return out;
}

/// True if `code[pos]` starts the whole identifier token `token`.
[[nodiscard]] bool token_at(std::string_view code, std::size_t pos,
                            std::string_view token) {
  if (pos > 0 && ident_char(code[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  if (end < code.size() && ident_char(code[end])) return false;
  return true;
}

/// Finds whole-token occurrences; if `call_only`, requires a '(' after
/// optional whitespace (so `time` the identifier is fine, `time(...)` the
/// call is flagged).
void find_tokens(const Stripped& s, std::string_view token, bool call_only,
                 std::vector<std::size_t>& hits) {
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find(token, pos)) != std::string_view::npos) {
    if (token_at(code, pos, token)) {
      std::size_t after = pos + token.size();
      while (after < code.size() && (code[after] == ' ' || code[after] == '\t'))
        ++after;
      if (!call_only || (after < code.size() && code[after] == '(')) {
        hits.push_back(pos);
      }
    }
    pos += token.size();
  }
}

[[nodiscard]] std::size_t skip_ws(std::string_view code, std::size_t pos) {
  while (pos < code.size() && ws_char(code[pos])) ++pos;
  return pos;
}

/// Advances past a balanced bracket group starting at `pos` (which must hold
/// the opening character).  Returns npos when the group never closes.
[[nodiscard]] std::size_t skip_balanced(std::string_view code, std::size_t pos,
                                        char open, char close) {
  int depth = 0;
  for (std::size_t j = pos; j < code.size(); ++j) {
    if (code[j] == open) ++depth;
    if (code[j] == close && --depth == 0) return j + 1;
  }
  return std::string_view::npos;
}

/// Collects names of variables declared with an unordered container type:
/// `std::unordered_map<...> name` (template args balanced across lines).
[[nodiscard]] std::set<std::string, std::less<>> unordered_variables(
    const Stripped& s) {
  std::set<std::string, std::less<>> names;
  const std::string_view code = s.code;
  for (const std::string_view type : {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"}) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += type.size();
      if (!token_at(code, start, type)) continue;
      // Balance template arguments.
      std::size_t j = skip_ws(code, pos);
      if (j >= code.size() || code[j] != '<') continue;
      j = skip_balanced(code, j, '<', '>');
      if (j == std::string_view::npos) continue;
      // Next identifier (skipping refs/pointers/whitespace) is the name —
      // unless the declaration is a function return type or a parameter,
      // which the following '(' / ',' / ')' shapes mostly distinguish; the
      // rule cares about named locals/members, the common leak.
      while (j < code.size() &&
             (ws_char(code[j]) || code[j] == '&' || code[j] == '*')) {
        ++j;
      }
      std::string name;
      while (j < code.size() && ident_char(code[j])) name += code[j++];
      if (!name.empty()) names.insert(name);
    }
  }
  return names;
}

/// Collects the names declared right after `keyword` ("const", "constexpr",
/// "double", ...): walks the declaration — nested-name qualifiers, balanced
/// template argument lists, refs/pointers — and records the last identifier
/// before the declarator terminator (`=`, `;`, `,`, `(`, `)`, `{`).  A
/// keyword occurrence inside a template argument list walks into the
/// enclosing `>` and is dropped, so `std::vector<double> xs` does not make
/// `xs` a double.  Heuristic and file-global: good enough for the capture
/// and fold rules, which only need "was this name ever declared so".
void declared_names_after(const Stripped& s, std::string_view keyword,
                          std::set<std::string, std::less<>>& names) {
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find(keyword, pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += keyword.size();
    if (!token_at(code, start, keyword)) continue;
    std::string last_ident;
    std::size_t j = pos;
    const std::size_t limit = std::min(code.size(), j + 400);
    bool ok = true;
    while (ok && j < limit) {
      j = skip_ws(code, j);
      if (j >= code.size()) break;
      const char c = code[j];
      if (ident_char(c)) {
        std::string ident;
        while (j < code.size() && ident_char(code[j])) ident += code[j++];
        last_ident = std::move(ident);
      } else if (c == ':' && j + 1 < code.size() && code[j + 1] == ':') {
        j += 2;
      } else if (c == '<') {
        j = skip_balanced(code, j, '<', '>');
        if (j == std::string_view::npos) ok = false;
      } else if (c == '&' || c == '*') {
        ++j;
      } else if (c == '=' || c == ';' || c == ',' || c == '(' || c == ')' ||
                 c == '{') {
        break;  // declarator terminator: last_ident is the name
      } else {
        ok = false;  // stray '>', '[', operators: not a declaration shape
      }
    }
    if (ok && j < limit && !last_ident.empty()) names.insert(last_ident);
  }
}

// ---- Lambda capture analysis ----------------------------------------------

struct CaptureEntry {
  std::string name;         // captured local; empty for default captures
  bool by_ref = false;      // & / &name / &name = expr
  bool is_default = false;  // the bare [&] or [=] entry
  bool init = false;        // init capture (name = expr)
  std::string init_expr;    // rhs of an init capture, trimmed
};

struct LambdaInfo {
  std::size_t intro = 0;       // offset of '['
  std::size_t after_intro = 0; // offset just past the closing ']'
  std::vector<CaptureEntry> captures;
  bool has_body = false;
  std::size_t body_open = 0;   // offset of '{' when has_body
  std::size_t body_close = 0;  // offset of matching '}' when has_body
};

[[nodiscard]] std::string trim(std::string_view sv) {
  const auto b = sv.find_first_not_of(" \t\n");
  const auto e = sv.find_last_not_of(" \t\n");
  if (b == std::string_view::npos) return {};
  return std::string(sv.substr(b, e - b + 1));
}

/// Parses a capture-list entry: "&", "=", "this", "*this", "&x", "x",
/// "&args...", "x = expr".
[[nodiscard]] std::optional<CaptureEntry> parse_capture_entry(
    std::string_view raw) {
  CaptureEntry cap;
  std::string text = trim(raw);
  if (text.empty()) return std::nullopt;
  if (text == "&" || text == "=") {
    cap.is_default = true;
    cap.by_ref = text == "&";
    return cap;
  }
  if (text == "this" || text == "*this") return std::nullopt;
  if (text.front() == '&') {
    cap.by_ref = true;
    text = trim(std::string_view(text).substr(1));
  }
  const std::size_t eq = text.find('=');
  if (eq != std::string::npos) {
    cap.init = true;
    cap.init_expr = trim(std::string_view(text).substr(eq + 1));
    text = trim(std::string_view(text).substr(0, eq));
  }
  while (!text.empty() && (text.back() == '.' || ws_char(text.back()))) {
    text.pop_back();  // strip pack expansion dots: &args...
  }
  cap.name = std::move(text);
  if (cap.name.empty()) return std::nullopt;
  return cap;
}

/// Tries to parse a lambda expression whose capture intro starts at `pos`
/// (code[pos] == '[').  Rejects subscripts (previous non-space char is an
/// identifier, ']' or ')') and attributes ([[...]]).  The body is optional:
/// a capture list followed by something that never reaches '{' (e.g. a
/// declaration) still yields the captures.
[[nodiscard]] std::optional<LambdaInfo> parse_lambda(std::string_view code,
                                                     std::size_t pos) {
  if (pos >= code.size() || code[pos] != '[') return std::nullopt;
  if (pos + 1 < code.size() && code[pos + 1] == '[') return std::nullopt;
  std::size_t before = pos;
  while (before > 0 && ws_char(code[before - 1])) --before;
  if (before > 0) {
    const char p = code[before - 1];
    if (ident_char(p) || p == ']' || p == ')' || p == '[') return std::nullopt;
  }
  LambdaInfo info;
  info.intro = pos;
  // Split the capture list on top-level commas, balancing nested brackets
  // (init-capture expressions can hold templates and calls).
  std::size_t j = pos + 1;
  std::size_t entry_start = j;
  int angle = 0, paren = 0, brace = 0, square = 0;
  std::vector<std::string_view> entries;
  for (; j < code.size(); ++j) {
    const char c = code[j];
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++square;
    if (c == ']') {
      if (square == 0) break;
      --square;
    }
    if (c == ',' && angle == 0 && paren == 0 && brace == 0 && square == 0) {
      entries.push_back(code.substr(entry_start, j - entry_start));
      entry_start = j + 1;
    }
  }
  if (j >= code.size()) return std::nullopt;  // unterminated: not a lambda
  entries.push_back(code.substr(entry_start, j - entry_start));
  info.after_intro = j + 1;
  for (const auto& e : entries) {
    if (auto cap = parse_capture_entry(e)) info.captures.push_back(*cap);
  }
  // Optional parameter list, specifiers, trailing return type, then body.
  std::size_t k = skip_ws(code, info.after_intro);
  if (k < code.size() && code[k] == '(') {
    k = skip_balanced(code, k, '(', ')');
    if (k == std::string_view::npos) return info;
  }
  for (int guard = 0; guard < 8; ++guard) {
    k = skip_ws(code, k);
    if (k >= code.size()) return info;
    if (code[k] == '{') {
      const std::size_t end = skip_balanced(code, k, '{', '}');
      if (end == std::string_view::npos) return info;
      info.has_body = true;
      info.body_open = k;
      info.body_close = end - 1;
      return info;
    }
    if (ident_char(code[k])) {
      // mutable / noexcept / constexpr; noexcept may carry an argument.
      while (k < code.size() && ident_char(code[k])) ++k;
      const std::size_t p = skip_ws(code, k);
      if (p < code.size() && code[p] == '(') {
        k = skip_balanced(code, p, '(', ')');
        if (k == std::string_view::npos) return info;
      }
    } else if (code[k] == '-' && k + 1 < code.size() && code[k + 1] == '>') {
      // Trailing return type: scan to the body brace at top level.
      k += 2;
      while (k < code.size() && code[k] != '{' && code[k] != ';') {
        if (code[k] == '<') {
          k = skip_balanced(code, k, '<', '>');
          if (k == std::string_view::npos) return info;
        } else if (code[k] == '(') {
          k = skip_balanced(code, k, '(', ')');
          if (k == std::string_view::npos) return info;
        } else {
          ++k;
        }
      }
    } else {
      return info;
    }
  }
  return info;
}

/// Named lambdas (`auto name = [...](...) {...}`), so a later
/// `parallel_for(pool, n, name)` can be traced back to its captures.
struct NamedLambda {
  int decl_line = 0;
  std::vector<CaptureEntry> captures;
};

[[nodiscard]] std::map<std::string, NamedLambda, std::less<>>
named_lambdas(const Stripped& s) {
  std::map<std::string, NamedLambda, std::less<>> out;
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find("auto", pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += 4;
    if (!token_at(code, start, "auto")) continue;
    std::size_t j = skip_ws(code, pos);
    std::string name;
    while (j < code.size() && ident_char(code[j])) name += code[j++];
    if (name.empty()) continue;
    j = skip_ws(code, j);
    if (j >= code.size() || code[j] != '=') continue;
    j = skip_ws(code, j + 1);
    if (j >= code.size() || code[j] != '[') continue;
    if (const auto lambda = parse_lambda(code, j)) {
      out[name] = {line_of(s, j), lambda->captures};
    }
  }
  return out;
}

/// The calls whose callable arguments run on pool worker threads.  `submit`
/// is only a sink through a pool-ish receiver (`pool.submit`, bare `submit`
/// inside ThreadPool itself) so `disk_->submit(...)` — a simulated-disk
/// request, not a task — stays out of scope.
struct SinkCall {
  std::size_t token_pos = 0;
  std::size_t open = 0;   // offset of '('
  std::size_t close = 0;  // offset of matching ')'
  std::string_view name;
  bool takes_body = false;  // submit/parallel_for/for_each run the callable
};

[[nodiscard]] std::vector<SinkCall> find_sink_calls(const Stripped& s) {
  struct Sink {
    std::string_view token;
    bool pool_receiver_only;
    bool takes_body;
  };
  static constexpr Sink kSinks[] = {
      {"submit", true, true},      {"parallel_for", false, true},
      {"for_each", false, true},   {"run_compute", false, false},
      {"run_io", false, false},
  };
  const std::string_view code = s.code;
  std::vector<SinkCall> out;
  for (const Sink& sink : kSinks) {
    std::size_t pos = 0;
    while ((pos = code.find(sink.token, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += sink.token.size();
      if (!token_at(code, start, sink.token)) continue;
      const std::size_t open = skip_ws(code, pos);
      if (open >= code.size() || code[open] != '(') continue;
      if (sink.pool_receiver_only) {
        // Walk back over the member-access operator to the receiver name.
        std::size_t b = start;
        while (b > 0 && ws_char(code[b - 1])) --b;
        if (b >= 2 && code[b - 1] == '>' && code[b - 2] == '-') {
          b -= 2;
        } else if (b >= 1 && code[b - 1] == '.') {
          b -= 1;
        } else {
          b = std::string_view::npos;  // bare call: ThreadPool's own code
        }
        if (b != std::string_view::npos) {
          std::size_t e = b;
          while (e > 0 && ident_char(code[e - 1])) --e;
          std::string recv(code.substr(e, b - e));
          std::transform(recv.begin(), recv.end(), recv.begin(),
                         [](unsigned char c) { return std::tolower(c); });
          if (recv.find("pool") == std::string::npos) continue;
        }
      }
      const std::size_t after = skip_balanced(code, open, '(', ')');
      if (after == std::string_view::npos) continue;
      out.push_back({start, open, after - 1, sink.token, sink.takes_body});
    }
  }
  return out;
}

/// Pass: lambdas (inline or named) reaching a parallel sink with
/// by-reference captures of non-const locals, plus order-sensitive float
/// folds inside the submitted bodies.
void scan_parallel_captures(std::string_view file, const Stripped& s,
                            std::vector<Finding>& out) {
  const std::string_view code = s.code;
  const std::vector<SinkCall> sinks = find_sink_calls(s);
  if (sinks.empty()) return;

  std::set<std::string, std::less<>> const_names;
  declared_names_after(s, "const", const_names);
  declared_names_after(s, "constexpr", const_names);
  // std::atomic<T> locals are race-free by construction; capturing one by
  // reference is the sanctioned way to count across workers.
  declared_names_after(s, "atomic", const_names);
  std::set<std::string, std::less<>> float_names;
  declared_names_after(s, "double", float_names);
  declared_names_after(s, "float", float_names);
  const auto named = named_lambdas(s);

  const auto flag_captures = [&](const std::vector<CaptureEntry>& captures,
                                 int line, const std::string& context) {
    for (const CaptureEntry& cap : captures) {
      if (!cap.by_ref) continue;
      if (cap.is_default) {
        out.push_back({std::string(file), line, std::string(kSharedCapture),
                       "default by-reference capture [&] in a lambda " +
                           context +
                           ": captures escape into worker threads; capture "
                           "explicitly (const or by value), or justify with "
                           "NOLINT(charisma-shared-capture)"});
        continue;
      }
      if (cap.init && !cap.init_expr.empty() &&
          const_names.count(cap.init_expr) > 0) {
        continue;  // &alias = some_const_local
      }
      if (const_names.count(cap.name) > 0) continue;
      out.push_back({std::string(file), line, std::string(kSharedCapture),
                     "lambda " + context + " captures non-const local '" +
                         cap.name +
                         "' by reference: shared-mutable state in a parallel "
                         "region; capture by value, make it const, or "
                         "justify with NOLINT(charisma-shared-capture)"});
    }
  };

  // Compound assignment to a float-typed name inside a body that runs on
  // worker threads: the fold order follows the thread schedule.
  const auto flag_folds = [&](const LambdaInfo& lambda,
                              std::string_view sink_name) {
    if (!lambda.has_body) return;
    for (std::size_t k = lambda.body_open + 1; k + 1 < lambda.body_close;
         ++k) {
      if (code[k + 1] != '=' || (code[k] != '+' && code[k] != '-')) continue;
      if (k > 0 && (code[k - 1] == '+' || code[k - 1] == '-' ||
                    code[k - 1] == '<' || code[k - 1] == '>')) {
        continue;
      }
      // Walk back over the assigned lvalue: optional subscript, then the
      // identifier (plus one member-access hop for things like env.mean).
      std::size_t b = k;
      while (b > lambda.body_open && ws_char(code[b - 1])) --b;
      if (b > lambda.body_open && code[b - 1] == ']') {
        int depth = 0;
        while (b > lambda.body_open) {
          --b;
          if (code[b] == ']') ++depth;
          if (code[b] == '[' && --depth == 0) break;
        }
      }
      std::vector<std::string> lhs_names;
      while (true) {
        std::size_t e = b;
        while (e > lambda.body_open && ident_char(code[e - 1])) --e;
        if (e == b) break;
        lhs_names.emplace_back(code.substr(e, b - e));
        if (e >= 2 && code[e - 1] == '.' ) {
          b = e - 1;
        } else if (e >= 3 && code[e - 1] == '>' && code[e - 2] == '-') {
          b = e - 2;
        } else {
          break;
        }
      }
      for (const std::string& name : lhs_names) {
        if (float_names.count(name) == 0) continue;
        out.push_back(
            {std::string(file), line_of(s, k), std::string(kParallelFold),
             "floating-point accumulation into '" + name + "' inside a '" +
                 std::string(sink_name) +
                 "' body: the fold order follows the thread schedule; "
                 "write per-index slots and reduce serially, or use "
                 "util::Summary / analysis::fold_envelopes"});
        break;
      }
    }
  };

  for (const SinkCall& sink : sinks) {
    // Inline lambdas anywhere in the argument range (nested ones run on the
    // worker too, so a linear scan is the right scope).
    for (std::size_t j = sink.open + 1; j < sink.close; ++j) {
      if (code[j] != '[') continue;
      const auto lambda = parse_lambda(code, j);
      if (!lambda) continue;
      flag_captures(lambda->captures, line_of(s, j),
                    "passed to '" + std::string(sink.name) + "'");
      if (sink.takes_body) flag_folds(*lambda, sink.name);
      j = lambda->after_intro - 1;  // keep scanning the body for nested ones
    }
    // Named lambdas passed as top-level arguments.
    for (const auto& [name, info] : named) {
      std::size_t j = sink.open + 1;
      while ((j = code.find(name, j)) != std::string_view::npos &&
             j < sink.close) {
        const std::size_t hit = j;
        j += name.size();
        if (!token_at(code, hit, name)) continue;
        if (hit > 0 && (code[hit - 1] == '.' ||
                        (hit > 1 && code[hit - 1] == '>' &&
                         code[hit - 2] == '-'))) {
          continue;  // member access, not our local lambda
        }
        const std::size_t after = skip_ws(code, hit + name.size());
        if (after < code.size() && code[after] == '(') continue;  // a call
        int depth = 0;  // must sit at the sink call's own argument level
        for (std::size_t p = sink.open; p < hit; ++p) {
          if (code[p] == '(' || code[p] == '[' || code[p] == '{') ++depth;
          if (code[p] == ')' || code[p] == ']' || code[p] == '}') --depth;
        }
        if (depth != 1) continue;
        flag_captures(info.captures, line_of(s, sink.token_pos),
                      "'" + name + "' (declared line " +
                          std::to_string(info.decl_line) + ") passed to '" +
                          std::string(sink.name) + "'");
      }
    }
  }
}

// ---- Pointer-keyed ordering -----------------------------------------------

/// The first top-level template argument after `pos` (which must hold '<'),
/// trimmed; empty when the list never closes.
[[nodiscard]] std::string first_template_arg(std::string_view code,
                                             std::size_t pos) {
  int angle = 0, paren = 0;
  const std::size_t start = pos + 1;
  for (std::size_t j = pos; j < code.size(); ++j) {
    const char c = code[j];
    if (c == '<') ++angle;
    if (c == '>' && --angle == 0) return trim(code.substr(start, j - start));
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == ',' && angle == 1 && paren == 0) {
      return trim(code.substr(start, j - start));
    }
  }
  return {};
}

/// Pass: ordered containers keyed on raw pointers, and sorts over vectors of
/// pointers.  Pointer comparison order is allocation order — it varies with
/// ASLR and malloc history, so it must never decide result order.
void scan_pointer_order(std::string_view file, const Stripped& s,
                        std::vector<Finding>& out) {
  const std::string_view code = s.code;
  for (const std::string_view type : {"map", "multimap", "set", "multiset"}) {
    std::size_t pos = 0;
    while ((pos = code.find(type, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += type.size();
      if (!token_at(code, start, type)) continue;
      const std::size_t open = skip_ws(code, pos);
      if (open >= code.size() || code[open] != '<') continue;
      const std::string key = first_template_arg(code, open);
      if (key.empty() || key.back() != '*') continue;
      out.push_back(
          {std::string(file), line_of(s, start), std::string(kPointerOrder),
           "std::" + std::string(type) + " keyed on raw pointer '" + key +
               "': iteration order is allocation order and varies across "
               "runs; key on a stable id or use an unordered container "
               "without iterating it"});
    }
  }

  // Vectors of pointers that get sorted by pointer value.
  std::set<std::string, std::less<>> pointer_vectors;
  std::size_t pos = 0;
  while ((pos = code.find("vector", pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += 6;
    if (!token_at(code, start, "vector")) continue;
    const std::size_t open = skip_ws(code, pos);
    if (open >= code.size() || code[open] != '<') continue;
    const std::string elem = first_template_arg(code, open);
    if (elem.empty() || elem.back() != '*') continue;
    std::size_t j = skip_balanced(code, open, '<', '>');
    if (j == std::string_view::npos) continue;
    while (j < code.size() &&
           (ws_char(code[j]) || code[j] == '&' || code[j] == '*')) {
      ++j;
    }
    std::string name;
    while (j < code.size() && ident_char(code[j])) name += code[j++];
    if (!name.empty()) pointer_vectors.insert(name);
  }
  if (pointer_vectors.empty()) return;
  for (const std::string_view fn : {"sort", "stable_sort"}) {
    pos = 0;
    while ((pos = code.find(fn, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += fn.size();
      if (!token_at(code, start, fn)) continue;
      const std::size_t open = skip_ws(code, pos);
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t after = skip_balanced(code, open, '(', ')');
      if (after == std::string_view::npos) continue;
      const std::string_view args = code.substr(open, after - open);
      for (const auto& name : pointer_vectors) {
        std::size_t hit = 0;
        bool found = false;
        while ((hit = args.find(name, hit)) != std::string_view::npos) {
          if (token_at(args, hit, name)) {
            found = true;
            break;
          }
          hit += name.size();
        }
        if (!found) continue;
        out.push_back(
            {std::string(file), line_of(s, start), std::string(kPointerOrder),
             "sort over pointer vector '" + name +
                 "' orders by address: allocation order leaks into results; "
                 "sort by a stable key instead"});
        break;
      }
    }
  }
}

// ---- Include-graph layering -----------------------------------------------

/// Pass: quoted includes must point strictly down the layering DAG (or stay
/// inside the module).  Lateral edges between same-rank modules are also
/// back-edges: they tangle the module DAG just the same.
void scan_layering(std::string_view file, std::string_view raw,
                   const Stripped& s, const FileClass& cls,
                   std::vector<Finding>& out) {
  if (cls.layer_rank < 0) return;
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find("#include", pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += 8;
    // Only at the start of a line (after whitespace).
    const int line = line_of(s, start);
    const std::size_t bol = s.line_start[static_cast<std::size_t>(line) - 1];
    bool at_bol = true;
    for (std::size_t j = bol; j < start; ++j) {
      if (!ws_char(code[j])) {
        at_bol = false;
        break;
      }
    }
    if (!at_bol) continue;
    const std::size_t quote = skip_ws(code, pos);
    if (quote >= code.size() || code[quote] != '"') continue;
    const std::size_t close = code.find('"', quote + 1);
    if (close == std::string_view::npos) continue;
    // The path bytes live in the raw text (strip blanks literal contents).
    const std::string path(raw.substr(quote + 1, close - quote - 1));
    const std::size_t slash = path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = path.substr(0, slash);
    const int target_rank = layer_rank_of(target);
    if (target_rank < 0 || target == cls.module) continue;
    if (target_rank < cls.layer_rank) continue;
    const bool lateral = target_rank == cls.layer_rank;
    out.push_back(
        {std::string(file), line, std::string(kLayering),
         std::string(lateral ? "lateral" : "back-edge") + " include '" + path +
             "': module '" + cls.module + "' (rank " +
             std::to_string(cls.layer_rank) + ") must not depend on '" +
             target + "' (rank " + std::to_string(target_rank) +
             "); the layering DAG is util <- net/disk/sim <- ipsc <- cfs <- "
             "trace <- cache/workload <- analysis <- core <- bench/tools <- "
             "tests/examples"});
  }
}

/// Flags range-for statements whose sequence expression ends in a variable
/// declared as an unordered container in this file.
void scan_unordered_iteration(std::string_view file, const Stripped& s,
                              const std::set<std::string, std::less<>>& vars,
                              std::vector<Finding>& out) {
  if (vars.empty()) return;
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find("for", pos)) != std::string_view::npos) {
    const std::size_t kw = pos;
    pos += 3;
    if (!token_at(code, kw, "for")) continue;
    std::size_t j = skip_ws(code, pos);
    if (j >= code.size() || code[j] != '(') continue;
    // Balance the parens and find the top-level ':' of a range-for.
    int depth = 0;
    std::size_t colon = std::string_view::npos;
    std::size_t close = std::string_view::npos;
    for (std::size_t k = j; k < code.size(); ++k) {
      const char c = code[k];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0 && c == ')') {
          close = k;
          break;
        }
      }
      if (c == ':' && depth == 1 && colon == std::string_view::npos &&
          (k == 0 || code[k - 1] != ':') &&
          (k + 1 >= code.size() || code[k + 1] != ':')) {
        colon = k;
      }
    }
    if (colon == std::string_view::npos || close == std::string_view::npos)
      continue;
    // Last identifier of the sequence expression; a trailing call like
    // `b.sessions()` hides the container behind a function and is exempt.
    std::size_t e = close;
    while (e > colon && !ident_char(code[e - 1])) {
      if (code[e - 1] == ')') {
        e = colon;  // expression ends in a call — bail out
        break;
      }
      --e;
    }
    std::size_t b = e;
    while (b > colon && ident_char(code[b - 1])) --b;
    if (b == e) continue;
    const std::string_view name = code.substr(b, e - b);
    if (vars.count(name) == 0) continue;
    out.push_back({std::string(file), line_of(s, kw),
                   std::string(kUnorderedIter),
                   "iteration over unordered container '" +
                       std::string(name) +
                       "' in an ordering-sensitive path: hash order leaks "
                       "into results; use std::map/std::set or sort first"});
  }
}

// ---- Whole-trace materialization -------------------------------------------

/// Guards the streaming pipeline's O(window) RSS contract (stream_study.hpp):
/// outside the trace module (whose record vectors are per-block buffers: a
/// node's unflushed records, one decoded block per merge cursor), nothing
/// may collect the record stream into a whole-trace vector or pull one
/// through a full-vector accessor.  Two shapes:
///   - a `std::vector<Record>` / `std::vector<trace::Record>` type mention
///     (declaration, member, parameter, or return type — any of them is a
///     container sized by the trace, not the window);
///   - a no-argument member call `.records()` / `->records()`, the accessor
///     shape that hands out such a vector.
void scan_trace_materialize(std::string_view file, const Stripped& s,
                            std::vector<Finding>& out) {
  const std::string_view code = s.code;
  std::size_t pos = 0;
  while ((pos = code.find("vector", pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += 6;
    if (!token_at(code, start, "vector")) continue;
    std::size_t j = skip_ws(code, pos);
    if (j >= code.size() || code[j] != '<') continue;
    const std::size_t end = skip_balanced(code, j, '<', '>');
    if (end == std::string_view::npos) continue;
    std::string inner;
    for (std::size_t k = j + 1; k + 1 < end; ++k) {
      if (!ws_char(code[k])) inner += code[k];
    }
    if (inner != "Record" && inner != "trace::Record" &&
        inner != "charisma::trace::Record") {
      continue;
    }
    out.push_back(
        {std::string(file), line_of(s, start), std::string(kTraceMaterialize),
         "whole-trace std::vector<Record> materialization: this buffer "
         "scales with the trace, not the merge window; consume the stream "
         "through a trace::RecordSink"});
  }
  pos = 0;
  while ((pos = code.find("records", pos)) != std::string_view::npos) {
    const std::size_t start = pos;
    pos += 7;
    if (!token_at(code, start, "records")) continue;
    std::size_t b = start;
    while (b > 0 && ws_char(code[b - 1])) --b;
    const bool member =
        (b > 0 && code[b - 1] == '.') ||
        (b > 1 && code[b - 2] == '-' && code[b - 1] == '>');
    if (!member) continue;
    std::size_t j = skip_ws(code, pos);
    if (j >= code.size() || code[j] != '(') continue;
    j = skip_ws(code, j + 1);
    if (j >= code.size() || code[j] != ')') continue;
    out.push_back(
        {std::string(file), line_of(s, start), std::string(kTraceMaterialize),
         "full-vector records() accessor: pulling the whole record vector "
         "defeats the streaming pipeline's bounded-memory contract; push "
         "records through a trace::RecordSink instead"});
  }
}

void push_token_findings(std::string_view file, const Stripped& s,
                         std::string_view token, bool call_only,
                         std::string_view rule, const std::string& message,
                         std::vector<Finding>& out) {
  std::vector<std::size_t> hits;
  find_tokens(s, token, call_only, hits);
  for (const std::size_t h : hits) {
    out.push_back({std::string(file), line_of(s, h), std::string(rule),
                   message});
  }
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> rules = {
      std::string(kWallClock),         std::string(kRawRandom),
      std::string(kUnorderedIter),     std::string(kFloatTime),
      std::string(kSharedCapture),     std::string(kPointerOrder),
      std::string(kParallelFold),      std::string(kLayering),
      std::string(kTraceMaterialize),
      std::string(kUnknownSuppression), std::string(kUnusedSuppression),
  };
  return rules;
}

int layer_rank_of(std::string_view module) {
  struct Layer {
    std::string_view module;
    int rank;
  };
  static constexpr Layer kLayers[] = {
      {"util", 0},     {"net", 1},      {"disk", 1},    {"sim", 1},
      {"ipsc", 2},     {"cfs", 3},      {"trace", 4},   {"cache", 5},
      {"workload", 5}, {"analysis", 6}, {"core", 7},    {"bench", 8},
      {"tools", 8},    {"tests", 9},    {"examples", 9},
  };
  for (const Layer& l : kLayers) {
    if (l.module == module) return l.rank;
  }
  return -1;
}

FileClass classify_path(std::string_view path) {
  FileClass cls;
  std::string p(path);
  std::replace(p.begin(), p.end(), '\\', '/');
  cls.rng_exempt = p.find("util/rng") != std::string::npos;
  cls.ordering_sensitive = p.find("/analysis/") != std::string::npos ||
                           p.find("report") != std::string::npos ||
                           p.find("export") != std::string::npos ||
                           p.find("postprocess") != std::string::npos;
  // Deliberately malformed golden inputs (lint rule fixtures, chwl replay
  // fixtures) are exempt from every rule: their badness is the test.
  cls.lint_fixture = p.find("tests/lint/data") != std::string::npos ||
                     p.find("tests/workload/data") != std::string::npos;
  cls.trace_reference = p.find("/trace/") != std::string::npos ||
                        p.rfind("trace/", 0) == 0 ||
                        p.find("tests/") != std::string::npos;
  // Module: the directory after src/, or the top-level tree for
  // bench/tools/tests/examples.  Handles absolute paths by searching for
  // the component, so labels and filesystem paths classify identically.
  const auto component_after = [&p](std::string_view comp) -> std::string {
    const std::string needle = std::string(comp) + "/";
    std::size_t at = p.find(needle);
    while (at != std::string::npos) {
      if (at == 0 || p[at - 1] == '/') {
        const std::size_t from = at + needle.size();
        const std::size_t end = p.find('/', from);
        if (end != std::string::npos) return p.substr(from, end - from);
        return {};
      }
      at = p.find(needle, at + 1);
    }
    return {};
  };
  const std::string src_module = component_after("src");
  if (!src_module.empty() && layer_rank_of(src_module) >= 0) {
    cls.module = src_module;
  } else {
    for (const std::string_view top : {"bench", "tools", "tests",
                                       "examples"}) {
      const std::string needle = std::string(top) + "/";
      const std::size_t at = p.rfind(needle, 0) == 0
                                 ? 0
                                 : p.find("/" + needle);
      if (at != std::string::npos) {
        cls.module = std::string(top);
        break;
      }
    }
  }
  cls.layer_rank = cls.module.empty() ? -1 : layer_rank_of(cls.module);
  return cls;
}

std::vector<Finding> scan_source(std::string_view file_label,
                                 std::string_view content,
                                 const FileClass& cls) {
  if (cls.lint_fixture) return {};
  const Stripped s = strip(content);
  const Suppressions suppressed = parse_suppressions(file_label, s);

  std::vector<Finding> raw;
  // Wall-clock reads: any of these makes a run depend on the host's clock.
  for (const std::string_view t :
       {"system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime", "localtime", "gmtime"}) {
    push_token_findings(
        file_label, s, t, /*call_only=*/false, kWallClock,
        "wall-clock source '" + std::string(t) +
            "': simulated time must come from sim::Engine::now()",
        raw);
  }
  push_token_findings(file_label, s, "time", /*call_only=*/true, kWallClock,
                      "wall-clock call 'time()': simulated time must come "
                      "from sim::Engine::now()",
                      raw);

  // Raw entropy: only util/rng may touch it; everything else forks an Rng.
  if (!cls.rng_exempt) {
    for (const std::string_view t : {"rand", "srand", "rand_r", "drand48"}) {
      push_token_findings(file_label, s, t, /*call_only=*/true, kRawRandom,
                          "raw RNG '" + std::string(t) +
                              "()': draw from util::Rng so the (seed, "
                              "config) pair determines the trace",
                          raw);
    }
    push_token_findings(file_label, s, "random_device", /*call_only=*/false,
                        kRawRandom,
                        "std::random_device is a nondeterministic seed "
                        "source; seed util::Rng explicitly",
                        raw);
  }

  // float: simulated time (int64 microseconds) and byte counts exceed a
  // 24-bit mantissa; double is allowed, float never is.
  push_token_findings(file_label, s, "float", /*call_only=*/false, kFloatTime,
                      "'float' cannot represent simulated time or byte "
                      "counts exactly; use integer MicroSec or double",
                      raw);

  if (cls.ordering_sensitive) {
    scan_unordered_iteration(file_label, s, unordered_variables(s), raw);
  }

  scan_parallel_captures(file_label, s, raw);
  scan_pointer_order(file_label, s, raw);
  scan_layering(file_label, content, s, cls, raw);
  if (!cls.trace_reference) scan_trace_materialize(file_label, s, raw);

  std::vector<Finding> out;
  for (auto& f : raw) {
    if (!suppressed.covers(f.line, f.rule)) out.push_back(std::move(f));
  }
  for (const auto& f : suppressed.unknown) out.push_back(f);
  // The suppression audit runs against the *raw* findings: a NOLINT naming
  // a known charisma rule must sit on a line where that rule actually fired
  // — anything else is a stale escape hatch rotting in place.
  for (const auto& entry : suppressed.audited) {
    const bool used = std::any_of(
        raw.begin(), raw.end(), [&entry](const Finding& f) {
          return f.line == entry.target_line && f.rule == entry.rule;
        });
    if (used) continue;
    out.push_back({std::string(file_label), entry.comment_line,
                   std::string(kUnusedSuppression),
                   "suppression '" + entry.rule + "' on line " +
                       std::to_string(entry.target_line) +
                       " suppresses nothing (the rule does not fire there); "
                       "remove the stale NOLINT"});
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::vector<Finding> scan_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  bool any_dir = false;
  for (const char* sub : {"src", "bench", "tools", "tests", "examples"}) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::is_directory(dir)) continue;
    any_dir = true;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
    }
  }
  if (!any_dir) {
    throw std::runtime_error(
        "no src/, bench/, tools/, tests/, or examples/ under '" + root +
        "' — pass the repository root");
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> out;
  for (const auto& path : files) {
    const std::string label = fs::relative(path, root).generic_string();
    const FileClass cls = classify_path(label);
    if (cls.lint_fixture) continue;  // deliberately hazardous golden inputs
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    auto findings = scan_source(label, content, cls);
    out.insert(out.end(), findings.begin(), findings.end());
  }
  return out;
}

std::string format(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

namespace {

[[nodiscard]] std::string json_escape(std::string_view in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           json_escape(f.rule) + "\", \"message\": \"" +
           json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace charisma::lint
