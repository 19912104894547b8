// sp_lint — project-invariant static analysis for the social-puzzles tree.
//
// Grown from PR 1's single-purpose secret_lint into a rule-registry engine:
// each rule has an id, a severity and a scope, findings can be suppressed
// per-path through a baseline file, and output comes in human or JSON form.
// The rules mechanise four invariants CI used to enforce only by review:
//
//  secret hygiene (the paper's §V privacy argument):
//   noct-compare   — memcmp()/operator==/!= applied to a secret-named buffer
//                    (use crypto::ct_equal / SecretBytes::ct_equals instead)
//   weak-rng       — rand()/srand()/std::mt19937/std::random_device anywhere
//                    (all randomness must flow through crypto::Drbg)
//   missing-wipe   — a function-local `Bytes`/byte-array with a secret name
//                    in a function that never wipes before scope exit
//   secret-print   — printf/fprintf/std::cout/std::cerr lines mentioning a
//                    secret-named variable
//   todo-crypto    — TODO/FIXME markers inside crypto-bearing directories
//
//  lock discipline (the -Wthread-safety companion; see src/support/):
//   raw-mutex      — raw std lock primitives (std::mutex, std::shared_mutex,
//                    std::lock_guard, std::condition_variable, ...) outside
//                    src/support/ — use sp::Mutex / sp::SharedMutex and the
//                    RAII guards, which carry the capability annotations
//   bare-lock-call — .lock()/.unlock()/.try_lock() member calls outside
//                    src/support/ — scope an RAII guard instead
//   net-under-lock — Network/SP/DH traffic (network_. / sp_. / dh_.) while an
//                    exclusive sp::MutexLock is in scope, in session files —
//                    the serving core must not hold a small lock across a
//                    modeled network exchange. The registry SharedLock /
//                    UniqueLock protocol is exempt by design: refresh
//                    re-uploads under the registry writer lock on purpose.
//
//  fault boundary (DESIGN.md §10):
//   fault-scope    — FaultStream / FaultInjector named in code in a src/
//                    module file other than net/faults.* or a session file:
//                    only the session draws from the fault schedule, so the
//                    link model, the hosts and the WAL never see a fault type
//
//  metrics hygiene (docs/OBSERVABILITY.md contract):
//   secret-label   — a secret-named identifier inside the {{...}} label list
//                    of a metric registration call
//   secret-trace   — a metric registered with a non-literal name expression
//                    mentioning a secret-named identifier (metric names are
//                    code identifiers, never data)
//   metric-name    — registered names must be lowercase snake_case; counters
//                    end in _total, histograms in _ms or _bytes
//
// Escape hatch: append `// sp-lint: allow(<rule>)` (the historical
// `// secret-lint: allow(...)` spelling still works) to the offending line or
// the pure-comment line directly above it. Allows are greppable, so every
// suppression is an auditable decision. Path-level suppressions go in a
// baseline file (`--baseline <file>`): one `<rule> <path-substring>` pair per
// line, `*` as the rule wildcard, `#` starts a comment.
//
// Deliberately not libclang: a single-file, zero-dependency scanner that
// builds in milliseconds on the bare toolchain and is dumb enough to read.
// The price is token-level heuristics; the rules below document their own
// false-positive suppressions.
//
// Usage:
//   sp_lint [--json] [--baseline <file>] <dir-or-file>...
//   sp_lint --selftest <fixture-dir>
//   sp_lint --list-rules
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // path as given
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// ------------------------------------------------------------ rule registry

struct RuleInfo {
  const char* id;
  const char* severity;  // "error" | "warning" — either kind fails the scan
  const char* summary;
};

const std::vector<RuleInfo> kRuleTable = {
    {"noct-compare", "error", "memcmp or ==/!= on a secret-named buffer"},
    {"weak-rng", "error", "non-cryptographic randomness outside crypto::Drbg"},
    {"missing-wipe", "error", "secret-named local buffer never wiped"},
    {"secret-print", "error", "printing a secret-named variable"},
    {"todo-crypto", "warning", "TODO/FIXME in a crypto-bearing directory"},
    {"raw-mutex", "error", "raw std lock primitive outside src/support/"},
    {"bare-lock-call", "error", "bare .lock()/.unlock() call outside src/support/"},
    {"net-under-lock", "error", "network/SP/DH call while a MutexLock is in scope"},
    {"fault-scope", "error", "fault-schedule type outside net/faults.* and session files"},
    {"secret-label", "error", "secret-named identifier in a metric label list"},
    {"secret-trace", "error", "secret-named identifier in a non-literal metric name"},
    {"metric-name", "error", "metric name violates the catalog conventions"},
};

const RuleInfo& rule_info(const std::string& id) {
  for (const auto& r : kRuleTable) {
    if (id == r.id) return r;
  }
  static const RuleInfo kUnknown{"unknown", "error", "unknown rule"};
  return kUnknown;
}

bool known_rule(const std::string& id) {
  for (const auto& r : kRuleTable) {
    if (id == r.id) return true;
  }
  return false;
}

// Identifier fragments that mark a variable as secret-bearing. Matched
// case-insensitively inside identifiers (key, puzzle_key, answer_bytes, ...).
const std::vector<std::string> kSecretNames = {"key",    "tag", "share", "answer",
                                               "secret", "mac", "nonce", "seed"};

// Directories whose files hold cryptographic core code (todo-crypto scope).
const std::vector<std::string> kCryptoDirs = {"crypto", "field", "ec", "sig", "sss"};

// Raw standard lock primitives (raw-mutex). Matched as `std::<name>`.
const std::vector<std::string> kRawLockTypes = {
    "mutex",          "shared_mutex", "timed_mutex",        "recursive_mutex",
    "recursive_timed_mutex",          "shared_timed_mutex", "lock_guard",
    "unique_lock",    "shared_lock",  "scoped_lock",        "condition_variable",
    "condition_variable_any",
};

// Bare lock-call member tokens (bare-lock-call).
const std::vector<std::string> kBareLockCalls = {
    ".lock()", ".unlock()", ".lock_shared()", ".unlock_shared()",
    ".try_lock(", ".try_lock_shared(",
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// All identifiers on a line (tokens starting with alpha/_).
std::vector<std::string> identifiers(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (is_ident_start(line[i])) {
      std::size_t j = i;
      while (j < line.size() && is_ident_char(line[j])) ++j;
      out.push_back(line.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

// Identifiers that contain a secret fragment but name public protocol roles
// or metadata, never key material. Exact (lowercased) matches only.
const std::vector<std::string> kPublicIdents = {"sharer", "sharers"};

bool is_secret_name(const std::string& ident) {
  const std::string low = lower(ident);
  for (const auto& pub : kPublicIdents) {
    if (low == pub) return false;
  }
  for (const auto& frag : kSecretNames) {
    if (low.find(frag) != std::string::npos) return true;
  }
  return false;
}

bool line_has_secret_ident(const std::string& line) {
  for (const auto& id : identifiers(line)) {
    if (is_secret_name(id)) return true;
  }
  return false;
}

/// True when `needle` occurs at position `pos` as a whole word (not embedded
/// in a longer identifier, e.g. `rand(` inside `random_below(`).
bool word_at(const std::string& line, std::size_t pos, const std::string& needle) {
  if (pos > 0 && is_ident_char(line[pos - 1])) return false;
  const std::size_t end = pos + needle.size();
  if (end < line.size() && is_ident_char(line[end])) return false;
  return true;
}

bool contains_word(const std::string& line, const std::string& needle) {
  for (std::size_t pos = line.find(needle); pos != std::string::npos;
       pos = line.find(needle, pos + 1)) {
    if (word_at(line, pos, needle)) return true;
  }
  return false;
}

/// Position-preserving mask: comment text and string/char-literal contents
/// become spaces (the quote characters stay) so rule matching never fires on
/// prose, while column offsets still line up with the raw line — which is
/// what lets the metric-name rule pull the registered literal back out of the
/// raw text.
std::string mask_line(const std::string& line, bool& in_block_comment) {
  std::string out(line.size(), ' ');
  bool in_str = false, in_chr = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_block_comment) {
      if (c == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block_comment = false;
        ++i;
      }
      continue;
    }
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
        out[i] = '"';
      }
      continue;
    }
    if (in_chr) {
      if (c == '\\') {
        ++i;
      } else if (c == '\'') {
        in_chr = false;
      }
      continue;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block_comment = true;
      ++i;
      continue;
    }
    if (c == '"') {
      in_str = true;
      out[i] = '"';
      continue;
    }
    if (c == '\'') {
      // Digit separators (1'000) are not char literals.
      if (i > 0 && std::isdigit(static_cast<unsigned char>(line[i - 1])) && i + 1 < line.size() &&
          std::isdigit(static_cast<unsigned char>(line[i + 1]))) {
        out[i] = c;
        continue;
      }
      in_chr = true;
      continue;
    }
    out[i] = c;
  }
  return out;
}

/// `// sp-lint: allow(rule1, rule2)` parser; the historical `secret-lint:`
/// marker from PR 1 is accepted as an alias so old suppressions keep working.
std::set<std::string> parse_allows(const std::string& raw_line) {
  std::set<std::string> out;
  std::size_t at = raw_line.find("sp-lint:");
  if (at == std::string::npos) at = raw_line.find("secret-lint:");
  if (at == std::string::npos) return out;
  const std::size_t open = raw_line.find("allow(", at);
  if (open == std::string::npos) return out;
  const std::size_t close = raw_line.find(')', open);
  if (close == std::string::npos) return out;
  std::string inside = raw_line.substr(open + 6, close - open - 6);
  std::replace(inside.begin(), inside.end(), ',', ' ');
  std::istringstream ss(inside);
  std::string rule;
  while (ss >> rule) out.insert(rule);
  return out;
}

// --------------------------------------------------------------------------
// Scope tracking for missing-wipe: we need to know which lines belong to
// which function body, line-based. A scope opens at `{`; its kind is decided
// by the text before the brace on the opening line.
enum class ScopeKind { kNamespaceOrType, kFunction, kBlock };

struct SecretDecl {
  std::size_t line;
  std::string name;
  bool allowed;  // an allow(missing-wipe) covered the decl
};

struct FunctionScope {
  std::vector<SecretDecl> decls;
  bool has_wipe = false;
};

/// Heuristic classification of the code before a `{`.
ScopeKind classify_opener(const std::string& before, bool inside_function) {
  if (inside_function) return ScopeKind::kBlock;
  for (const char* kw : {"struct", "class", "enum", "union", "namespace"}) {
    if (contains_word(before, kw)) return ScopeKind::kNamespaceOrType;
  }
  // `) {`, `) const {`, `) noexcept {`, `) const -> T {`: a function body.
  // Initializer lists `= {` and plain `{` blocks are not.
  const std::size_t paren = before.rfind(')');
  if (paren != std::string::npos) {
    const std::string tail = before.substr(paren + 1);
    bool tail_ok = true;
    for (char c : tail) {
      if (c == '=' || c == ',' || c == ';') tail_ok = false;
    }
    if (tail_ok) return ScopeKind::kFunction;
  }
  return ScopeKind::kBlock;
}

/// Matches a function-local declaration of a raw secret buffer:
///   [static] [const] [crypto::|sp::crypto::] Bytes <name> ...
///   std::uint8_t <name>[...]   /   uint8_t <name>[...]
/// Returns the declared identifier when it looks secret-named.
std::optional<std::string> match_secret_decl(const std::string& code) {
  // Tokenise the start of the line.
  std::vector<std::string> toks;
  std::size_t i = 0;
  while (i < code.size() && toks.size() < 6) {
    if (std::isspace(static_cast<unsigned char>(code[i]))) {
      ++i;
      continue;
    }
    if (is_ident_char(code[i])) {
      std::size_t j = i;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      toks.push_back(code.substr(i, j - i));
      i = j;
    } else if (code[i] == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      i += 2;  // fold qualified names: crypto::Bytes -> [crypto][Bytes]
    } else {
      break;  // any other punctuation ends the declaration prefix
    }
  }
  // Drop qualifiers/namespaces to find "<Type> <name>".
  std::vector<std::string> core;
  for (const auto& t : toks) {
    if (t == "static" || t == "const" || t == "constexpr" || t == "sp" || t == "crypto" ||
        t == "std") {
      continue;
    }
    core.push_back(t);
  }
  if (core.size() < 2) return std::nullopt;
  const std::string& type = core[0];
  const std::string& name = core[1];
  const bool byte_buffer = type == "Bytes" || type == "uint8_t" || type == "string";
  if (!byte_buffer) return std::nullopt;
  // uint8_t scalars are not buffers — require an array suffix for them.
  if (type == "uint8_t") {
    const std::size_t name_pos = code.find(name);
    const std::size_t bracket = code.find('[', name_pos);
    if (bracket == std::string::npos) return std::nullopt;
  }
  if (!is_secret_name(name)) return std::nullopt;
  return name;
}

bool line_wipes(const std::string& code) {
  return code.find("secure_wipe") != std::string::npos ||
         code.find(".wipe(") != std::string::npos;
}

// --------------------------------------------------------------------------

bool in_crypto_dir(const fs::path& p) {
  for (const auto& part : p) {
    for (const auto& dir : kCryptoDirs) {
      if (part == dir) return true;
    }
  }
  return false;
}

/// src/support/ is where the raw primitives get wrapped — the lock-discipline
/// rules stay quiet there (and only there).
bool in_support_layer(const fs::path& p) {
  return p.generic_string().find("src/support") != std::string::npos;
}

/// net-under-lock is scoped to the serving orchestration layer: any file
/// whose name carries "session".
bool is_session_file(const fs::path& p) {
  return lower(p.filename().string()).find("session") != std::string::npos;
}

/// fault-scope covers the files of a src/ tree's modules (src/<module>/<file>),
/// except the fault layer itself (net/faults.*) and the session files that
/// draw from it. Matching the module layout, not any "src" ancestor, keeps a
/// checkout that happens to live under some ~/src/ from flagging its tests.
bool fault_scope_applies(const fs::path& p) {
  if (p.parent_path().parent_path().filename() != "src") return false;
  if (is_session_file(p)) return false;
  return !(p.parent_path().filename() == "net" && p.stem() == "faults");
}

/// Pulls the string literal starting at raw[pos] (raw[pos] == '"'); returns
/// the unescaped text and the index of the closing quote (or end of line).
std::pair<std::string, std::size_t> extract_literal(const std::string& raw, std::size_t pos) {
  std::string lit;
  std::size_t j = pos + 1;
  while (j < raw.size()) {
    if (raw[j] == '\\' && j + 1 < raw.size()) {
      lit.push_back(raw[j + 1]);
      j += 2;
      continue;
    }
    if (raw[j] == '"') break;
    lit.push_back(raw[j]);
    ++j;
  }
  return {lit, j};
}

/// Metric registration call tracked across lines (the name and label lists
/// may sit on continuation lines — pairing.cpp registers that way).
struct RegCall {
  enum class Kind { kCounter, kGauge, kHistogram } kind = Kind::kCounter;
  int depth = 0;               ///< unbalanced parens inside the call
  bool saw_first_arg = false;  ///< first non-space token after the '(' seen
  bool nonliteral_name = false;
};

const char* reg_kind_name(RegCall::Kind k) {
  switch (k) {
    case RegCall::Kind::kCounter:
      return "counter";
    case RegCall::Kind::kGauge:
      return "gauge";
    default:
      return "histogram";
  }
}

void scan_file(const fs::path& path, std::vector<Finding>& findings) {
  std::ifstream in(path);
  if (!in) {
    findings.push_back({path.string(), 0, "io-error", "cannot open file"});
    return;
  }
  std::vector<std::string> raw_lines;
  std::string line;
  while (std::getline(in, line)) raw_lines.push_back(line);

  const bool crypto_file = in_crypto_dir(path);
  const bool support_file = in_support_layer(path);
  const bool session_file = is_session_file(path);
  const bool fault_scoped = fault_scope_applies(path);

  // Scope stack for missing-wipe. Each entry: kind + (for functions) state.
  struct Scope {
    ScopeKind kind;
    std::size_t fn_index;  // index into fn_stack when kind == kFunction
  };
  std::vector<Scope> scopes;
  std::vector<FunctionScope> fn_stack;
  std::vector<std::pair<FunctionScope, std::size_t>> closed_fns;  // scope + close line

  bool in_block_comment = false;
  std::string pending;  // code carried across lines until a brace decision

  // net-under-lock state: brace depth plus the depths at which MutexLock
  // guards were declared (a guard dies when the walk leaves its brace level).
  int nul_depth = 0;
  std::vector<int> nul_lock_depths;

  // Metric registration call possibly spanning lines. A plain struct plus an
  // `active` flag (not std::optional): gcc -O2 trips a spurious
  // maybe-uninitialized warning on the optional under -Werror.
  RegCall reg_call;
  bool reg_active = false;

  auto current_fn = [&]() -> FunctionScope* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeKind::kFunction) return &fn_stack[it->fn_index];
    }
    return nullptr;
  };

  auto allowed_at = [&](std::size_t idx, const std::string& rule) {
    const auto here = parse_allows(raw_lines[idx]);
    if (here.count(rule)) return true;
    if (idx > 0) {
      const auto above = parse_allows(raw_lines[idx - 1]);
      // The line above only counts when it is a pure comment line.
      const std::string trimmed = raw_lines[idx - 1];
      const std::size_t first = trimmed.find_first_not_of(" \t");
      if (first != std::string::npos && trimmed.compare(first, 2, "//") == 0 &&
          above.count(rule)) {
        return true;
      }
    }
    return false;
  };

  auto report = [&](std::size_t idx, const std::string& rule, const std::string& msg) {
    if (allowed_at(idx, rule)) return;
    findings.push_back({path.string(), idx + 1, rule, msg});
  };

  auto check_metric_name = [&](std::size_t idx, const std::string& name, RegCall::Kind kind) {
    bool charset_ok = !name.empty() && name[0] >= 'a' && name[0] <= 'z';
    for (const char c : name) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) charset_ok = false;
    }
    if (!charset_ok) {
      report(idx, "metric-name",
             "metric name '" + name + "' must be lowercase snake_case ([a-z][a-z0-9_]*)");
      return;
    }
    auto ends_with = [&name](const char* suffix) {
      const std::string s(suffix);
      return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (kind == RegCall::Kind::kCounter && !ends_with("_total")) {
      report(idx, "metric-name", "counter '" + name + "' must end in _total");
    } else if (kind == RegCall::Kind::kHistogram && !ends_with("_ms") && !ends_with("_bytes")) {
      report(idx, "metric-name", "histogram '" + name + "' must end in _ms or _bytes");
    }
  };

  for (std::size_t idx = 0; idx < raw_lines.size(); ++idx) {
    const std::string& raw = raw_lines[idx];

    // todo-crypto looks at comments too, so it runs on the raw line.
    if (crypto_file) {
      if (raw.find("TODO") != std::string::npos || raw.find("FIXME") != std::string::npos) {
        report(idx, "todo-crypto", "TODO/FIXME in crypto-bearing file");
      }
    }

    const std::string code = mask_line(raw, in_block_comment);

    // ---- weak-rng ------------------------------------------------------
    if (contains_word(code, "rand") || contains_word(code, "srand") ||
        contains_word(code, "mt19937") || contains_word(code, "mt19937_64") ||
        contains_word(code, "random_device") || contains_word(code, "minstd_rand")) {
      // `rand` must be a call, not e.g. a struct member named rand.
      const bool call_like = code.find("rand()") != std::string::npos ||
                             code.find("rand ()") != std::string::npos ||
                             code.find("srand") != std::string::npos ||
                             code.find("mt19937") != std::string::npos ||
                             code.find("random_device") != std::string::npos ||
                             code.find("minstd_rand") != std::string::npos;
      if (call_like) {
        report(idx, "weak-rng", "non-cryptographic randomness; use crypto::Drbg");
      }
    }

    // ---- noct-compare --------------------------------------------------
    {
      const bool has_memcmp = contains_word(code, "memcmp");
      bool has_eq = false;
      for (std::size_t pos = 0; pos + 1 < code.size(); ++pos) {
        if ((code[pos] == '=' && code[pos + 1] == '=') ||
            (code[pos] == '!' && code[pos + 1] == '=')) {
          // Skip <=, >=, = =... handled: require char before not <>!=.
          if (code[pos] == '=' && pos > 0 &&
              (code[pos - 1] == '<' || code[pos - 1] == '>' || code[pos - 1] == '=' ||
               code[pos - 1] == '!')) {
            continue;
          }
          has_eq = true;
          break;
        }
      }
      if ((has_memcmp || has_eq) && line_has_secret_ident(code)) {
        // Size/shape checks, iterator comparisons, and declarations of
        // defaulted/deleted operators are not content comparisons.
        const bool size_check = code.find(".size()") != std::string::npos ||
                                code.find(".length()") != std::string::npos ||
                                code.find(".empty()") != std::string::npos ||
                                code.find(".begin()") != std::string::npos ||
                                code.find(".end()") != std::string::npos ||
                                code.find("nullptr") != std::string::npos ||
                                code.find("std::nullopt") != std::string::npos;
        const bool op_decl = code.find("operator==") != std::string::npos &&
                             (code.find("default") != std::string::npos ||
                              code.find("delete") != std::string::npos);
        if (!size_check && !op_decl) {
          if (has_memcmp) {
            report(idx, "noct-compare", "memcmp on secret-named buffer; use crypto::ct_equal");
          } else {
            report(idx, "noct-compare",
                   "==/!= on secret-named value; use crypto::ct_equal / ct_equals");
          }
        }
      }
    }

    // ---- secret-print --------------------------------------------------
    {
      const bool printy = contains_word(code, "printf") || contains_word(code, "fprintf") ||
                          contains_word(code, "cout") || contains_word(code, "cerr");
      if (printy && line_has_secret_ident(code)) {
        report(idx, "secret-print", "printing a secret-named variable");
      }
    }

    // ---- raw-mutex / bare-lock-call (outside src/support/) -------------
    if (!support_file) {
      bool raw_hit = false;
      for (const auto& prim : kRawLockTypes) {
        const std::string tok = "std::" + prim;
        // `std::` anchors the start; the primitive name must end at a word
        // boundary (std::mutex, not std::mutex_like).
        for (std::size_t pos = code.find(tok); pos != std::string::npos && !raw_hit;
             pos = code.find(tok, pos + 1)) {
          if (word_at(code, pos + 5, prim)) {
            report(idx, "raw-mutex",
                   "raw " + tok +
                       " outside src/support/; use sp::Mutex / sp::SharedMutex and "
                       "the RAII guards");
            raw_hit = true;  // one finding per line is enough
          }
        }
        if (raw_hit) break;
      }
      for (const auto& call : kBareLockCalls) {
        if (code.find(call) != std::string::npos) {
          report(idx, "bare-lock-call",
                 "bare " + call + "...) call outside src/support/; scope an RAII guard");
          break;
        }
      }
    }

    // ---- net-under-lock (session files only) ---------------------------
    if (session_file) {
      std::size_t i = 0;
      while (i < code.size()) {
        const char c = code[i];
        if (is_ident_start(c)) {
          std::size_t j = i;
          while (j < code.size() && is_ident_char(code[j])) ++j;
          const std::string ident = code.substr(i, j - i);
          if (ident == "MutexLock") {
            nul_lock_depths.push_back(nul_depth);
          } else if ((ident == "network_" || ident == "sp_" || ident == "dh_") &&
                     j < code.size() && code[j] == '.' && !nul_lock_depths.empty()) {
            report(idx, "net-under-lock",
                   "call through " + ident +
                       " while a MutexLock is in scope; drop the lock before "
                       "touching the network or a host");
          }
          i = j;
          continue;
        }
        if (c == '{') ++nul_depth;
        if (c == '}') {
          --nul_depth;
          while (!nul_lock_depths.empty() && nul_lock_depths.back() > nul_depth) {
            nul_lock_depths.pop_back();
          }
        }
        ++i;
      }
    }

    // ---- fault-scope (src/ module files outside the fault layer) -------
    if (fault_scoped &&
        (contains_word(code, "FaultStream") || contains_word(code, "FaultInjector"))) {
      report(idx, "fault-scope",
             "fault-schedule type outside net/faults.* and session files; draw in the "
             "session and pass the host a plain value");
    }

    // ---- metrics hygiene (secret-label / secret-trace / metric-name) ---
    {
      bool touched_call = reg_active;
      std::size_t pos = 0;
      while (pos < code.size()) {
        if (!reg_active) {
          std::size_t best = std::string::npos;
          RegCall::Kind best_kind = RegCall::Kind::kCounter;
          std::size_t best_len = 0;
          const std::pair<const char*, RegCall::Kind> reg_tokens[] = {
              {".counter(", RegCall::Kind::kCounter},
              {".gauge(", RegCall::Kind::kGauge},
              {".histogram(", RegCall::Kind::kHistogram},
          };
          for (const auto& [text, kind] : reg_tokens) {
            const std::size_t at = code.find(text, pos);
            if (at != std::string::npos && (best == std::string::npos || at < best)) {
              best = at;
              best_kind = kind;
              best_len = std::string(text).size();
            }
          }
          if (best == std::string::npos) break;
          reg_call = RegCall{best_kind, 1, false, false};
          reg_active = true;
          touched_call = true;
          pos = best + best_len;
          continue;
        }
        const char c = code[pos];
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
          ++pos;
          continue;
        }
        if (c == '"') {
          const auto [lit, endq] = extract_literal(raw, pos);
          if (!reg_call.saw_first_arg) {
            reg_call.saw_first_arg = true;
            check_metric_name(idx, lit, reg_call.kind);
          }
          pos = endq + 1;
          continue;
        }
        if (c == '(') {
          if (!reg_call.saw_first_arg) {
            reg_call.saw_first_arg = true;
            reg_call.nonliteral_name = true;
          }
          ++reg_call.depth;
          ++pos;
          continue;
        }
        if (c == ')') {
          if (--reg_call.depth == 0) reg_active = false;
          ++pos;
          continue;
        }
        if (is_ident_start(c)) {
          std::size_t j = pos;
          while (j < code.size() && is_ident_char(code[j])) ++j;
          const std::string ident = code.substr(pos, j - pos);
          if (!reg_call.saw_first_arg) {
            reg_call.saw_first_arg = true;
            reg_call.nonliteral_name = true;
          }
          if (reg_call.nonliteral_name && is_secret_name(ident)) {
            report(idx, "secret-trace",
                   std::string(reg_kind_name(reg_call.kind)) +
                       " registered with a non-literal name mentioning `" + ident +
                       "`; metric names are code identifiers, never data");
          }
          pos = j;
          continue;
        }
        if (!reg_call.saw_first_arg) {
          reg_call.saw_first_arg = true;
          reg_call.nonliteral_name = true;
        }
        ++pos;
      }
      const bool has_label_list = code.find("{{") != std::string::npos;
      if (touched_call && has_label_list && line_has_secret_ident(code)) {
        report(idx, "secret-label",
               "secret-named identifier in a metric label list; label values are "
               "enum-like code-path identifiers, never data");
      }
    }

    // ---- missing-wipe scope machinery ---------------------------------
    FunctionScope* fn = current_fn();
    if (fn != nullptr) {
      if (line_wipes(code)) fn->has_wipe = true;
      if (auto name = match_secret_decl(code)) {
        fn->decls.push_back({idx, *name, allowed_at(idx, "missing-wipe")});
      }
    }

    // Brace walking (after decl detection so `Type x{...};` still matches).
    pending.clear();
    for (char c : code) {
      if (c == '{') {
        const bool inside_fn = current_fn() != nullptr;
        const ScopeKind kind = classify_opener(pending, inside_fn);
        Scope s{kind, 0};
        if (kind == ScopeKind::kFunction) {
          fn_stack.emplace_back();
          s.fn_index = fn_stack.size() - 1;
        }
        scopes.push_back(s);
        pending.clear();
      } else if (c == '}') {
        if (!scopes.empty()) {
          const Scope s = scopes.back();
          scopes.pop_back();
          if (s.kind == ScopeKind::kFunction) {
            closed_fns.emplace_back(std::move(fn_stack[s.fn_index]), idx);
            fn_stack.pop_back();
          }
        }
        pending.clear();
      } else {
        pending.push_back(c);
      }
    }
  }
  // Any function never closed (unbalanced braces) is still checked.
  for (auto& f : fn_stack) closed_fns.emplace_back(std::move(f), raw_lines.size());

  for (const auto& [f, close_line] : closed_fns) {
    (void)close_line;
    if (f.has_wipe) continue;
    for (const auto& d : f.decls) {
      if (d.allowed) continue;
      findings.push_back({path.string(), d.line + 1, "missing-wipe",
                          "secret-named buffer `" + d.name +
                              "` is never wiped before scope exit; use SecretBytes or "
                              "secure_wipe"});
    }
  }
}

bool scannable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" || ext == ".cxx";
}

void collect(const fs::path& root, std::vector<fs::path>& files) {
  if (fs::is_regular_file(root)) {
    if (scannable(root)) files.push_back(root);
    return;
  }
  for (auto it = fs::recursive_directory_iterator(root); it != fs::recursive_directory_iterator();
       ++it) {
    // `fixtures` directories hold intentional rule violations for the
    // selftest; skip them so tools/ itself can be scanned clean.
    if (it->is_directory() && it->path().filename() == "fixtures") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && scannable(it->path())) files.push_back(it->path());
  }
}

// ----------------------------------------------------------------- baseline

/// One `<rule> <path-substring>` suppression. `*` matches every rule. Lines
/// starting with `#` (and blank lines) are comments.
struct BaselineEntry {
  std::string rule;
  std::string path_substr;
};

std::optional<std::vector<BaselineEntry>> load_baseline(const std::string& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::vector<BaselineEntry> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    BaselineEntry e;
    if (ss >> e.rule >> e.path_substr) out.push_back(e);
  }
  return out;
}

bool baselined(const Finding& f, const std::vector<BaselineEntry>& entries) {
  const std::string path = fs::path(f.file).generic_string();
  for (const auto& e : entries) {
    if ((e.rule == "*" || e.rule == f.rule) && path.find(e.path_substr) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------------- output

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_json(const std::vector<Finding>& findings, std::size_t files, std::size_t suppressed) {
  std::cout << "{\n  \"tool\": \"sp_lint\",\n  \"files\": " << files
            << ",\n  \"baselined\": " << suppressed << ",\n  \"findings\": [";
  bool first = true;
  for (const auto& f : findings) {
    std::cout << (first ? "\n" : ",\n");
    first = false;
    std::cout << "    {\"file\": \"" << json_escape(f.file) << "\", \"line\": " << f.line
              << ", \"rule\": \"" << f.rule << "\", \"severity\": \""
              << rule_info(f.rule).severity << "\", \"message\": \"" << json_escape(f.message)
              << "\"}";
  }
  std::cout << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
}

int run_scan(const std::vector<std::string>& roots, bool json,
             const std::optional<std::string>& baseline_file) {
  std::vector<BaselineEntry> baseline;
  if (baseline_file) {
    auto loaded = load_baseline(*baseline_file);
    if (!loaded) {
      std::cerr << "sp_lint: cannot read baseline: " << *baseline_file << "\n";
      return 2;
    }
    baseline = std::move(*loaded);
  }
  std::vector<fs::path> files;
  for (const auto& r : roots) {
    if (!fs::exists(r)) {
      std::cerr << "sp_lint: no such path: " << r << "\n";
      return 2;
    }
    collect(r, files);
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> all;
  for (const auto& f : files) scan_file(f, all);

  std::vector<Finding> findings;
  std::size_t suppressed = 0;
  for (auto& f : all) {
    if (baselined(f, baseline)) {
      ++suppressed;
    } else {
      findings.push_back(std::move(f));
    }
  }

  if (json) {
    print_json(findings, files.size(), suppressed);
  } else {
    for (const auto& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << rule_info(f.rule).severity << "] ["
                << f.rule << "] " << f.message << "\n";
    }
    std::cout << "sp_lint: " << files.size() << " files, " << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s");
    if (suppressed > 0) std::cout << " (" << suppressed << " baselined)";
    std::cout << "\n";
  }
  return findings.empty() ? 0 : 1;
}

/// Self-test: every fixture line annotated `// expect: <rule>` must produce
/// exactly that finding, and no unannotated finding may appear. Proves each
/// rule fires before we trust a clean scan of src/.
int run_selftest(const std::string& fixture_dir) {
  if (!fs::exists(fixture_dir)) {
    std::cerr << "sp_lint --selftest: no such dir: " << fixture_dir << "\n";
    return 2;
  }
  // The fixture tree is walked directly — the `fixtures` directory skip in
  // collect() must not apply to the selftest's own corpus.
  std::vector<fs::path> files;
  if (fs::is_regular_file(fixture_dir)) {
    if (scannable(fixture_dir)) files.push_back(fixture_dir);
  } else {
    for (auto it = fs::recursive_directory_iterator(fixture_dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && scannable(it->path())) files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "sp_lint --selftest: no fixtures found\n";
    return 2;
  }

  std::map<std::pair<std::string, std::size_t>, std::set<std::string>> expected;
  std::set<std::string> expected_rules;
  for (const auto& f : files) {
    std::ifstream in(f);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
      ++n;
      const std::size_t at = line.find("// expect:");
      if (at == std::string::npos) continue;
      std::string rules = line.substr(at + 10);
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::istringstream ss(rules);
      std::string rule;
      while (ss >> rule) {
        // Only known rule names count as expectations; prose after the
        // marker (or an unrelated comment containing it) is ignored.
        if (!known_rule(rule)) continue;
        expected[{f.string(), n}].insert(rule);
        expected_rules.insert(rule);
      }
    }
  }

  std::vector<Finding> findings;
  for (const auto& f : files) scan_file(f, findings);

  int failures = 0;
  std::map<std::pair<std::string, std::size_t>, std::set<std::string>> got;
  for (const auto& f : findings) got[{f.file, f.line}].insert(f.rule);

  for (const auto& [loc, rules] : expected) {
    for (const auto& rule : rules) {
      if (!got.count(loc) || !got.at(loc).count(rule)) {
        std::cout << "SELFTEST FAIL: expected [" << rule << "] at " << loc.first << ":"
                  << loc.second << " did not fire\n";
        ++failures;
      }
    }
  }
  for (const auto& [loc, rules] : got) {
    for (const auto& rule : rules) {
      if (!expected.count(loc) || !expected.at(loc).count(rule)) {
        std::cout << "SELFTEST FAIL: unexpected [" << rule << "] at " << loc.first << ":"
                  << loc.second << "\n";
        ++failures;
      }
    }
  }
  // Coverage: every rule must be exercised by at least one fixture.
  for (const auto& r : kRuleTable) {
    if (!expected_rules.count(r.id)) {
      std::cout << "SELFTEST FAIL: no fixture exercises rule [" << r.id << "]\n";
      ++failures;
    }
  }

  std::cout << "sp_lint selftest: " << expected.size() << " annotated sites, "
            << kRuleTable.size() << " rules, " << failures << " failure"
            << (failures == 1 ? "" : "s") << "\n";
  return failures == 0 ? 0 : 1;
}

int list_rules() {
  for (const auto& r : kRuleTable) {
    std::cout << r.id << "\t" << r.severity << "\t" << r.summary << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const char* usage =
      "usage: sp_lint [--json] [--baseline <file>] <dir-or-file>...\n"
      "       sp_lint --selftest <fixture-dir>\n"
      "       sp_lint --list-rules\n";
  if (args.empty()) {
    std::cerr << usage;
    return 2;
  }
  bool json = false;
  std::optional<std::string> baseline_file;
  std::vector<std::string> roots;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--selftest") {
      if (args.size() != i + 2) {
        std::cerr << "usage: sp_lint --selftest <fixture-dir>\n";
        return 2;
      }
      return run_selftest(args[i + 1]);
    }
    if (args[i] == "--list-rules") return list_rules();
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--baseline") {
      if (i + 1 >= args.size()) {
        std::cerr << usage;
        return 2;
      }
      baseline_file = args[++i];
    } else {
      roots.push_back(args[i]);
    }
  }
  if (roots.empty()) {
    std::cerr << usage;
    return 2;
  }
  return run_scan(roots, json, baseline_file);
}
