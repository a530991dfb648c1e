#pragma once
// Strict text-to-value layer shared by every input grammar: the fault and
// churn clause lists, the trace CSV and the bench flag tables.
//
// The converters accept exactly one decimal spelling of a value. An empty
// field, a sign where none is allowed, trailing characters, overflow and
// values outside the caller's range all throw std::invalid_argument naming
// the field and the offending token, so no input is ever read as a
// silently different one.
//
// The clause grammar (validate-then-construct, after the sonic-swss
// tokenize/to_int idiom) is
//
//   CLAUSE[;CLAUSE...]           clauses trimmed of spaces/tabs, empty
//                                clauses skipped
//   HEAD[@WHEN][:ITEM[,ITEM...]] ITEM is KEY=VALUE (named) or VALUE
//                                (positional); no empty item, no empty or
//                                duplicate key
//
// and every error raised while reading a clause is reported as
//
//   <grammar>: clause '<clause>' at byte <offset>: <reason>

#include <cfloat>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace vl::parse {

/// Unsigned decimal in [0, max]: digits only.
std::uint64_t to_u64(std::string_view s, std::uint64_t max = UINT64_MAX,
                     std::string_view what = "value");
/// Signed decimal in [min, max]; a leading '-' is the only sign accepted.
int to_int(std::string_view s, int min, int max,
           std::string_view what = "value");
/// Finite decimal number in [min, max]; '-' is the only sign accepted.
double to_f64(std::string_view s, std::string_view what = "value",
              double min = -DBL_MAX, double max = DBL_MAX);

/// Split `s` at every `sep`; n separators always give n + 1 fields.
std::vector<std::string_view> split(std::string_view s, char sep);

struct Field {
  std::string key;  ///< Empty for a positional item.
  std::string value;
};

/// One tokenized `HEAD[@WHEN][:ITEMS]` clause.
struct Clause {
  std::string head;
  std::string when;         ///< Empty when the clause has no '@'.
  std::vector<Field> items;

  /// Throw std::invalid_argument unless every item is named by one of
  /// `keys`.
  void allow(const std::vector<std::string_view>& keys) const;
  /// Value of the named item `key`, or nullptr when absent.
  const std::string* find(std::string_view key) const;
  /// Typed value of the named item `key` (range as for the converters
  /// above), or `def` when absent.
  std::uint64_t u64(std::string_view key, std::uint64_t def,
                    std::uint64_t max = UINT64_MAX) const;
  int num(std::string_view key, int def, int min, int max) const;
  double f64(std::string_view key, double def) const;
};

/// Tokenize `text` and call `fn` on each clause in order. Any
/// std::invalid_argument raised by the tokenizer, a converter or `fn` is
/// rethrown with the grammar name, the clause and its byte offset.
void for_each_clause(std::string_view text, std::string_view grammar,
                     const std::function<void(const Clause&)>& fn);

}  // namespace vl::parse
