#pragma once
// Shared helpers for the bench binaries, and the one flag table every
// bench CLI parses its argv with.
//
// Flag-table contract: a binary declares each flag once, as a row
// flag(name, destination, help). The destination's type selects the
// syntax, and its value before parsing is the default --help shows:
//
//   bool*                  --flag          switch, takes no value
//   std::string*           --flag VALUE
//   std::uint64_t*         --flag N        unsigned decimal
//   int*, min              --flag N        int in [min, INT_MAX]
//   std::vector<int>*, min --flag N,N,...  non-empty list of ints >= min
//   Spec*, Spec::parse     --flag SPEC     a grammar value (--faults ...)
//
// parse_flags() exits 2 with a message naming the offending token on an
// unknown flag or stray argument, a repeated flag, a missing value (a
// trailing flag, or one followed by another `--flag`), and an ill-typed,
// out-of-range or malformed value. --help/-h prints usage generated from
// the same table to stdout and exits 0, before the binary runs anything
// or writes any file.

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "squeue/factory.hpp"

namespace vl::bench {

struct Flag {
  const char* name;
  const char* help;
  const char* metavar;  ///< nullptr for a switch.
  std::string def;      ///< Default as --help shows it ("" = none).
  std::function<void(const std::string&)> set;
};
using FlagTable = std::vector<Flag>;

inline Flag flag(const char* name, bool* v, const char* help) {
  return {name, help, nullptr, "", [v](const std::string&) { *v = true; }};
}
inline Flag flag(const char* name, std::string* v, const char* help) {
  return {name, help, "VALUE", *v, [v](const std::string& s) { *v = s; }};
}
inline Flag flag(const char* name, std::uint64_t* v, const char* help) {
  return {name, help, "N", std::to_string(*v), [=](const std::string& s) {
            *v = parse::to_u64(s, UINT64_MAX, name);
          }};
}
inline Flag flag(const char* name, int* v, int min, const char* help) {
  return {name, help, "N", std::to_string(*v), [=](const std::string& s) {
            *v = parse::to_int(s, min, INT_MAX, name);
          }};
}
inline Flag flag(const char* name, std::vector<int>* v, int min,
                 const char* help) {
  std::string def;
  for (int x : *v) def += (def.empty() ? "" : ",") + std::to_string(x);
  return {name, help, "N,N,..", def, [=](const std::string& s) {
            const std::string what = std::string(name) + " '" + s + "' item";
            v->clear();
            for (std::string_view item : parse::split(s, ','))
              v->push_back(parse::to_int(item, min, INT_MAX, what));
          }};
}
template <class Spec>
Flag flag(const char* name, Spec* v, Spec (*parse_fn)(const std::string&),
          const char* help) {
  return {name, help, "SPEC", "",
          [=](const std::string& s) { *v = parse_fn(s); }};
}

/// Usage text generated from `table`.
inline std::string usage(const char* prog, const FlagTable& table) {
  std::string out = std::string("usage: ") + prog + " [options]\n";
  for (const Flag& f : table) {
    std::string arg = f.name;
    if (f.metavar) arg += std::string(" ") + f.metavar;
    arg.resize(std::max<std::size_t>(arg.size() + 1, 24), ' ');
    out += "  " + arg + f.help +
           (f.def.empty() ? "" : " (default " + f.def + ")") + "\n";
  }
  return out + "  -h, --help              this text, then exit\n";
}

/// Parse argv against `table`: exit 0 after printing usage for --help/-h,
/// exit 2 naming the offending token on a bad argv.
inline void parse_flags(int argc, const char* const* argv,
                        const FlagTable& table) {
  std::vector<bool> seen(table.size(), false);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        std::fputs(usage(argv[0], table).c_str(), stdout);
        std::exit(0);
      }
      std::size_t k = 0;
      while (k < table.size() && a != table[k].name) ++k;
      if (k == table.size()) {
        const char* what =
            a.rfind('-', 0) == 0 ? "unknown flag" : "unexpected argument";
        throw std::invalid_argument(std::string(what) + " '" + a + "'");
      }
      if (seen[k]) throw std::invalid_argument("duplicate flag '" + a + "'");
      seen[k] = true;
      const bool takes_value = table[k].metavar != nullptr;
      if (takes_value && (i + 1 == argc ||
                          std::string_view(argv[i + 1]).substr(0, 2) == "--"))
        throw std::invalid_argument("flag '" + a + "' needs a value");
      table[k].set(takes_value ? argv[++i] : "");
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s (--help lists the flags)\n", argv[0],
                 e.what());
    std::exit(2);
  }
}

/// For a mode that reads only some of a binary's flags: the first argv
/// flag `ignored` accepts, printed as "PROG: MODE ignores FLAG" — the caller
/// then exits 2. Call after parse_flags(), which guarantees that every argv
/// token starting with "--" is a flag name (no value starts with "--").
inline bool reject_ignored(int argc, const char* const* argv,
                           const char* mode,
                           const std::function<bool(std::string_view)>&
                               ignored) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.substr(0, 2) == "--" && a != mode && ignored(a)) {
      std::fprintf(stderr, "%s: %s ignores %s\n", argv[0], mode, argv[i]);
      return true;
    }
  }
  return false;
}

/// Prints "unsupported combination: WHY" unless `why` is empty, and
/// returns whether it printed — the caller then exits 2.
inline bool reject_unsupported(const std::string& why) {
  if (!why.empty())
    std::fprintf(stderr, "unsupported combination: %s\n", why.c_str());
  return !why.empty();
}

/// `a` is one of `names`.
inline bool one_of(std::string_view a,
                   std::initializer_list<std::string_view> names) {
  return std::find(names.begin(), names.end(), a) != names.end();
}

inline constexpr char kScaleHelp[] = "multiply the default problem size";

/// Backends named by `--backend` ("all" = every backend); empty when the
/// name is unknown.
inline std::vector<squeue::Backend> parse_backends(const std::string& s) {
  using squeue::Backend;
  const std::pair<const char*, Backend> names[] = {
      {"blfq", Backend::kBlfq},       {"zmq", Backend::kZmq},
      {"vl", Backend::kVl},           {"vlideal", Backend::kVlIdeal},
      {"caf", Backend::kCaf}};
  std::vector<Backend> out;
  for (const auto& [name, b] : names)
    if (s == "all" || s == name || (s == "vl-ideal" && b == Backend::kVlIdeal))
      out.push_back(b);
  return out;
}

inline void print_header(const char* fig, const char* what) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", fig, what);
  std::printf("=============================================================\n");
}

}  // namespace vl::bench
