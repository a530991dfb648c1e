#include "common/parse.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace vl::parse {

namespace {

[[noreturn]] void bad(std::string_view what, std::string_view s,
                      const std::string& why) {
  throw std::invalid_argument(std::string(what) + " '" + std::string(s) +
                              "': " + why);
}

/// from_chars over the whole of `s` into [min, max]; `kind` names the
/// expected syntax.
template <class T>
T convert(std::string_view s, std::string_view what, const char* kind, T min,
          T max) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec == std::errc::invalid_argument || p != end)
    bad(what, s, std::string("expected ") + kind);
  if (ec == std::errc::result_out_of_range || !(v >= min && v <= max)) {
    std::ostringstream range;
    range << "out of range [" << min << ", " << max << "]";
    bad(what, s, range.str());
  }
  return v;
}

Clause tokenize(std::string_view t) {
  Clause c;
  const std::size_t at = t.find('@');
  const std::size_t colon = t.find(':', at == t.npos ? 0 : at);
  c.head = t.substr(0, std::min(at, colon));
  if (at != t.npos)
    c.when = t.substr(at + 1, colon == t.npos ? colon : colon - at - 1);
  if (colon == t.npos) return c;
  for (std::string_view item : split(t.substr(colon + 1), ',')) {
    if (item.empty()) throw std::invalid_argument("empty item");
    const std::size_t eq = item.find('=');
    Field f;
    if (eq != item.npos) {
      f.key = item.substr(0, eq);
      if (f.key.empty()) throw std::invalid_argument("empty key");
      if (c.find(f.key))
        throw std::invalid_argument("duplicate key '" + f.key + "'");
    }
    f.value = item.substr(eq == item.npos ? 0 : eq + 1);
    c.items.push_back(std::move(f));
  }
  return c;
}

}  // namespace

std::uint64_t to_u64(std::string_view s, std::uint64_t max,
                     std::string_view what) {
  return convert<std::uint64_t>(s, what, "an unsigned integer", 0, max);
}

int to_int(std::string_view s, int min, int max, std::string_view what) {
  return convert<int>(s, what, "an integer", min, max);
}

double to_f64(std::string_view s, std::string_view what, double min,
              double max) {
  return convert<double>(s, what, "a number", min, max);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t p = 0;
  for (std::size_t q; (q = s.find(sep, p)) != s.npos; p = q + 1)
    out.push_back(s.substr(p, q - p));
  out.push_back(s.substr(p));
  return out;
}

void Clause::allow(const std::vector<std::string_view>& keys) const {
  for (const Field& f : items) {
    if (f.key.empty())
      throw std::invalid_argument("item '" + f.value + "' is not key=value");
    if (std::find(keys.begin(), keys.end(), f.key) == keys.end())
      throw std::invalid_argument("key '" + f.key + "' does not apply to " +
                                  head);
  }
}

const std::string* Clause::find(std::string_view key) const {
  for (const Field& f : items)
    if (f.key == key) return &f.value;
  return nullptr;
}

std::uint64_t Clause::u64(std::string_view key, std::uint64_t def,
                          std::uint64_t max) const {
  const std::string* v = find(key);
  return v ? to_u64(*v, max, key) : def;
}

int Clause::num(std::string_view key, int def, int min, int max) const {
  const std::string* v = find(key);
  return v ? to_int(*v, min, max, key) : def;
}

double Clause::f64(std::string_view key, double def) const {
  const std::string* v = find(key);
  return v ? to_f64(*v, key) : def;
}

void for_each_clause(std::string_view text, std::string_view grammar,
                     const std::function<void(const Clause&)>& fn) {
  for (std::string_view raw : split(text, ';')) {
    const std::size_t b = raw.find_first_not_of(" \t");
    if (b == raw.npos) continue;  // empty clause
    const std::string_view clause =
        raw.substr(b, raw.find_last_not_of(" \t") + 1 - b);
    const auto offset = static_cast<std::size_t>(clause.data() - text.data());
    try {
      fn(tokenize(clause));
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument(std::string(grammar) + ": clause '" +
                                  std::string(clause) + "' at byte " +
                                  std::to_string(offset) + ": " + ex.what());
    }
  }
}

}  // namespace vl::parse
