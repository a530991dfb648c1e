#pragma once
// Little-endian wire codec shared by the replay plane's two binary formats:
// VLTR traces (trace.cpp) and VLSS device snapshots (warm_restart.cpp).
// Writers append fixed-width integers and u32-length-prefixed strings; the
// Reader bounds-checks every read and throws std::invalid_argument with the
// format's own error prefix, so a corrupt file is rejected, never overrun.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace vl::replay::wire {

template <class T>
void put(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<char>(static_cast<std::uint64_t>(v) >> (8 * i)));
}

inline void put_str(std::string& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

class Reader {
 public:
  /// `what` prefixes every error ("trace", "warm-restart snapshot").
  Reader(const std::string& s, const char* what) : s_(s), what_(what) {}

  template <class T>
  T get() {
    need(sizeof(T), "truncated");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(s_[off_++]))
           << (8 * i);
    return static_cast<T>(v);
  }

  std::string str() {
    const auto n = get<std::uint32_t>();
    need(n, "truncated string");
    std::string v = s_.substr(off_, n);
    off_ += n;
    return v;
  }

  std::size_t remaining() const { return s_.size() - off_; }
  void skip(std::size_t n) {
    need(n, "truncated");
    off_ += n;
  }
  /// Throws unless every byte was consumed.
  void finish() const {
    if (off_ != s_.size()) fail("trailing bytes");
  }
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument(std::string(what_) + ": " + why);
  }

 private:
  void need(std::size_t n, const char* why) const {
    if (n > s_.size() - off_) fail(why);
  }

  const std::string& s_;
  const char* what_;
  std::size_t off_ = 0;
};

}  // namespace vl::replay::wire
