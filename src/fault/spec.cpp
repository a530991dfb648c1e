#include "fault/spec.hpp"

#include <algorithm>
#include <climits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "common/parse.hpp"
#include "common/rng.hpp"

namespace vl::fault {

namespace {

/// Each kind's grammar name and key set, in summary() rendering order.
struct KindInfo {
  FaultKind kind;
  const char* name;
  std::vector<std::string_view> keys;
};
const KindInfo kKinds[] = {
    {FaultKind::kLinkSpike, "spike", {"extra", "src", "dst"}},
    {FaultKind::kPartition, "partition", {"src", "dst"}},
    {FaultKind::kDeviceStall, "stall", {"shard"}},
    {FaultKind::kChanLoss, "loss", {"every", "shard"}},
    {FaultKind::kChanDup, "dup", {"every", "shard"}},
    {FaultKind::kFlashCrowd, "flash", {"factor", "class", "shard"}},
};

const KindInfo* kind_info(FaultKind k) {
  for (const KindInfo& i : kKinds)
    if (i.kind == k) return &i;
  return nullptr;
}

/// summary() rendering of one key; "" when it holds the omitted default.
std::string field(const FaultEvent& e, std::string_view key) {
  if (key == "extra") return std::to_string(e.extra);
  if (key == "every") return std::to_string(e.every);
  if (key == "factor") {
    std::ostringstream f;
    f << e.factor;
    return f.str();
  }
  const int v = key == "src"   ? e.src
                : key == "dst" ? e.dst
                : key == "shard" ? e.shard
                                 : e.cls;
  return v >= 0 ? std::to_string(v) : "";
}

}  // namespace

const char* to_string(FaultKind k) {
  const KindInfo* i = kind_info(k);
  return i ? i->name : "?";
}

bool FaultSpec::has(FaultKind k) const {
  for (const auto& e : events)
    if (e.kind == k) return true;
  return false;
}

Tick FaultSpec::end_tick() const {
  Tick end = 0;
  for (const auto& e : events) end = std::max(end, e.start + e.duration);
  return end;
}

std::string FaultSpec::summary() const {
  std::string out;
  for (const FaultEvent& e : events) {
    if (!out.empty()) out += ';';
    out += std::string(to_string(e.kind)) + "@" + std::to_string(e.start) +
           "+" + std::to_string(e.duration);
    char sep = ':';
    for (std::string_view key : kind_info(e.kind)->keys) {
      const std::string v = field(e, key);
      if (v.empty()) continue;
      out += sep + std::string(key) + "=" + v;
      sep = ',';
    }
  }
  return out;
}

namespace {

constexpr std::uint64_t kMaxRandCount = 1 << 16;

/// `rand:SEED[,COUNT[,HORIZON]]`, expanded in place.
void read_rand(const parse::Clause& c, FaultSpec& spec) {
  if (!c.when.empty()) throw std::invalid_argument("rand takes no '@' window");
  if (c.items.empty() || c.items.size() > 3)
    throw std::invalid_argument("rand takes SEED[,COUNT[,HORIZON]]");
  const char* names[3] = {"seed", "count", "horizon"};
  std::uint64_t args[3] = {0, 8, 200000};
  for (std::size_t i = 0; i < c.items.size(); ++i) {
    if (!c.items[i].key.empty())
      throw std::invalid_argument("rand takes positional values only");
    args[i] = parse::to_u64(c.items[i].value,
                            i == 1 ? kMaxRandCount : UINT64_MAX, names[i]);
  }
  const FaultSpec r =
      FaultSpec::random(args[0], static_cast<int>(args[1]), args[2]);
  spec.events.insert(spec.events.end(), r.events.begin(), r.events.end());
}

FaultEvent read_event(const parse::Clause& c) {
  const KindInfo* kind = nullptr;
  for (const KindInfo& i : kKinds)
    if (c.head == i.name) kind = &i;
  if (!kind) throw std::invalid_argument("unknown fault kind '" + c.head + "'");
  c.allow(kind->keys);
  FaultEvent e;
  e.kind = kind->kind;
  if (c.when.empty()) throw std::invalid_argument("missing '@START+DURATION'");
  const auto window = parse::split(c.when, '+');
  if (window.size() != 2)
    throw std::invalid_argument("window must be START+DURATION");
  e.start = parse::to_u64(window[0], UINT64_MAX, "start");
  e.duration = parse::to_u64(window[1], UINT64_MAX - e.start, "duration");
  if (e.duration < 1) throw std::invalid_argument("duration must be >= 1");
  e.src = c.num("src", -1, 0, INT_MAX);
  e.dst = c.num("dst", -1, 0, INT_MAX);
  e.shard = c.num("shard", -1, 0, INT_MAX);
  e.extra = c.u64("extra", 0);
  e.every = static_cast<std::uint32_t>(c.u64("every", 0, UINT32_MAX));
  e.cls = c.num("class", -1, 0, static_cast<int>(kQosClasses) - 1);
  e.factor = c.f64("factor", 1.0);
  if (e.kind == FaultKind::kLinkSpike && e.extra < 1)
    throw std::invalid_argument("spike needs extra >= 1");
  if ((e.kind == FaultKind::kChanLoss || e.kind == FaultKind::kChanDup) &&
      e.every < 1)
    throw std::invalid_argument("loss/dup need every >= 1");
  if (e.kind == FaultKind::kFlashCrowd && e.factor <= 0.0)
    throw std::invalid_argument("flash needs factor > 0");
  return e;
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  parse::for_each_clause(text, "fault spec", [&](const parse::Clause& c) {
    if (c.head == "rand") read_rand(c, spec);
    else spec.events.push_back(read_event(c));
  });
  return spec;
}

FaultSpec FaultSpec::random(std::uint64_t seed, int count, Tick horizon) {
  if (horizon < 64) horizon = 64;
  FaultSpec spec;
  Xoshiro256 rng(seed ^ 0xfa017ull * 0x9e3779b97f4a7c15ull);
  for (int i = 0; i < count; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.below(6));
    e.start = horizon / 8 + rng.below(horizon / 2);
    e.duration = 1 + horizon / 16 + rng.below(horizon / 8);
    switch (e.kind) {
      case FaultKind::kLinkSpike:
        e.src = static_cast<int>(rng.below(8));
        e.dst = static_cast<int>(rng.below(8));
        e.extra = 64 + rng.below(1024);
        break;
      case FaultKind::kPartition:
        e.src = static_cast<int>(rng.below(8));
        e.dst = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kDeviceStall:
        e.shard = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kChanLoss:
      case FaultKind::kChanDup:
        e.every = 2 + static_cast<std::uint32_t>(rng.below(6));
        e.shard = static_cast<int>(rng.below(8));
        break;
      case FaultKind::kFlashCrowd:
        e.factor = static_cast<double>(1 + rng.below(6)) / 8.0;
        e.cls = static_cast<int>(rng.below(kQosClasses));
        break;
    }
    spec.events.push_back(e);
  }
  return spec;
}

}  // namespace vl::fault
