// Strict input layer: the typed converters, the clause tokenizer, and a
// deterministic mutation loop over every loader built on them. Mutated
// fault, churn, CSV-trace, VLTR and VLSS inputs must either throw
// std::invalid_argument or parse to a value whose canonical rendering
// reparses to itself; the binary formats must also render back to the
// exact input bytes. Run under the sanitizer build, the loop doubles as a
// crash/overflow check where libFuzzer (clang only) is unavailable.

#include "common/parse.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/spec.hpp"
#include "replay/lifecycle.hpp"
#include "replay/trace.hpp"
#include "replay/warm_restart.hpp"

namespace vl::parse {
namespace {

TEST(Converters, RejectEmptySignTrailingAndOverflow) {
  EXPECT_EQ(to_u64("42"), 42u);
  EXPECT_EQ(to_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "18446744073709551616"})
    EXPECT_THROW(to_u64(bad), std::invalid_argument) << bad;
  EXPECT_EQ(to_u64("255", 255), 255u);
  EXPECT_THROW(to_u64("256", 255), std::invalid_argument);

  EXPECT_EQ(to_int("-3", -5, 5), -3);
  for (const char* bad : {"", "+3", "6", "-6", "3.0"})
    EXPECT_THROW(to_int(bad, -5, 5), std::invalid_argument) << bad;

  EXPECT_DOUBLE_EQ(to_f64("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(to_f64("-1e3"), -1000.0);
  for (const char* bad : {"", "+1", "1e", "inf", "nan", "1e999", "0.5x"})
    EXPECT_THROW(to_f64(bad), std::invalid_argument) << bad;
}

TEST(ClauseTokenizer, SplitsAndTrimsClauses) {
  std::vector<Clause> seen;
  for_each_clause(" a@1:k=v,x ;; b:7 ", "g",
                  [&](const Clause& c) { seen.push_back(c); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].head, "a");
  EXPECT_EQ(seen[0].when, "1");
  ASSERT_EQ(seen[0].items.size(), 2u);
  EXPECT_EQ(*seen[0].find("k"), "v");
  EXPECT_EQ(seen[0].items[1].key, "");
  EXPECT_EQ(seen[0].items[1].value, "x");
  EXPECT_EQ(seen[1].head, "b");
  EXPECT_EQ(seen[1].when, "");
  EXPECT_EQ(seen[1].items.at(0).value, "7");
}

TEST(ClauseTokenizer, RejectsDuplicateEmptyAndUnknownItems) {
  auto error = [](const char* text) -> std::string {
    try {
      for_each_clause(text, "g",
                      [](const Clause& c) { c.allow({"k", "j"}); });
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(error("ok@1;a@1:k=1,k=2"),
            "g: clause 'a@1:k=1,k=2' at byte 5: duplicate key 'k'");
  EXPECT_EQ(error(" a:k=7 ;; \tb@1:z=1 "),
            "g: clause 'b@1:z=1' at byte 11: key 'z' does not apply to b");
  EXPECT_EQ(error("a@1:k=1,"), "g: clause 'a@1:k=1,' at byte 0: empty item");
  EXPECT_EQ(error("a@1:=1"), "g: clause 'a@1:=1' at byte 0: empty key");
  EXPECT_EQ(error("a@1:z=1"),
            "g: clause 'a@1:z=1' at byte 0: key 'z' does not apply to a");
  EXPECT_EQ(error("a@1:7"),
            "g: clause 'a@1:7' at byte 0: item '7' is not key=value");
  EXPECT_EQ(error("a@1:k=1,j=2"), "accepted");
}

// --- mutation property ------------------------------------------------------

constexpr int kIterations = 20000;

/// Apply one random flip, insert, delete, truncate or splice to `s`.
std::string mutate(std::string s, const std::string& donor, Xoshiro256& rng) {
  static const std::string kChars = "0123456789@+:=,;-. \nxe#";
  const std::size_t n = s.size();
  switch (rng.below(5)) {
    case 0:
      if (n) s[rng.below(n)] ^= static_cast<char>(1u << rng.below(8));
      break;
    case 1:
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(n + 1)),
               rng.below(2) ? kChars[rng.below(kChars.size())]
                            : static_cast<char>(rng.below(256)));
      break;
    case 2:
      if (n) s.erase(rng.below(n), 1 + rng.below(4));
      break;
    case 3:
      s.resize(rng.below(n + 1));
      break;
    default:
      s = s.substr(0, rng.below(n + 1)) +
          donor.substr(rng.below(donor.size() + 1));
  }
  return s;
}

/// Mutate `seeds` kIterations times and check the parse contract.
template <class Parse, class Render>
void check_mutations(const std::vector<std::string>& seeds, Parse parse,
                     Render render, bool byte_exact, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string in = seeds[rng.below(seeds.size())];
    for (std::uint64_t r = 1 + rng.below(3); r > 0; --r)
      in = mutate(in, seeds[rng.below(seeds.size())], rng);
    std::optional<decltype(parse(in))> v;
    try {
      v = parse(in);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    const std::string canon = render(*v);
    EXPECT_EQ(render(parse(canon)), canon) << "input: " << in;
    if (byte_exact) {
      EXPECT_EQ(canon, in);
    }
  }
  EXPECT_GT(accepted, 0);  // the accept path ran too
}

replay::Trace sample_trace(bool sharded) {
  replay::Trace t;
  t.scenario = "qos-incast";
  t.backend = "VL64";
  t.seed = 42;
  t.producers = 2;
  t.tenants = 3;
  t.sharded = sharded;
  t.records = {{100, 0, 0, QosClass::kLatency, 1, 0},
               {100, 1, 1, QosClass::kBulk, 7, 3},
               {900, 2, 1, QosClass::kStandard, 3, 70000}};
  return t;
}

TEST(MutationProperty, FaultSpec) {
  check_mutations(
      {"spike@100+50:extra=7,src=1,dst=2;partition@200+30:src=0,dst=3;"
       "stall@400+25:shard=1",
       "loss@500+100:every=4,shard=0;dup@700+10:every=3;"
       "flash@900+60:factor=0.25,class=2;rand:7,4,100000"},
      [](const std::string& s) { return fault::FaultSpec::parse(s); },
      [](const fault::FaultSpec& f) { return f.summary(); }, false, 1);
}

TEST(MutationProperty, LifecycleSpec) {
  check_mutations(
      {"leave@30000:tenant=bulk;join@45000:tenant=bulk",
       "reconfig@20000;reconfig@500:channel=2;join@7:tenant=rt"},
      [](const std::string& s) { return replay::LifecycleSpec::parse(s); },
      [](const replay::LifecycleSpec& l) { return l.summary(); }, false, 2);
}

TEST(MutationProperty, TraceCsv) {
  check_mutations(
      {sample_trace(false).csv(), sample_trace(true).csv()},
      [](const std::string& s) { return replay::Trace::parse_csv(s); },
      [](const replay::Trace& t) { return t.csv(); }, false, 3);
}

TEST(MutationProperty, TraceBinary) {
  check_mutations(
      {sample_trace(false).binary(), sample_trace(true).binary()},
      [](const std::string& s) { return replay::Trace::parse_binary(s); },
      [](const replay::Trace& t) { return t.binary(); }, true, 4);
}

TEST(MutationProperty, Snapshot) {
  replay::Snapshot s;
  s.backend = "VL64";
  s.vl_class_quota[1] = 8;
  s.vl_per_sqi_quota = 4;
  replay::Snapshot::QueueState q;
  q.name = "q0";
  q.sqi = 3;
  q.lines.resize(2);
  q.lines[1][5] = 0xab;
  s.queues.push_back(q);
  replay::Snapshot c;
  c.backend = "CAF";
  c.caf_class_credits[2] = 16;
  replay::Snapshot::QueueState cq;
  cq.name = "cq";
  cq.words = {{7, 0}, {99, 2}};
  c.queues.push_back(cq);
  check_mutations(
      {s.serialize(), c.serialize()},
      [](const std::string& b) { return replay::Snapshot::deserialize(b); },
      [](const replay::Snapshot& v) { return v.serialize(); }, true, 5);
}

}  // namespace
}  // namespace vl::parse
