// Bench flag table: every malformed argv exits 2 with a message naming the
// offending token, well-formed argv fills the typed destinations, and
// --help exits 0 after printing usage generated from the same table.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "fault/spec.hpp"

namespace vl::bench {
namespace {

/// The scenario_runner-shaped subset of flags the rows exercise.
struct Cli {
  std::string scenario = "all";
  std::uint64_t seed = 42;
  int scale = 1, shards = 0;
  bool quiet = false;
  std::vector<int> scales = {1, 2};
  fault::FaultSpec faults;

  void parse(std::vector<const char*> args) {
    args.insert(args.begin(), "bench");
    parse_flags(static_cast<int>(args.size()), args.data(),
                {flag("--scenario", &scenario, "preset"),
                 flag("--seed", &seed, "RNG seed"),
                 flag("--scale", &scale, 1, kScaleHelp),
                 flag("--shards", &shards, 0, "shards"),
                 flag("--quiet", &quiet, "quiet"),
                 flag("--scales", &scales, 1, "sweep scales"),
                 flag("--faults", &faults, &fault::FaultSpec::parse,
                      "fault schedule")});
  }
};

TEST(FlagTableDeathTest, RejectsMalformedArgvNamingTheToken) {
  struct Row {
    std::vector<const char*> argv;
    const char* token;  ///< Regex matched against stderr.
  };
  const Row rows[] = {
      {{"--bogus-flag"}, "unknown flag '--bogus-flag'"},
      {{"stray"}, "unexpected argument 'stray'"},
      {{"--seed", "1", "--seed", "2"}, "duplicate flag '--seed'"},
      {{"--quiet", "--quiet"}, "duplicate flag '--quiet'"},
      {{"--scenario"}, "flag '--scenario' needs a value"},
      {{"--scenario", "--quiet"}, "flag '--scenario' needs a value"},
      {{"--seed", "abc"}, "--seed 'abc': expected an unsigned integer"},
      {{"--seed", "-1"}, "--seed '-1': expected an unsigned integer"},
      {{"--seed", "18446744073709551616"}, "'18446744073709551616': out of"},
      {{"--shards", "-2"}, "--shards '-2': out of range"},
      {{"--scale", "0"}, "--scale '0': out of range"},
      {{"--scale", "abc"}, "--scale 'abc': expected an integer"},
      {{"--scale", "2x"}, "--scale '2x'"},
      {{"--scales", "1,,x"}, "--scales '1,,x'"},
      {{"--scales", "0,1"}, "--scales '0,1'"},
      {{"--faults", "stall@1+2:every=1"}, "key 'every' does not apply"},
  };
  for (const Row& row : rows) {
    Cli cli;
    EXPECT_EXIT(cli.parse(row.argv), testing::ExitedWithCode(2), row.token)
        << row.argv[0];
  }
}

TEST(FlagTable, FillsTypedDestinationsAndKeepsDefaults) {
  Cli cli;
  cli.parse({"--seed", "7", "--quiet", "--scales", "1,4,8", "--faults",
             "stall@1+2"});
  EXPECT_EQ(cli.seed, 7u);
  EXPECT_TRUE(cli.quiet);
  EXPECT_EQ(cli.scales, (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(cli.scenario, "all");
  EXPECT_EQ(cli.scale, 1);
  EXPECT_EQ(cli.shards, 0);
  EXPECT_EQ(cli.faults.summary(), "stall@1+2");
}

TEST(FlagTableDeathTest, HelpPrintsUsageAndExitsZero) {
  Cli cli;
  EXPECT_EXIT(cli.parse({"--help", "--seed", "abc"}),
              testing::ExitedWithCode(0), "");
  const FlagTable table = {flag("--seed", &cli.seed, "RNG seed"),
                           flag("--scales", &cli.scales, 1, "sweep scales")};
  const std::string text = usage("bench", table);
  EXPECT_NE(text.find("--seed N"), std::string::npos) << text;
  EXPECT_NE(text.find("RNG seed (default 42)"), std::string::npos) << text;
  EXPECT_NE(text.find("--scales N,N,.."), std::string::npos) << text;
  EXPECT_NE(text.find("(default 1,2)"), std::string::npos) << text;
}

// A mode that reads only some flags names the first one it would ignore;
// flag values (here "7", "-2") are never mistaken for flags.
TEST(FlagTable, RejectIgnoredNamesTheFirstIgnoredFlag) {
  const char* argv[] = {"bench", "--warm-restart", "--seed", "7",
                        "--shards", "-2", "--scale", "2"};
  const auto drill_ignores = [](std::string_view a) {
    return !one_of(a, {"--backend", "--seed"});
  };
  testing::internal::CaptureStderr();
  EXPECT_TRUE(reject_ignored(8, argv, "--warm-restart", drill_ignores));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "bench: --warm-restart ignores --shards\n");
  EXPECT_FALSE(reject_ignored(4, argv, "--warm-restart", drill_ignores));
}

}  // namespace
}  // namespace vl::bench
