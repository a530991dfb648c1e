// vlbench: the repository benchmark's measuring binary. perfbench/run.py
// owns the command line (flag parsing, --help, --list) and the build; it
// invokes this binary with five positional arguments:
//
//   vlbench WORKLOAD SEED SECONDS TRACE SMOKE
//
// WORKLOAD is table2 | qos-fanin | shard-mesh, SEED an unsigned integer,
// SECONDS the measuring time, TRACE and SMOKE 0 or 1. The last line of
// standard output is the one-line JSON result.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  if (!*s) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end || errno || s[0] == '-') return false;
  out = v;
  return true;
}

int usage(const char* what) {
  std::fprintf(stderr,
               "vlbench: %s\nusage: vlbench WORKLOAD SEED SECONDS TRACE SMOKE "
               "(run it through perfbench/run.py)\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) return usage("expected 5 arguments");
  perfbench::Options o;
  o.workload = argv[1];
  std::uint64_t seconds = 0, trace = 0, smoke = 0;
  if (!parse_u64(argv[2], o.seed)) return usage("bad SEED");
  if (!parse_u64(argv[3], seconds) || seconds < 1 || seconds > 600)
    return usage("bad SECONDS (1..600)");
  if (!parse_u64(argv[4], trace) || trace > 1) return usage("bad TRACE (0|1)");
  if (!parse_u64(argv[5], smoke) || smoke > 1) return usage("bad SMOKE (0|1)");
  o.seconds = static_cast<double>(seconds);
  o.trace = trace == 1;
  o.smoke = smoke == 1;

  perfbench::Report r;
  if (o.workload == "table2")
    perfbench::run_table2(o, r);
  else if (o.workload == "qos-fanin")
    perfbench::run_qos_fanin(o, r);
  else if (o.workload == "shard-mesh")
    perfbench::run_shard_mesh(o, r);
  else
    return usage(("unknown workload '" + o.workload + "'").c_str());
  r.print(o.trace);
  return 0;
}
