// Fig. 11 — the headline evaluation: 7 benchmarks x {BLFQ, ZMQ, VL64,
// VL(ideal)}, reporting
//   (a) execution time normalized to BLFQ (lower is better),
//   (b) snoop traffic normalized to BLFQ,
//   (c) memory (DRAM) transactions normalized to BLFQ,
// plus the paper's headline aggregates: geomean VL speedup (paper: 2.09x)
// and average memory-traffic reduction (paper: 61%). Workloads are looked
// up by name in the registry (the paper's own Table II set).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;
using squeue::Backend;
using workloads::RunConfig;
using workloads::WorkloadResult;

const std::vector<std::string> kNames = {"ping-pong", "halo",    "sweep",
                                         "incast",    "FIR",     "bitonic",
                                         "pipeline"};
const std::vector<Backend> kBackends = {Backend::kBlfq, Backend::kZmq,
                                        Backend::kVl, Backend::kVlIdeal};

}  // namespace

int main(int argc, char** argv) {
  const int scale = vl::bench::parse_scale_flag(argc, argv);
  vl::bench::print_header("Figure 11",
                          "7 benchmarks x 4 queue schemes on the Table III "
                          "machine (all values normalized to BLFQ)");

  std::map<std::string, std::map<Backend, WorkloadResult>> results;
  for (const std::string& name : kNames) {
    for (Backend b : kBackends) {
      RunConfig rc = workloads::default_config(name);
      rc.backend = b;
      rc.scale = scale;
      rc.bitonic_workers = 15;
      results[name][b] = run(name, rc);
      std::fprintf(stderr, "  done %-9s %-9s %12.0f ns\n", name.c_str(),
                   squeue::to_string(b), results[name][b].ns);
    }
  }

  auto norm = [&](const std::string& name, Backend b, auto getter) {
    const double base = getter(results[name][Backend::kBlfq]);
    const double v = getter(results[name][b]);
    return base > 0 ? v / base : 0.0;
  };

  const char* titles[3] = {"(a) execution time / BLFQ",
                           "(b) snoop traffic / BLFQ",
                           "(c) memory transactions / BLFQ"};
  for (int fig = 0; fig < 3; ++fig) {
    std::printf("\n-- Fig. 11%c: %s --\n", 'a' + fig, titles[fig]);
    TextTable t({"benchmark", "BLFQ", "ZMQ", "VL(ideal)", "VL64"});
    for (const std::string& name : kNames) {
      auto getter = [fig](const WorkloadResult& r) -> double {
        if (fig == 0) return r.ns;
        if (fig == 1) return static_cast<double>(r.mem.snoops);
        return static_cast<double>(r.mem.mem_txns());
      };
      t.add_row({name, TextTable::num(norm(name, Backend::kBlfq, getter), 3),
                 TextTable::num(norm(name, Backend::kZmq, getter), 3),
                 TextTable::num(norm(name, Backend::kVlIdeal, getter), 3),
                 TextTable::num(norm(name, Backend::kVl, getter), 3)});
    }
    std::printf("%s", t.render().c_str());
  }

  // Headline aggregates.
  std::vector<double> speedups, mem_ratios;
  for (const std::string& name : kNames) {
    speedups.push_back(results[name][Backend::kBlfq].ns /
                       results[name][Backend::kVl].ns);
    const double base =
        static_cast<double>(results[name][Backend::kBlfq].mem.mem_txns());
    if (base > 0)
      mem_ratios.push_back(
          static_cast<double>(results[name][Backend::kVl].mem.mem_txns()) /
          base);
  }
  double mem_red = 0;
  for (double r : mem_ratios) mem_red += (1.0 - r);
  mem_red = 100.0 * mem_red / static_cast<double>(mem_ratios.size());

  std::printf("\nHeadline: VL geomean speedup over BLFQ = %.2fx "
              "(paper: 2.09x)\n",
              geomean(speedups));
  std::printf("Headline: VL average memory-traffic reduction = %.0f%% "
              "(paper: 61%%)\n",
              mem_red);
  std::printf("Expected shape: VL fastest everywhere (largest on ping-pong, "
              "smallest on sweep); VL snoops lowest except FIR; BLFQ memory "
              "traffic explodes on incast/FIR.\n");
  return 0;
}
