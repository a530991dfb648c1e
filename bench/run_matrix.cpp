// Full experiment matrix -> CSV. Runs every *registered* workload (Table II
// plus the extension collectives and the bsp-native kernels) over every
// queue backend on the Table III machine and writes one CSV row per run
// with timing, coherence, DRAM and device counters — the raw data behind
// Figs. 11-13 in machine-readable form. The row set comes straight from
// the workload registry: a new kernel TU shows up here with no edits.
//
//   $ ./bench/run_matrix [--scale N] [--out results.csv]
//
// Stdout gets a short progress log; the CSV goes to --out (default
// vl_matrix.csv in the working directory).

#include <cstdio>
#include <fstream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;
using squeue::Backend;

}  // namespace

int main(int argc, char** argv) {
  int scale = 1;
  std::string out_path = "vl_matrix.csv";
  vl::bench::parse_flags(
      argc, argv, {vl::bench::flag("--scale", &scale, 1, vl::bench::kScaleHelp),
                   vl::bench::flag("--out", &out_path, "CSV output path")});
  vl::bench::print_header("Run matrix", "all workloads x all backends -> CSV");

  CsvWriter csv({"workload", "backend", "scale", "ticks", "ns", "messages",
                 "ns_per_msg", "snoops", "invalidations", "upgrades",
                 "l1_hits", "l1_misses", "dram_reads", "dram_writes",
                 "injections", "vlrd_pushes", "vlrd_push_nacks",
                 "vlrd_matches", "vlrd_inject_retries"});

  for (const std::string& name : workloads::workload_names()) {
    for (Backend b : {Backend::kBlfq, Backend::kZmq, Backend::kVl,
                      Backend::kVlIdeal, Backend::kCaf}) {
      workloads::RunConfig rc = workloads::default_config(name);
      rc.backend = b;
      rc.scale = scale;
      const auto r = workloads::run(name, rc);
      csv.add()
          .col(r.workload)
          .col(std::string(squeue::to_string(b)))
          .col(static_cast<std::uint64_t>(scale))
          .col(r.ticks)
          .col(r.ns, 1)
          .col(r.messages)
          .col(r.ns_per_msg(), 2)
          .col(r.mem.snoops)
          .col(r.mem.invalidations)
          .col(r.mem.upgrades)
          .col(r.mem.l1_hits)
          .col(r.mem.l1_misses)
          .col(r.mem.dram_reads)
          .col(r.mem.dram_writes)
          .col(r.mem.injections)
          .col(r.vlrd.pushes)
          .col(r.vlrd.push_nacks)
          .col(r.vlrd.matches)
          .col(r.vlrd.inject_retry);
      std::printf("  %-14s %-9s %14.0f ns  %8llu msgs\n", name.c_str(),
                  squeue::to_string(b), r.ns,
                  static_cast<unsigned long long>(r.messages));
    }
  }

  std::ofstream f(out_path);
  f << csv.str();
  std::printf("\nwrote %zu rows to %s\n", csv.rows_written() - 1,
              out_path.c_str());
  return f.good() ? 0 : 1;
}
