// § IV-B "Area estimation" — the analytical reproduction of the Synopsys
// DC numbers: VLRD buffers 0.142 mm^2 / 0.155 mm^2 total at 16 nm, 13% of
// one Arm A-72, <1% of a 16-core SoC. Also sweeps buffer depth to show how
// area scales (the § III-A design trade-off).

#include <cstdio>

#include "arch/area_model.hpp"
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace vl;
  bench::parse_flags(argc, argv, {});
  bench::print_header("Area estimation (§ IV-B)",
                      "VLRD storage/area model, calibrated at Table III");

  arch::AreaModel model{sim::VlrdConfig{}};
  const auto b = model.estimate();

  std::printf("\nTable III configuration (64 entries each):\n");
  TextTable t({"structure", "bits", "KiB"});
  t.add_row({"prodBuf", std::to_string(b.prod_buf_bits),
             TextTable::num(b.prod_buf_bits / 8.0 / 1024.0, 2)});
  t.add_row({"consBuf", std::to_string(b.cons_buf_bits),
             TextTable::num(b.cons_buf_bits / 8.0 / 1024.0, 2)});
  t.add_row({"linkTab", std::to_string(b.link_tab_bits),
             TextTable::num(b.link_tab_bits / 8.0 / 1024.0, 2)});
  t.add_row({"total", std::to_string(b.total_bits),
             TextTable::num(b.total_bits / 8.0 / 1024.0, 2)});
  std::printf("%s", t.render().c_str());

  std::printf("\nbuffers: %.3f mm^2 (paper 0.142)\n", b.buffers_mm2);
  std::printf("total:   %.3f mm^2 (paper 0.155)\n", b.total_mm2);
  std::printf("vs A-72 core (1.15 mm^2):   %.1f%% (paper ~13%%)\n",
              b.pct_of_a72);
  std::printf("vs 16-core SoC (18.4 mm^2): %.2f%% (paper <1%%)\n\n",
              b.pct_of_16core);

  std::printf("-- buffer-depth sweep (design trade-off, § III-A) --\n");
  TextTable sweep({"entries", "total KiB", "buffers mm^2", "% of A-72"});
  for (std::uint32_t n : {16u, 32u, 64u, 128u, 256u, 512u}) {
    sim::VlrdConfig cfg;
    cfg.prod_entries = cfg.cons_entries = cfg.link_entries = n;
    const auto e = arch::AreaModel{cfg}.estimate();
    sweep.add_row({std::to_string(n),
                   TextTable::num(e.total_bits / 8.0 / 1024.0, 1),
                   TextTable::num(e.buffers_mm2, 3),
                   TextTable::num(e.pct_of_a72, 1)});
  }
  std::printf("%s\n", sweep.render().c_str());
  return 0;
}
