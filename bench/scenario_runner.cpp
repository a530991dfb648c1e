// Scenario runner CLI: drive any registered traffic scenario over any (or
// every) queue backend and emit per-tenant percentile metrics.
//
//   scenario_runner --scenario incast-burst --backend vl --seed 42
//   scenario_runner --scenario all --backend all --scale 2
//   scenario_runner --scenario qos-incast --backend caf --no-qos
//   scenario_runner --scenario incast-burst --backend vl --batch 8
//   scenario_runner --sweep --scales 1,2,4 --batches 1,8
//   scenario_runner --list
//   scenario_runner --scenario qos-incast --backend vl --timeline tl.csv
//       --sample-every 5000 --trace trace.json --metrics-json metrics.json
//
// CSV goes to stdout (byte-identical across runs for fixed arguments —
// the simulation is fully deterministic); human-readable tables go to
// stderr so redirecting stdout yields a clean data file.
//
// --sweep runs the selected scenarios over every (backend, scale) cell and
// prints a geomean summary table: per cell, the geometric mean across
// scenarios of delivered Mmsgs/s and of simulated ticks — the Fig.-style
// scaling view over the whole preset suite.

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "replay/lifecycle.hpp"
#include "replay/trace.hpp"
#include "replay/warm_restart.hpp"
#include "traffic/cell.hpp"
#include "workloads/runner.hpp"

namespace {

using vl::squeue::Backend;

/// --assert-slo CLASS=PCT, the CI chaos-smoke gate.
struct SloAssert {
  std::string cls;  ///< Empty when nothing is asserted.
  double pct = 0.0;

  static SloAssert parse(const std::string& s) {
    const auto eq = s.find('=');
    SloAssert a{s.substr(0, eq), 0.0};
    bool known = false;
    for (std::size_t c = 0; c < vl::kQosClasses; ++c)
      known = known || a.cls == to_string(static_cast<vl::QosClass>(c));
    if (eq == std::string::npos || !known)
      throw std::invalid_argument("--assert-slo '" + s +
                                  "': CLASS=PCT needs CLASS standard, latency "
                                  "or bulk");
    a.pct = vl::parse::to_f64(s.substr(eq + 1), "--assert-slo PCT", 0, 100);
    return a;
  }
};

/// Write `text` to `path`; exits the process on I/O failure so a silently
/// missing artifact can't pass CI.
void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

/// The --sweep table: `cells` in groups of `per_row` scenarios, one
/// (backend, scale, batch) row per group — per row, the geometric mean
/// across scenarios of delivered Mmsgs/s, ticks, ev/msg and latency-class
/// p99, and SLO attainment over every SLO-carrying tenant.
int run_sweep(const std::vector<vl::traffic::Cell>& cells,
              std::size_t per_row) {
  vl::TextTable tt({"backend", "scale", "batch", "scenarios",
                    "geomean_Mmsg/s", "geomean_ticks", "geomean_ev/msg",
                    "geomean_p99_lat", "slo_att_%"});
  for (std::size_t row = 0; row < cells.size(); row += per_row) {
    std::vector<double> rates, ticks, evpm, lat_p99s;
    std::uint64_t slo_delivered = 0, slo_within = 0;
    for (std::size_t i = row; i < row + per_row; ++i) {
      const vl::traffic::EngineResult r = vl::traffic::run(cells[i]).engine;
      const double secs = r.metrics.ns * 1e-9;
      const auto delivered = r.metrics.total_delivered();
      rates.push_back(
          secs > 0 ? static_cast<double>(delivered) / secs / 1e6 : 0.0);
      ticks.push_back(static_cast<double>(r.metrics.ticks));
      evpm.push_back(delivered ? static_cast<double>(r.events) /
                                     static_cast<double>(delivered)
                               : 0.0);
      for (const auto& c : r.metrics.by_class()) {
        if (c.cls == vl::QosClass::kLatency && c.agg.delivered)
          lat_p99s.push_back(
              static_cast<double>(c.agg.latency.percentile(99)));
        slo_delivered += c.slo_delivered;
        slo_within += c.slo_within;
      }
      std::fprintf(stderr,
                   "sweep: %s backend=%s scale=%d batch=%u ticks=%llu\n",
                   r.scenario.c_str(), r.backend.c_str(), r.scale,
                   cells[i].batch,
                   static_cast<unsigned long long>(r.metrics.ticks));
    }
    const vl::traffic::Cell& head = cells[row];
    tt.add_row({to_string(head.backend), std::to_string(head.scale),
                std::to_string(head.batch), std::to_string(per_row),
                vl::TextTable::num(vl::geomean(rates), 3),
                vl::TextTable::num(vl::geomean(ticks), 0),
                vl::TextTable::num(vl::geomean(evpm), 1),
                lat_p99s.empty() ? std::string("-")
                                 : vl::TextTable::num(vl::geomean(lat_p99s), 0),
                slo_delivered
                    ? vl::TextTable::num(100.0 *
                                             static_cast<double>(slo_within) /
                                             static_cast<double>(slo_delivered),
                                         1)
                    : std::string("-")});
  }
  std::printf("%s", tt.render().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "all", backend_s = "all", timeline_path, trace_path,
              metrics_json_path, record_path, replay_path;
  std::uint64_t seed = 42, tenants = 0, sample_every = 10000;
  int scale = 1, batch = 0, shards = 0, sim_threads = 1;
  bool list = false, quiet = false, no_qos = false, sweep = false,
       no_supervisor = false, warm_restart = false;
  std::vector<int> scales = {1, 2}, batches;
  vl::fault::FaultSpec faults;
  vl::replay::LifecycleSpec churn;
  SloAssert slo;
  using vl::bench::flag;
  vl::bench::parse_flags(argc, argv, {
      flag("--list", &list, "list scenario presets and workloads, then exit"),
      flag("--scenario", &scenario, "preset NAME, or all"),
      flag("--backend", &backend_s, "blfq|zmq|vl|vlideal|caf, or all"),
      flag("--seed", &seed, "RNG seed"),
      flag("--scale", &scale, 1, vl::bench::kScaleHelp),
      flag("--batch", &batch, 0, "every tenant's batch; 0 keeps the preset's"),
      flag("--quiet", &quiet, "no tables on stderr"),
      flag("--no-qos", &no_qos, "record QoS classes but do not enforce them"),
      flag("--sweep", &sweep, "geomean table over (backend, scale, batch)"),
      flag("--scales", &scales, 1, "--sweep scales"),
      flag("--batches", &batches, 1, "--sweep batches (default --batch or 1)"),
      flag("--shards", &shards, 0, "sharded mesh on N shards; 0 = classic"),
      flag("--sim-threads", &sim_threads, 1, "step shards on N host threads"),
      flag("--tenants", &tenants, "sharded population; 0 keeps the preset's"),
      flag("--timeline", &timeline_path, "epoch series FILE (.json or CSV)"),
      flag("--sample-every", &sample_every, "timeline period in ticks"),
      flag("--trace", &trace_path, "Chrome-trace JSON FILE"),
      flag("--metrics-json", &metrics_json_path, "end-of-run metrics JSON"),
      flag("--faults", &faults, &vl::fault::FaultSpec::parse,
           "fault schedule (fault/spec.hpp grammar)"),
      flag("--no-supervisor", &no_supervisor, "disable the QoS supervisor"),
      flag("--assert-slo", &slo, &SloAssert::parse,
           "CLASS=PCT: exit 3 unless CLASS meets PCT% SLO attainment"),
      flag("--record", &record_path, "save the send-boundary trace FILE"),
      flag("--replay", &replay_path, "drive the run from trace FILE"),
      flag("--churn", &churn, &vl::replay::LifecycleSpec::parse,
           "lifecycle events (replay/lifecycle.hpp grammar)"),
      flag("--warm-restart", &warm_restart, "run the warm-restart drill"),
  });
  // --sweep runs its own grid of classic cells and the warm-restart drill
  // reads only --backend and --seed: name a flag either would ignore.
  using vl::bench::one_of;
  using vl::bench::reject_ignored;
  if (sweep && reject_ignored(argc, argv, "--sweep", [](std::string_view a) {
        return one_of(a, {"--assert-slo", "--timeline", "--trace",
                          "--metrics-json", "--record", "--replay", "--churn",
                          "--shards", "--tenants", "--sim-threads", "--scale",
                          "--warm-restart"});
      }))
    return 2;
  if (warm_restart &&
      reject_ignored(argc, argv, "--warm-restart", [](std::string_view a) {
        return !one_of(a, {"--backend", "--seed"});
      }))
    return 2;

  if (list) {
    std::printf("scenario presets (--scenario NAME):\n");
    for (const auto& name : vl::traffic::scenario_names()) {
      const auto* s = vl::traffic::find_scenario(name);
      std::printf("  %-18s %s (%s, %d producers, %zu tenants)\n", name.c_str(),
                  s->summary.c_str(), to_string(s->topology), s->producers,
                  s->tenants.size());
    }
    std::printf("\nregistered workloads (bench_sim_throughput --scenario "
                "wl-NAME):\n");
    for (const auto* w : vl::workloads::all_workloads())
      std::printf("  %-18s %s\n", w->name, w->summary);
    return 0;
  }

  if (!faults.empty())
    std::fprintf(stderr, "faults: %s\n", faults.summary().c_str());
  if (!churn.empty())
    std::fprintf(stderr, "churn: %s\n", churn.summary().c_str());

  std::vector<std::string> scenarios;
  if (scenario == "all") {
    scenarios = vl::traffic::scenario_names();
  } else if (vl::traffic::find_scenario(scenario)) {
    scenarios.push_back(scenario);
  } else {
    std::fprintf(stderr, "unknown scenario '%s'; --list shows presets\n",
                 scenario.c_str());
    return 2;
  }

  const std::vector<Backend> backends = vl::bench::parse_backends(backend_s);
  if (backends.empty()) {
    std::fprintf(stderr, "unknown backend '%s'\n", backend_s.c_str());
    return 2;
  }

  if (warm_restart) {
    for (Backend b : backends) {
      vl::replay::WarmRestartReport rep;
      try {  // software backends have no device state to restore
        rep = vl::replay::run_warm_restart(b, seed);
      } catch (const std::invalid_argument& e) {
        vl::bench::reject_unsupported(e.what());
        return 2;
      }
      std::printf("%s\n", rep.text().c_str());
      if (!rep.conserved()) {
        std::fprintf(stderr, "warm-restart: conservation FAILED\n");
        return 4;
      }
    }
    return 0;
  }

  // Timeline/trace/record capture one run's time axis; a multi-cell sweep
  // would interleave unrelated runs into one file, so require a single
  // cell. Replay likewise targets exactly one recorded run.
  const bool want_obs = !timeline_path.empty() || !trace_path.empty() ||
                        !record_path.empty();
  if ((want_obs || !replay_path.empty()) &&
      scenarios.size() * backends.size() != 1) {
    std::fprintf(stderr,
                 "--timeline/--trace/--record/--replay need a single "
                 "(scenario, backend) cell; pick --scenario NAME and "
                 "--backend NAME\n");
    return 2;
  }

  std::optional<vl::replay::Trace> replay_trace;
  if (!replay_path.empty()) {
    try {
      replay_trace = vl::replay::Trace::load(replay_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--replay %s: %s\n", replay_path.c_str(),
                   e.what());
      return 2;
    }
    std::fprintf(stderr,
                 "replay: %zu records from %s (scenario=%s backend=%s "
                 "seed=%llu)\n",
                 replay_trace->records.size(), replay_path.c_str(),
                 replay_trace->scenario.c_str(),
                 replay_trace->backend.c_str(),
                 static_cast<unsigned long long>(replay_trace->seed));
  }

  vl::obs::Timeline timeline;
  // On overflow, coarsen (halve history, keeping full-run coverage) rather
  // than silently evicting the oldest epochs.
  timeline.set_auto_coarsen(true);
  vl::obs::Tracer tracer;
  vl::replay::TraceRecorder recorder;
  vl::obs::RunHooks hooks;
  hooks.sample_every = sample_every;
  if (!timeline_path.empty()) hooks.timeline = &timeline;
  if (!trace_path.empty()) hooks.tracer = &tracer;
  if (!record_path.empty()) hooks.recorder = &recorder;

  // One cell per (scenario, backend), or per (backend, scale, batch,
  // scenario) for --sweep, every one checked before any runs: a flag an
  // engine cannot honour exits 2 naming why, instead of being ignored.
  auto cell_for = [&](const std::string& name, Backend b, int sc, int bt) {
    vl::traffic::Cell c(*vl::traffic::find_scenario(name), b, seed, sc,
                        hooks.any() ? &hooks : nullptr);
    if (no_qos) c.spec.qos = false;
    if (no_supervisor) c.spec.supervisor = false;
    if (!faults.empty()) c.spec.faults = faults;
    if (!churn.empty()) c.spec.lifecycle = churn;
    if (replay_trace) c.spec.replay = &*replay_trace;
    c.batch = static_cast<std::uint32_t>(bt);
    c.shards = shards;
    c.sim_threads = sim_threads;
    c.population = tenants;
    return c;
  };
  std::vector<vl::traffic::Cell> cells;
  if (sweep) {
    // The batch sweep dimension defaults to the --batch value (or 1).
    if (batches.empty()) batches = {batch ? batch : 1};
    for (Backend b : backends)
      for (int sc : scales)
        for (int bt : batches)
          for (const auto& name : scenarios)
            cells.push_back(cell_for(name, b, sc, bt));
  } else {
    for (const auto& name : scenarios)
      for (Backend b : backends)
        cells.push_back(cell_for(name, b, scale, batch));
  }
  for (const vl::traffic::Cell& c : cells)
    if (vl::bench::reject_unsupported(c.check())) return 2;
  if (sweep) return run_sweep(cells, scenarios.size());

  bool slo_ok = true;
  int slo_cells = 0;  // cells with SLO-carrying deliveries in slo.cls
  bool conserved = true;  // --churn zero-loss check
  std::string metrics_json;  // Accumulated `runs` array body.
  bool header_done = false;
  for (const vl::traffic::Cell& cell : cells) {
    vl::traffic::ShardedResult sr;
    try {
      sr = vl::traffic::run(cell);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (cell.shards > 0)
      std::fprintf(stderr,
                   "sharded: shards=%d sim_threads=%d cross_shard=%llu "
                   "epochs=%llu window_stalls=%llu rebalanced=%llu\n",
                   sr.shards, sr.sim_threads,
                   static_cast<unsigned long long>(sr.cross_shard),
                   static_cast<unsigned long long>(sr.epochs),
                   static_cast<unsigned long long>(sr.window_stalls),
                   static_cast<unsigned long long>(sr.rebalanced));
    const vl::traffic::EngineResult& r = sr.engine;
    // Churn conservation: a tenant leaving/rejoining must strand nothing
    // — every generated message is delivered or accounted as dropped.
    if (!churn.empty()) {
      for (const auto& t : r.metrics.tenants) {
        if (t.generated == t.delivered + t.dropped) continue;
        std::fprintf(stderr,
                     "churn: conservation VIOLATED for tenant %s: "
                     "generated=%llu delivered=%llu dropped=%llu\n",
                     t.tenant.c_str(),
                     static_cast<unsigned long long>(t.generated),
                     static_cast<unsigned long long>(t.delivered),
                     static_cast<unsigned long long>(t.dropped));
        conserved = false;
      }
    }
    if (!slo.cls.empty()) {
      for (const auto& c : r.metrics.by_class()) {
        if (to_string(c.cls) != slo.cls || !c.slo_delivered) continue;
        ++slo_cells;
        const double att = 100.0 * static_cast<double>(c.slo_within) /
                           static_cast<double>(c.slo_delivered);
        std::fprintf(stderr, "assert-slo: %s %s %s=%.2f%% (need %.2f%%)\n",
                     r.scenario.c_str(), r.backend.c_str(), slo.cls.c_str(),
                     att, slo.pct);
        if (att < slo.pct) slo_ok = false;
      }
    }
    // One shared CSV header across the whole sweep.
    const std::string csv = r.csv();
    const std::size_t nl = csv.find('\n');
    std::fputs(header_done ? csv.c_str() + nl + 1 : csv.c_str(), stdout);
    header_done = true;
    if (!quiet) std::fprintf(stderr, "%s\n", r.table().c_str());
    if (!metrics_json_path.empty()) {
      if (!metrics_json.empty()) metrics_json += ",\n";
      metrics_json += "{\"scenario\":\"" + r.scenario + "\",\"backend\":\"" +
                      r.backend + "\",\"seed\":" + std::to_string(r.seed) +
                      ",\"scale\":" + std::to_string(r.scale) +
                      ",\"events\":" + std::to_string(r.events) +
                      ",\"metrics\":" + r.metrics.json() + "}";
    }
  }
  if (!timeline_path.empty()) {
    // Surface ring-capacity losses: with auto-coarsen the file still
    // covers the whole run, but at a coarser effective cadence the reader
    // should know about; dropped() > 0 would mean truncated history.
    if (timeline.coarsenings() > 0)
      std::fprintf(stderr,
                   "timeline: ring filled %llu time(s); auto-coarsened to an "
                   "effective --sample-every of ~%llu ticks\n",
                   static_cast<unsigned long long>(timeline.coarsenings()),
                   static_cast<unsigned long long>(
                       sample_every << timeline.coarsenings()));
    if (timeline.dropped() > 0)
      std::fprintf(stderr,
                   "timeline: warning: %llu oldest epochs evicted by the "
                   "ring cap; raise --sample-every to keep full coverage\n",
                   static_cast<unsigned long long>(timeline.dropped()));
    if (!timeline.write(timeline_path)) {
      std::fprintf(stderr, "cannot write %s\n", timeline_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) write_file(trace_path, tracer.json());
  if (!metrics_json_path.empty())
    write_file(metrics_json_path, "{\"runs\":[\n" + metrics_json + "\n]}\n");
  if (!record_path.empty()) {
    const vl::replay::Trace tr = recorder.finish();
    if (!tr.save(record_path)) {
      std::fprintf(stderr, "cannot write %s\n", record_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu messages to %s\n", tr.records.size(),
                 record_path.c_str());
  }
  if (!slo.cls.empty() && slo_cells == 0) {
    std::fprintf(stderr,
                 "assert-slo: FAILED (no cell had SLO-carrying %s "
                 "deliveries)\n",
                 slo.cls.c_str());
    return 3;
  }
  if (!slo_ok) {
    std::fprintf(stderr, "assert-slo: FAILED (attainment below %.2f%%)\n",
                 slo.pct);
    return 3;
  }
  if (!conserved) {
    std::fprintf(stderr, "churn: conservation FAILED\n");
    return 4;
  }
  return 0;
}
