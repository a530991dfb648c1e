#pragma once
// Shared pieces of the vlbench binary: the metric catalogue, the report a
// workload fills in, host timing, and the trace span fold.
//
// Every workload reports the same metric names (the catalogue below), so
// the result line always carries the full end-to-end set (untraced run)
// or the full per-layer set (traced run); a layer a workload does not
// exercise reads 0.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/tracer.hpp"
#include "traffic/metrics.hpp"

namespace perfbench {

/// The paper's Table II kernels, in Fig. 11 order.
inline constexpr const char* kTable2Kernels[] = {
    "ping-pong", "halo", "sweep", "incast", "FIR", "bitonic", "pipeline"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  ///< Smallest size: the self-test's quick pass.
};

// --- host timing ------------------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double median(std::vector<double> v);
/// The host throughput line printed by every run: the reported rate and
/// the min / median / max of the per-repeat rates behind it.
std::string rate_note(const std::string& workload, double rate,
                      std::vector<double> per_repeat);

/// Process-wide allocation totals (global operator new, alloc_count.cpp).
struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

// --- report -----------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};
/// End-to-end metrics, reported by the untraced run (--trace 0).
const std::vector<MetricDef>& e2e_metrics();
/// Per-layer metrics, reported by the traced run (--trace 1).
const std::vector<MetricDef>& layer_metrics();

class Report {
 public:
  /// Set a catalogued metric (aborts on a name not in either catalogue).
  void set(const std::string& name, double value);
  double get(const std::string& name) const;

  /// Messages a run generated and delivered: attempted += generated,
  /// failed += generated - delivered.
  void messages(std::uint64_t generated, std::uint64_t delivered);
  /// A correctness check; a failed one counts as one failed operation.
  void check(bool ok, const std::string& what);

  /// Free-form lines printed above the result (sample counts, tables).
  void note(const std::string& line) { notes_.push_back(line); }

  /// Human-readable metric listing plus the final one-line JSON result.
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- trace fold ---------------------------------------------------------------

/// Spans of one (cat, name): call count, inclusive ticks, self ticks (the
/// span minus its child spans on the same lane) and the inclusive-duration
/// distribution.
struct SpanStat {
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t self = 0;
  vl::traffic::LogHistogram dur;
};

class SpanFold {
 public:
  /// Fold one buffer (one pid); lanes are the buffer's tids.
  void add(const vl::obs::TraceBuffer& buf);

  const SpanStat& span(const std::string& cat_name) const;
  std::uint64_t events() const { return events_; }
  /// Spans whose end did not match the innermost open span on its lane.
  std::uint64_t mismatched() const { return mismatched_; }
  /// Aligned table of every span, by self ticks.
  std::string table() const;

 private:
  std::map<std::string, SpanStat> spans_;
  std::map<std::string, std::uint64_t> instants_;
  std::uint64_t events_ = 0;
  std::uint64_t mismatched_ = 0;
};

// --- shared metric folds ------------------------------------------------------

double ratio(double num, double den);

/// mem.*, vlrd.* and core.* per-layer metrics from a Machine::obs()
/// snapshot (summed over machines). `vl_msgs` normalizes vlrd pushes.
void device_layers(Report& r, const vl::StatSet& dev, double msgs,
                   double vl_msgs);

/// sim.park_ticks, sim.credit_wait_ticks, chan.* and obs.trace_events_per_msg
/// from a span fold.
void span_layers(Report& r, const SpanFold& fold, double msgs);

// --- workloads ----------------------------------------------------------------

/// Paper Table II: 7 kernels x {BLFQ, ZMQ, VL64, VL(ideal)} at scale 1.
void run_table2(const Options& o, Report& r);
/// qos-adversarial-bulk on VL64 with the QoS supervisor.
void run_qos_fanin(const Options& o, Report& r);
/// shard-diurnal over 8 shards stepped on 2 host threads.
void run_shard_mesh(const Options& o, Report& r);

/// One untimed Table II pass: sets paper_speedup_err_pct and
/// paper_memred_err_pts (used by the traffic workloads, whose own runs
/// carry no paper reference).
void paper_probe(Report& r);

}  // namespace perfbench
