// Metric catalogue, result printing, and the folds shared by all workloads.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench.hpp"
#include "common/table.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string rate_note(const std::string& workload, double rate,
                      std::vector<double> per_repeat) {
  std::sort(per_repeat.begin(), per_repeat.end());
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: msgs_per_host_s %.6g msg/s (fastest repeat of each unit "
                "of work; per-layer, not gated); %zu repeats: min %.6g median "
                "%.6g max %.6g",
                workload.c_str(), rate, per_repeat.size(),
                per_repeat.empty() ? 0.0 : per_repeat.front(), median(per_repeat),
                per_repeat.empty() ? 0.0 : per_repeat.back());
  return line;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"sim_ticks", "ticks"},
      {"sim_lat_p50_ticks", "ticks"},
      {"sim_lat_p999_ticks", "ticks"},
      {"slo_attain_pct", "%"},
      {"paper_speedup_err_pct", "%"},
      {"paper_memred_err_pts", "pts"},
  };
  return m;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> m = [] {
    std::vector<MetricDef> v = {
        {"msgs_per_host_s", "msg/s"},
        {"sim.events_per_msg", "ev/msg"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.allocs_per_event", "allocs/ev"},
        {"sim.alloc_bytes_per_msg", "B/msg"},
        {"sim.park_ticks", "ticks/msg"},
        {"sim.credit_wait_ticks", "ticks/msg"},
        {"core.ctx_switches_per_msg", "1/msg"},
        {"shard.epochs", "count"},
        {"shard.window_stalls", "count"},
        {"shard.cross_shard_frac", "frac"},
        {"shard.epoch_ticks", "ticks"},
        {"traffic.router_build_s", "s"},
        {"mem.l1_miss_rate", "frac"},
        {"mem.llc_miss_rate", "frac"},
        {"mem.snoops_per_msg", "1/msg"},
        {"mem.c2c_per_msg", "1/msg"},
        {"mem.dram_txns_per_msg", "1/msg"},
        {"mem.inject_reject_frac", "frac"},
        {"vlrd.pushes_per_msg", "1/msg"},
        {"vlrd.push_nack_frac", "frac"},
        {"vlrd.push_quota_nack_frac", "frac"},
        {"vlrd.fetch_nack_frac", "frac"},
        {"vlrd.inject_retry_frac", "frac"},
        {"chan.send_ticks_mean", "ticks"},
        {"chan.send_ticks_p99", "ticks"},
        {"chan.recv_ticks_mean", "ticks"},
        {"runtime.machine_build_s", "s"},
        {"sup.quota_moves", "count"},
        {"traffic.blocked_ticks_per_msg.latency", "ticks/msg"},
        {"traffic.blocked_ticks_per_msg.standard", "ticks/msg"},
        {"traffic.blocked_ticks_per_msg.bulk", "ticks/msg"},
        {"traffic.drop_frac", "frac"},
    };
    for (const char* k : kTable2Kernels) {
      v.push_back({std::string("wl.") + k + ".speedup", "x"});
      v.push_back({std::string("wl.") + k + ".mem_ratio", "frac"});
    }
    v.push_back({"wl.vl_speedup_geomean", "x"});
    v.push_back({"wl.mem_reduction_pct", "%"});
    v.push_back({"obs.trace_overhead_frac", "frac"});
    v.push_back({"obs.trace_events_per_msg", "1/msg"});
    v.push_back({"obs.fold_s", "s"});
    return v;
  }();
  return m;
}

namespace {

const MetricDef* find_def(const std::string& name) {
  for (const auto* cat : {&e2e_metrics(), &layer_metrics()})
    for (const MetricDef& d : *cat)
      if (d.name == name) return &d;
  return nullptr;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  if (!find_def(name)) {
    std::fprintf(stderr, "vlbench: metric '%s' is not catalogued\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::messages(std::uint64_t generated, std::uint64_t delivered) {
  attempted_ += generated;
  failed_ += generated > delivered ? generated - delivered : 0;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

void Report::print(bool trace) const {
  const auto& defs = trace ? layer_metrics() : e2e_metrics();
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  vl::TextTable t({"metric", "value", "unit"});
  for (const MetricDef& d : defs) t.add_row({d.name, num(get(d.name)), d.unit});
  const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
  t.add_row({"fail_frac",
             num(static_cast<double>(failed_) / static_cast<double>(attempted)),
             "frac"});
  std::printf("%s", t.render().c_str());
  for (const std::string& f : failures_) std::printf("FAILED CHECK: %s\n", f.c_str());

  // Non-finite values cannot travel as JSON numbers; they mark a broken
  // fold and fail the run.
  bool finite = true;
  for (const MetricDef& d : defs) finite = finite && std::isfinite(get(d.name));
  const bool correct = failed_ == 0 && finite;
  std::string js = "{\"correct\": ";
  js += correct ? "true" : "false";
  js += ", \"attempted\": " + std::to_string(attempted);
  js += ", \"failed\": " + std::to_string(failed_ + (finite ? 0 : 1));
  js += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = std::isfinite(get(defs[i].name)) ? get(defs[i].name) : 0.0;
    js += (i ? ", \"" : "\"") + json_escape(defs[i].name) + "\": {\"value\": " +
          num(v) + ", \"unit\": \"" + json_escape(defs[i].unit) + "\"}";
  }
  js += "}}";
  std::printf("%s\n", js.c_str());
  std::fflush(stdout);
}

// --- span fold ----------------------------------------------------------------

void SpanFold::add(const vl::obs::TraceBuffer& buf) {
  struct Open {
    const vl::obs::TraceEvent* begin;
    std::uint64_t child = 0;
  };
  std::map<std::uint32_t, std::vector<Open>> lanes;
  for (const vl::obs::TraceEvent& e : buf.events()) {
    ++events_;
    const std::string key = std::string(e.cat) + "/" + e.name;
    if (e.ph == 'i') {
      ++instants_[key];
    } else if (e.ph == 'B') {
      lanes[e.tid].push_back({&e, 0});
    } else if (e.ph == 'E') {
      std::vector<Open>& st = lanes[e.tid];
      if (st.empty() || std::string(st.back().begin->cat) != e.cat ||
          std::string(st.back().begin->name) != e.name) {
        ++mismatched_;
        continue;
      }
      const Open o = st.back();
      st.pop_back();
      const std::uint64_t dur = e.ts - o.begin->ts;
      SpanStat& s = spans_[key];
      ++s.count;
      s.total += dur;
      s.self += dur > o.child ? dur - o.child : 0;
      s.dur.record(dur);
      if (!st.empty()) st.back().child += dur;
    }
  }
}

const SpanStat& SpanFold::span(const std::string& cat_name) const {
  static const SpanStat kEmpty;
  const auto it = spans_.find(cat_name);
  return it == spans_.end() ? kEmpty : it->second;
}

std::string SpanFold::table() const {
  std::vector<std::pair<std::string, const SpanStat*>> rows;
  for (const auto& [k, s] : spans_) rows.emplace_back(k, &s);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->self != b.second->self ? a.second->self > b.second->self
                                            : a.first < b.first;
  });
  vl::TextTable t({"span (cat/name)", "count", "incl_ticks", "self_ticks",
                   "p99_ticks"});
  for (const auto& [k, s] : rows)
    t.add_row({k, std::to_string(s->count), std::to_string(s->total),
               std::to_string(s->self), std::to_string(s->dur.percentile(99))});
  for (const auto& [k, n] : instants_)
    t.add_row({k + " (instant)", std::to_string(n), "-", "-", "-"});
  return t.render();
}

// --- shared metric folds ------------------------------------------------------

void device_layers(Report& r, const vl::StatSet& d, double msgs,
                   double vl_msgs) {
  auto g = [&d](const char* k) { return static_cast<double>(d.get(k)); };
  r.set("sim.events_per_msg", ratio(g("eq.executed"), msgs));
  r.set("core.ctx_switches_per_msg", ratio(g("core.ctx_switches"), msgs));
  r.set("mem.l1_miss_rate",
        ratio(g("mem.l1_misses"), g("mem.l1_hits") + g("mem.l1_misses")));
  r.set("mem.llc_miss_rate",
        ratio(g("mem.llc_misses"), g("mem.llc_hits") + g("mem.llc_misses")));
  r.set("mem.snoops_per_msg", ratio(g("mem.snoops"), msgs));
  r.set("mem.c2c_per_msg", ratio(g("mem.c2c_transfers"), msgs));
  r.set("mem.dram_txns_per_msg",
        ratio(g("mem.dram_reads") + g("mem.dram_writes"), msgs));
  r.set("mem.inject_reject_frac",
        ratio(g("mem.inject_rejects"),
              g("mem.injections") + g("mem.inject_rejects")));
  // vlrd.pushes counts every push attempt, NACKed or not.
  r.set("vlrd.pushes_per_msg", ratio(g("vlrd.pushes"), vl_msgs));
  r.set("vlrd.push_nack_frac", ratio(g("vlrd.push_nacks"), g("vlrd.pushes")));
  r.set("vlrd.push_quota_nack_frac",
        ratio(g("vlrd.push_quota_nacks"), g("vlrd.pushes")));
  r.set("vlrd.fetch_nack_frac", ratio(g("vlrd.fetch_nacks"), g("vlrd.fetches")));
  r.set("vlrd.inject_retry_frac",
        ratio(g("vlrd.inject_retry"), g("vlrd.inject_ok") + g("vlrd.inject_retry")));
}

void span_layers(Report& r, const SpanFold& f, double msgs) {
  r.set("sim.park_ticks",
        ratio(static_cast<double>(f.span("sim/park").self +
                                  f.span("sim/park_any").self),
              msgs));
  r.set("sim.credit_wait_ticks",
        ratio(static_cast<double>(f.span("sim/credit_wait").self), msgs));
  // Channel calls are timed inclusively: what the calling thread waits,
  // parks included.
  vl::traffic::LogHistogram send = f.span("chan/send").dur;
  send.merge(f.span("chan/send_many").dur);
  vl::traffic::LogHistogram recv = f.span("chan/recv").dur;
  recv.merge(f.span("chan/recv_many").dur);
  r.set("chan.send_ticks_mean", send.mean());
  r.set("chan.send_ticks_p99", static_cast<double>(send.percentile(99)));
  r.set("chan.recv_ticks_mean", recv.mean());
  r.set("obs.trace_events_per_msg", ratio(static_cast<double>(f.events()), msgs));
}

}  // namespace perfbench
