// bench_paper — every figure, ablation and extension table of the paper
// reproduction in one binary, with each claim it makes checked.
//
//   bench_paper                          every simulated figure
//   bench_paper --figure fig11,area      just those (--help lists names)
//   bench_paper --out BENCH_paper.json   also write the claim rows
//
// Each figure prints its tables, then its claims: one row per expected
// shape and per paper number, {figure, claim, measured, paper, band, gap}.
// A shape is a strict predicate over one measured number: a ratio against
// 1 ("A below B at every point" is max A/B < 1), or the min/max ratio of
// consecutive points ("grows with N" is min y[i+1]/y[i] > 1). A paper
// number gets the tolerance of the unit test that already asserts it, else
// ±10% relative (±5 points for a percentage). A claim the model does not
// reproduce keeps its wording and records the measured value in `gap`.
//
// Exit 3 when a row's in-band state differs from "records no gap": an
// unrecorded miss fails, and so does a recorded gap that has closed. A bad
// argv or an unknown figure name exits 2. Native figures (fig01, fig02)
// time host threads: they are report-only, carry no claims, run only when
// named, and skip thread counts above the host's CPU count.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/area_model.hpp"
#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "indirect/indirect.hpp"
#include "native/harness.hpp"
#include "native/lockhammer.hpp"
#include "squeue/blfq.hpp"
#include "squeue/latency_channel.hpp"
#include "squeue/locks.hpp"
#include "vlrd/addr_table.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace vl;
using runtime::Machine;
using sim::Co;
using sim::SimThread;
using sim::spawn;
using squeue::Backend;
using squeue::Channel;
using squeue::ChannelFactory;
using workloads::kFig12CompareCost;
using workloads::WorkloadResult;
constexpr Backend kBlfq = Backend::kBlfq, kZmq = Backend::kZmq,
                  kVl = Backend::kVl, kIdeal = Backend::kVlIdeal,
                  kCaf = Backend::kCaf;

std::string num(double v, int digits) { return TextTable::num(v, digits); }
std::string str(std::uint64_t v) { return std::to_string(v); }
std::string g4(double x) {
  char buf[32];
  return std::string(buf, std::snprintf(buf, sizeof buf, "%.4g", x));
}
/// A table row: `label`, then each value at `precision` digits.
std::vector<std::string> row(std::string label, std::vector<double> values,
                             int precision) {
  std::vector<std::string> out = {std::move(label)};
  for (double v : values) out.push_back(num(v, precision));
  return out;
}

/// Print `t` under the section title `head` ("" for none), then `tail`.
void print(const TextTable& t, const std::string& head, const char* tail = "") {
  if (!head.empty()) std::printf("\n-- %s --\n", head.c_str());
  std::printf("%s%s", t.render().c_str(), tail);
}

// --- claim rows --------------------------------------------------------------

/// Where a measured number must lie: (lo, hi), or [lo, hi] when closed.
struct Band {
  double lo, hi;
  bool closed = false;
  bool holds(double x) const {
    return closed ? lo <= x && x <= hi : lo < x && x < hi;
  }
  std::string text() const {
    return (closed ? "[" : "(") + g4(lo) + ", " + g4(hi) + (closed ? "]" : ")");
  }
};
Band below(double x) { return {-HUGE_VAL, x}; }
Band above(double x) { return {x, HUGE_VAL}; }
Band near(double paper, double tol) { return {paper - tol, paper + tol, true}; }
Band rel10(double paper) { return near(paper, 0.1 * paper); }

struct Claim {
  std::string figure, claim;
  double measured;
  std::string paper;
  Band band;
  std::string gap;  ///< Empty unless the model is known to miss the claim.
  bool in_band() const { return band.holds(measured); }
  bool as_recorded() const { return in_band() == gap.empty(); }
};

/// The claim rows of one figure.
struct Claims {
  const char* figure;
  std::vector<Claim> rows;
  void add(std::string claim, double measured, Band band,
           const char* paper = "shape", const char* gap = "") {
    rows.push_back({figure, std::move(claim), measured, paper, band, gap});
  }
};

/// Min and max of y[i+1] / y[i]: min > 1 is "rises at every step", max < 1
/// "falls at every step".
std::pair<double, double> step_range(const std::vector<double>& y) {
  std::vector<double> steps;
  for (std::size_t i = 1; i < y.size(); ++i) steps.push_back(y[i] / y[i - 1]);
  const auto [lo, hi] = std::minmax_element(steps.begin(), steps.end());
  return {*lo, *hi};
}

// --- shared runs -------------------------------------------------------------

/// `kernel` at scale 1 on a fresh machine built from `cfg`, over `b`.
template <class Kernel>
WorkloadResult on(Backend b, const sim::SystemConfig& cfg, Kernel kernel) {
  Machine m(cfg);
  ChannelFactory f(m, b);
  return kernel(m, f, 1);
}
/// `kernel` over VL on a Table III machine whose VLRD config `tweak` edits.
template <class Tweak, class Kernel>
WorkloadResult vl_with(Tweak tweak, Kernel kernel) {
  sim::SystemConfig cfg;
  tweak(cfg.vlrd);
  return on(kVl, cfg, kernel);
}
/// VL incast time with `entries`-deep prodBuf/consBuf managed by `mgmt`.
double incast_ns(std::uint32_t entries,
                 sim::BufferMgmt mgmt = sim::BufferMgmt::kLinkedList) {
  auto buffers = [&](sim::VlrdConfig& v) {
    v.prod_entries = v.cons_entries = entries;
    v.buffer_mgmt = mgmt;
  };
  return vl_with(buffers, workloads::run_incast).ns;
}
/// ping-pong with its default 7-dword (line-sized) messages.
WorkloadResult pingpong(Machine& m, ChannelFactory& f, int scale) {
  return workloads::run_pingpong(m, f, scale);
}

/// Send `n` messages (payload base + i), computing `gap` cycles after each.
Co<void> producer(Channel& ch, SimThread t, int n, Tick gap,
                  std::uint64_t base = 0) {
  for (int i = 0; i < n; ++i) {
    co_await ch.send1(t, base + static_cast<std::uint64_t>(i));
    if (gap) co_await t.compute(gap);
  }
}
/// Receive `n` messages, computing `work` cycles after each; then stamp
/// the finish tick into `done`.
Co<void> consumer(Channel& ch, SimThread t, int n, Tick work,
                  Tick* done = nullptr) {
  for (int i = 0; i < n; ++i) {
    (void)co_await ch.recv1(t);
    if (work) co_await t.compute(work);
  }
  if (done) *done = t.core->eq().now();
}

/// Simulated BLFQ M:1 on the Table III machine, per push: `producers`
/// cores send 150 messages each to core 15. Fig. 1 reads its time and
/// Fig. 4 its coherence events, so each count runs once per process.
struct FanIn { double ns, invalidations, upgrades, snoops; };
const FanIn& blfq_fan_in(int producers) {
  static std::map<int, FanIn> memo;
  if (auto it = memo.find(producers); it != memo.end()) return it->second;
  Machine m;
  squeue::SimBlfq q(m, 4096);
  for (int p = 0; p < producers; ++p)
    spawn(producer(q, m.thread_on(static_cast<CoreId>(p)), 150, 0));
  spawn(consumer(q, m.thread_on(15), producers * 150, 0));
  m.run();
  const auto& st = m.mem().stats();
  const double pushes = producers * 150.0;
  return memo[producers] = {m.ns(m.now()) / pushes,
                            static_cast<double>(st.invalidations) / pushes,
                            static_cast<double>(st.upgrades) / pushes,
                            static_cast<double>(st.snoops) / pushes};
}

/// "" when `threads` host threads fit the host's CPUs, else the row text
/// a native sweep prints instead of an oversubscribed timing.
std::string oversubscribed(int threads) {
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus == 0 || threads <= static_cast<int>(cpus)) return "";
  return "skipped: " + str(threads) + " threads > " + str(cpus) + " CPUs";
}

// --- Fig. 1: BLFQ time per push vs producers (native) ------------------------

void fig01(Claims&) {
  const double floor_ns = native::line_transfer_floor_ns(50000);
  std::printf("\nUnsynchronized line transfer floor (native): %.1f ns "
              "(paper: ~22-34 ns on Platform 1)\n\n",
              floor_ns);
  TextTable t({"producers", "native ns/push", "router ns/push",
               "sim ns/push", "sim/floor ratio"});
  for (int p : {1, 2, 4, 8, 12, 15}) {
    std::string nat = oversubscribed(p), rtr = "-";
    if (nat.empty()) {
      nat = num(native::mpmc_push_scaling(p, 20000).ns_per_push, 1);
      rtr = num(native::router_push_scaling(p, 20000).ns_per_push, 1);
    }
    const double sim = blfq_fan_in(p).ns;
    t.add_row({str(p), nat, rtr, num(sim, 1), num(sim / floor_ns, 2)});
  }
  std::printf("%s\n", t.render().c_str());
}

// --- Fig. 2: lockhammer (native + simulated) ---------------------------------

template <class Lock>
double acquire_ns(int threads) {
  Machine m;
  Lock lock(m);
  for (int c = 0; c < threads; ++c) {
    spawn([](squeue::SimLock& l, SimThread t) -> Co<void> {
      for (int i = 0; i < 40; ++i) {
        co_await l.acquire(t);
        co_await l.release(t);
      }
    }(lock, m.thread_on(static_cast<CoreId>(c))));
  }
  m.run();
  return m.ns(m.now()) / (threads * 40.0);
}

void fig02(Claims&) {
  const std::vector<std::string> header = {
      "threads", "cas_lock", "ticket_lock", "spin_lock", "mcs_lock (ext)"};
  const int threads[] = {1, 2, 4, 8, 14, 16};
  TextTable nat(header);
  for (int th : threads) {
    std::vector<double> ns;
    if (oversubscribed(th).empty())
      for (auto k : {native::LockKind::kCas, native::LockKind::kTicket,
                     native::LockKind::kSpin, native::LockKind::kMcs})
        ns.push_back(native::run_lockhammer(k, th, 4000).ns_per_op);
    nat.add_row(ns.empty() ? std::vector<std::string>{str(th),
                                                      oversubscribed(th)}
                           : row(str(th), ns, 0));
  }
  print(nat, "native host threads");

  TextTable sim(header);
  using squeue::SimCasLock, squeue::SimTicketLock, squeue::SimSpinLock;
  for (int th : threads)
    sim.add_row(row(str(th), {acquire_ns<SimCasLock>(th),
                              acquire_ns<SimTicketLock>(th),
                              acquire_ns<SimSpinLock>(th),
                              acquire_ns<squeue::SimMcsLock>(th)}, 0));
  print(sim, "simulated Table III machine", "\n");
}

// --- Fig. 4: cache events per BLFQ push (+ Fig. 3 trace) ---------------------

void fig04(Claims& c) {
  TextTable t({"producers", "invalidations/push", "S->E upgrades/push",
               "snoops/push"});
  std::vector<double> ns, inv, upg;
  double inv_over_upg = HUGE_VAL;
  for (int p : {1, 2, 4, 6, 8, 10, 12, 15}) {
    const FanIn& e = blfq_fan_in(p);
    ns.push_back(e.ns);
    inv.push_back(e.invalidations);
    upg.push_back(e.upgrades);
    inv_over_upg = std::min(inv_over_upg, e.invalidations / e.upgrades);
    t.add_row(row(str(p), {e.invalidations, e.upgrades, e.snoops}, 2));
  }
  std::printf("%s", t.render().c_str());

  std::printf("\n-- Fig. 3 companion: one atomic line on 3 cores --\n");
  Machine m;
  m.mem().set_trace([&](Tick tick, CoreId core, Addr, const char* what) {
    std::printf("  t=%-6llu core%u %s\n",
                static_cast<unsigned long long>(tick), core, what);
  });
  const Addr lock = m.alloc(kLineSize);
  for (CoreId core = 0; core < 3; ++core) {
    spawn([](SimThread t, Addr a) -> Co<void> {
      for (int i = 0; i < 2; ++i) co_await t.fetch_add64(a, 1);
    }(m.thread_on(core), lock));
  }
  m.run();

  c.add("Fig. 1: simulated BLFQ ns/push rises with producers (min step)",
        step_range(ns).first, above(1));
  c.add("invalidations/push grow with producers (min step)",
        step_range(inv).first, above(1));
  c.add("S->E upgrades/push grow with producers (min step)",
        step_range(upg).first, above(1), "shape",
        "flat near 2.0/push from 2 to 15 producers (2.48 at 6)");
  c.add("invalidations sit above upgrades (min inv/upg)", inv_over_upg,
        above(1), "shape", "equal at 1 producer (1.01/push each)");
}

// --- Fig. 11: the Table II headline ------------------------------------------

void fig11(Claims& c) {
  const char* names[] = {"ping-pong", "halo",    "sweep",   "incast",
                         "FIR",       "bitonic", "pipeline"};
  auto metrics = [](const WorkloadResult& w) {
    return std::vector<double>{w.ns, static_cast<double>(w.mem.snoops),
                               static_cast<double>(w.mem.mem_txns())};
  };
  // v[m][k][b]: metric m (time, snoops, memory transactions) of kernel k
  // on backend b over BLFQ's (0 when BLFQ's is 0).
  std::map<Backend, double> v[3][7];
  for (int k = 0; k < 7; ++k) {
    const auto base = metrics(workloads::run(names[k], {kBlfq}));
    for (Backend b : {kBlfq, kZmq, kVl, kIdeal}) {
      const auto x = b == kBlfq ? base : metrics(workloads::run(names[k], {b}));
      for (int m = 0; m < 3; ++m) v[m][k][b] = base[m] > 0 ? x[m] / base[m] : 0;
    }
  }
  const char* titles[3] = {"(a) execution time / BLFQ",
                           "(b) snoop traffic / BLFQ",
                           "(c) memory transactions / BLFQ"};
  for (int m = 0; m < 3; ++m) {
    TextTable t({"benchmark", "BLFQ", "ZMQ", "VL(ideal)", "VL64"});
    for (int k = 0; k < 7; ++k) {
      auto& x = v[m][k];
      t.add_row(row(names[k], {x[kBlfq], x[kZmq], x[kIdeal], x[kVl]}, 3));
    }
    print(t, std::string("Fig. 11") + char('a' + m) + ": " + titles[m]);
  }

  std::vector<double> speedup;
  double mem_red = 0, vl_vs_sw = 0, snoops = 0, spill = HUGE_VAL;
  double best_but_pp = 0, worst_but_sweep = HUGE_VAL;
  for (int k = 0; k < 7; ++k) {
    speedup.push_back(1 / v[0][k][kVl]);
    if (k != 0) best_but_pp = std::max(best_but_pp, speedup[k]);
    if (k != 2) worst_but_sweep = std::min(worst_but_sweep, speedup[k]);
    mem_red += 100 * (1 - v[2][k][kVl]) / 7;
    vl_vs_sw = std::max(vl_vs_sw, v[0][k][kVl] / std::min(1.0, v[0][k][kZmq]));
    if (k != 4)  // FIR
      snoops = std::max(snoops, v[1][k][kVl] / std::min(1.0, v[1][k][kZmq]));
    if (k == 3 || k == 4) spill = std::min(spill, 1 / v[2][k][kVl]);
  }
  c.add("VL64 geomean speedup over BLFQ", geomean(speedup), rel10(2.09),
        "2.09x", "2.74x: incast (8.85x) and ping-pong (5.71x) lift it");
  c.add("VL64 average memory-traffic reduction (%)", mem_red, near(61, 5),
        "61%");
  c.add("VL64 faster than BLFQ and ZMQ on every kernel (max time ratio)",
        vl_vs_sw, below(1));
  c.add("largest VL64 win on ping-pong (its speedup / best other)",
        speedup[0] / best_but_pp, above(1), "shape",
        "the largest win is incast (8.85x); ping-pong is 5.71x");
  c.add("smallest VL64 win on sweep (its speedup / worst other)",
        speedup[2] / worst_but_sweep, below(1), "shape",
        "the smallest win is pipeline (1.47x); sweep is 1.63x");
  c.add("VL64 snoops lowest except FIR (max VL64/min(BLFQ,ZMQ), not FIR)",
        snoops, below(1));
  c.add("on FIR VL64 snoops are not lowest (VL64/min(BLFQ,ZMQ))",
        v[1][4][kVl] / std::min(1.0, v[1][4][kZmq]), above(1), "shape",
        "VL64 is lowest on FIR too (0.071 of BLFQ)");
  c.add("BLFQ memory traffic explodes on incast and FIR (min BLFQ/VL64)",
        spill, above(2));
}

// --- Fig. 12/13: bitonic scaling ---------------------------------------------

const int kWorkers[] = {1, 3, 7, 15};

void fig12(Claims& c) {
  // s[b][i]: speedup over BLFQ with one worker at kWorkers[i].
  std::map<Backend, std::vector<double>> s;
  for (Backend b : {kBlfq, kZmq, kIdeal, kVl})
    for (int w : kWorkers)
      s[b].push_back(
          workloads::run("bitonic", {b, 2, w, kFig12CompareCost}).ns);
  const double base = s[kBlfq][0];
  for (auto& [b, x] : s)
    for (double& ns : x) ns = base / ns;
  TextTable t({"total threads", "BLFQ", "ZMQ", "VL(ideal)", "VL"});
  for (int i = 0; i < 4; ++i)
    t.add_row(row(str(kWorkers[i] + 1),
                  {s[kBlfq][i], s[kZmq][i], s[kIdeal][i], s[kVl][i]}, 2));
  std::printf("%s\n", t.render().c_str());

  double last_step = 0, sw_peak = 0;
  for (auto& [b, x] : s) {
    last_step = std::max(last_step, x[3] / x[2]);
    if (b == kBlfq || b == kZmq)
      sw_peak = std::max(sw_peak, *std::max_element(x.begin(), x.end()));
  }
  const auto &vl = s[kVl], &blfq = s[kBlfq], &zmq = s[kZmq];
  c.add("VL speedup at 4 threads", vl[1], near(1.9, 0.45), "~1.9x");
  c.add("VL speedup at 8 threads", vl[2], near(2.8, 0.45), "~2.8x");
  c.add("VL keeps gaining from 4 to 8 threads (s8/s4)", vl[2] / vl[1],
        above(1));
  c.add("VL scales furthest (VL peak / best software peak)",
        *std::max_element(vl.begin(), vl.end()) / sw_peak, above(1));
  c.add("ZMQ ahead of BLFQ at 2 and 4 threads (min ZMQ/BLFQ)",
        std::min(zmq[0] / blfq[0], zmq[1] / blfq[1]), above(1), "shape",
        "ZMQ trails BLFQ at 2 threads (0.92 vs 1.00) and 4 (1.20 vs 1.53)");
  c.add("software queues stop gaining past 4 threads (max s8/s4)",
        std::max(blfq[2] / blfq[1], zmq[2] / zmq[1]), below(1));
  c.add("all slow from 8 to 16 threads as the master dominates (max s16/s8)",
        last_step, below(1));
}

void fig13(Claims& c) {
  TextTable t({"total threads", "backend", "snoops", "upgrades",
               "snoops/msg"});
  std::map<Backend, std::vector<double>> ev;  // snoops + upgrades
  for (Backend b : {kBlfq, kZmq, kVl})
    for (int w : kWorkers) {
      const auto r = workloads::run("bitonic", {b, 2, w});
      ev[b].push_back(static_cast<double>(r.mem.snoops + r.mem.upgrades));
      t.add_row({str(w + 1), squeue::to_string(b), str(r.mem.snoops),
                 str(r.mem.upgrades),
                 num(static_cast<double>(r.mem.snoops) / r.messages, 2)});
    }
  std::printf("%s\n", t.render().c_str());

  const auto &vl = ev[kVl], &blfq = ev[kBlfq], &zmq = ev[kZmq];
  double vl_below = 0;
  for (int i = 0; i < 4; ++i)
    vl_below = std::max(vl_below, vl[i] / std::min(blfq[i], zmq[i]));
  c.add("BLFQ and ZMQ snoops+upgrades rise at every step (min step)",
        std::min(step_range(blfq).first, step_range(zmq).first), above(1));
  c.add("VL64 snoops+upgrades below BLFQ's and ZMQ's at every point (max)",
        vl_below, below(1));
  c.add("VL64 stays flatter: its 16/2-thread growth over the software queues'",
        (vl[3] / vl[0]) / std::min(blfq[3] / blfq[0], zmq[3] / zmq[0]),
        below(1), "shape",
        "VL64 grows 42.7x (96 to 4098), BLFQ 19.6x, ZMQ 17.8x");
}

// --- Fig. 14: STREAM interference --------------------------------------------

void fig14(Claims& c) {
  const auto alone = workloads::run_stream_interference(kVl, false).stream;
  TextTable t({"configuration", "STREAM time (us)", "vs alone", "snoops",
               "mem txns", "pingpong msgs"});
  t.add_row({"STREAM (alone)", num(alone.ns / 1000.0, 1), "1.000",
             str(alone.mem.snoops), str(alone.mem.mem_txns()), "0"});
  std::map<Backend, double> added;
  for (Backend b : {kBlfq, kZmq, kVl}) {
    const auto r = workloads::run_stream_interference(b, true);
    const std::string pair = std::string("pingpong(") + to_string(b) + ")";
    added[b] = static_cast<double>(r.stream.mem.snoops) - alone.mem.snoops;
    t.add_row({"STREAM + " + pair, num(r.stream.ns / 1000.0, 1),
               num(r.stream.ns / alone.ns, 3), str(r.stream.mem.snoops),
               str(r.stream.mem.mem_txns()), str(r.pingpong_msgs)});
    // The band is StreamAloneVsWithPingPong's, on every backend.
    c.add("STREAM time beside " + pair + " / alone", r.stream.ns / alone.ns,
          {0.90, 1.10}, "<= 1.02",
          b == kBlfq ? "1.140: BLFQ adds 8615 snoops, 4922 DRAM txns" : "");
  }
  std::printf("%s\n", t.render().c_str());

  c.add("ZMQ adds the most snoops (ZMQ / max(BLFQ, VL64) added)",
        added[kZmq] / std::max(added[kBlfq], added[kVl]), above(1), "shape",
        "BLFQ adds the most: +8615 snoops against ZMQ +5803 and VL64 +32");
  c.add("VL64's added snoops comparable to BLFQ's (VL64 / BLFQ added)",
        added[kVl] / added[kBlfq], rel10(1), "~1",
        "VL64 adds +32 snoops against BLFQ +8615 (0.0037)");
  c.add("VL64's added snoops far below ZMQ's (VL64 / ZMQ added)",
        added[kVl] / added[kZmq], below(1));
}

// --- Fig. 15: VL vs CAF ------------------------------------------------------

void fig15(Claims& c) {
  // ping-pong with 7-dword (56 B) messages: the line-sized payload case;
  // pipeline: pointer messages, 2 KiB payloads through memory.
  const double caf_pp = on(kCaf, {}, pingpong).ns;
  const double vl_pp = on(kVl, {}, pingpong).ns;
  const double caf_pipe = on(kCaf, {}, workloads::run_pipeline).ns;
  const double vl_pipe = on(kVl, {}, workloads::run_pipeline).ns;
  TextTable t({"benchmark", "CAF ns", "VL ns", "VL speedup", "paper"});
  t.add_row({"ping-pong", num(caf_pp, 0), num(vl_pp, 0),
             num(caf_pp / vl_pp, 2), "2.40x"});
  t.add_row({"pipeline", num(caf_pipe, 0), num(vl_pipe, 0),
             num(caf_pipe / vl_pipe, 2), "1.22x"});
  std::printf("%s\n", t.render().c_str());

  c.add("VL speedup over CAF on ping-pong", caf_pp / vl_pp, rel10(2.40),
        "2.40x", "1.25x (CAF 26397 ns, VL 21107 ns)");
  c.add("VL speedup over CAF on pipeline", caf_pipe / vl_pipe, rel10(1.22),
        "1.22x", "0.87x: CAF is faster (69788 ns vs VL 80461 ns)");
  c.add("VL wins bigger on ping-pong than on pipeline (ratio of speedups)",
        (caf_pp / vl_pp) / (caf_pipe / vl_pipe), above(1));
}

// --- Ablation: MESI vs MOESI -------------------------------------------------

void ablation_protocol(Claims& c) {
  double sw_wb = 0, sw_speedup = HUGE_VAL, vl_moesi = 0, vl_shift = 0;
  for (const char* name : {"ping-pong", "incast"}) {
    const workloads::WorkloadInfo* w = workloads::find_workload(name);
    TextTable t({"backend", "MESI ns", "MOESI ns", "speedup", "MESI wbacks",
                 "MOESI wbacks"});
    std::map<Backend, double> moesi_ns;
    for (Backend b : {kBlfq, kZmq, kVl}) {
      WorkloadResult r[2];  // MESI, MOESI
      for (int i = 0; i < 2; ++i) {
        sim::SystemConfig cfg = squeue::config_for(b);
        cfg.cache.protocol = i ? sim::Protocol::kMoesi : sim::Protocol::kMesi;
        r[i] = on(b, cfg, [&](Machine& m, ChannelFactory& f, int) {
          return w->kernel(m, f, {b});
        });
      }
      const double speedup = r[0].ns / r[1].ns;
      moesi_ns[b] = r[1].ns;
      if (b == kVl) {
        vl_shift = std::max(vl_shift, std::fabs(speedup - 1));
      } else {
        sw_speedup = std::min(sw_speedup, speedup);
        sw_wb = std::max(sw_wb, static_cast<double>(r[1].mem.writebacks) /
                                    r[0].mem.writebacks);
      }
      t.add_row({squeue::to_string(b), num(r[0].ns, 0), num(r[1].ns, 0),
                 num(speedup, 3) + "x", str(r[0].mem.writebacks),
                 str(r[1].mem.writebacks)});
    }
    vl_moesi = std::max(vl_moesi, moesi_ns[kVl] / std::min(moesi_ns[kBlfq],
                                                           moesi_ns[kZmq]));
    print(t, name);
  }
  std::printf("\n");
  c.add("MOESI trims the software queues' writebacks (max MOESI/MESI)", sw_wb,
        below(1));
  c.add("MOESI speeds the software queues up (min MESI/MOESI time)",
        sw_speedup, above(1), "shape",
        "BLFQ incast slows (0.970x); ping-pong time is unchanged");
  c.add("gap to VL64 not closed under MOESI (max VL64/min(BLFQ,ZMQ) time)",
        vl_moesi, below(1));
  c.add("VL64 nearly protocol-invariant (max |MESI/MOESI time - 1|)", vl_shift,
        below(0.01));
}

// --- Ablation: VLRD design choices -------------------------------------------

void ablation_vlrd(Claims& c) {
  const std::uint32_t entries[] = {8, 16, 32, 64, 128, 256};
  std::vector<double> depth;
  for (std::uint32_t n : entries) depth.push_back(incast_ns(n));
  TextTable t1({"entries", "incast ns", "vs 64-entry"});
  for (int i = 0; i < 6; ++i)  // entries[3] is Table III's 64
    t1.add_row(
        {str(entries[i]), num(depth[i], 0), num(depth[i] / depth[3], 3)});
  print(t1, "1. prodBuf/consBuf depth under incast (back-pressure)");

  TextTable t2({"device_lat (cyc)", "inject_lat (cyc)", "pingpong ns"});
  const Tick lat[] = {0, 7, 14, 28, 56};
  std::vector<double> pp;
  for (Tick d : lat) {
    auto latency = [d](sim::VlrdConfig& v) {
      v.device_lat = d;
      v.inject_lat = d * 24 / 14;
    };
    pp.push_back(vl_with(latency, pingpong).ns);
    t2.add_row({str(d), str(d * 24 / 14), num(pp.back(), 0)});
  }
  print(t2, "2. device round-trip latency (ping-pong sensitivity)");

  TextTable t3({"dwords/line", "ns per dword"});
  std::vector<double> per_dword;
  for (int w : {1, 2, 4, 7}) {
    const auto r = on(kVl, {}, [w](Machine& m, ChannelFactory& f, int s) {
      return workloads::run_pingpong(m, f, s, w);
    });
    per_dword.push_back(r.ns / static_cast<double>(r.messages * w));
    t3.add_row({str(w), num(per_dword.back(), 2)});
  }
  print(t3, "3. control-region batching (ns per dword moved)", "\n");

  // Linearity: the worst relative miss of the line through the end points.
  double miss = 0;
  for (std::size_t i = 0; i < pp.size(); ++i)
    miss = std::max(miss, std::fabs(pp[0] + (pp.back() - pp[0]) * lat[i] /
                                                lat[4] - pp[i]) / pp[i]);
  c.add("deeper buffers help incast (max step, 8..256 entries)",
        step_range(depth).second, below(1), "shape",
        "8 entries 0.4% faster than 64, 256 entries 0.3% slower");
  c.add("ping-pong slows at every device-latency step (min step)",
        step_range(pp).first, above(1));
  c.add("ping-pong time linear in device latency (max miss of the chord)",
        miss, below(0.1));
  c.add("batching amortizes the push cost per dword (max step)",
        step_range(per_dword).second, below(1));
}

// --- Ablation: extension design points ---------------------------------------

/// QoS isolation: a hog pair floods SQI "hog" while a light pair trickles
/// on SQI "victim"; returns when the victim finishes, with the paper's
/// shared buffer (quota 0) or a CAF-style per-SQI quota.
double victim_ns(std::uint32_t quota) {
  sim::SystemConfig cfg;
  cfg.vlrd.prod_entries = 16;  // small shared buffer: contention matters
  cfg.vlrd.per_sqi_quota = quota;
  Machine m(cfg);
  ChannelFactory f(m, kVl);
  auto hog = f.make("hog", 0, 1);
  auto victim = f.make("victim", 0, 1);
  // Hog: 2 fast producers, 1 slow consumer (the drain keeps it full).
  for (CoreId p = 0; p < 2; ++p) spawn(producer(*hog, m.thread_on(p), 300, 0));
  spawn(consumer(*hog, m.thread_on(8), 600, 500));
  // Victim: light 1:1 traffic; measure when it finishes.
  Tick done = 0;
  spawn(producer(*victim, m.thread_on(4), 50, 200));
  spawn(consumer(*victim, m.thread_on(12), 50, 0, &done));
  m.run();
  return m.ns(done);
}

void ablation_extensions(Claims& c) {
  TextTable t1({"devices", "halo ns", "vs 1 dev", "sweep ns", "vs 1 dev"});
  double halo[3], sweep[3];  // 1, 2, 4 devices
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto devices = [i](auto& v) { v.num_devices = 1u << i; };
    halo[i] = vl_with(devices, workloads::run_halo).ns;
    sweep[i] = vl_with(devices, workloads::run_sweep).ns;
    t1.add_row({str(1u << i), num(halo[i], 0), num(halo[i] / halo[0], 3),
                num(sweep[i], 0), num(sweep[i] / sweep[0], 3)});
  }
  print(t1, "1. routing devices vs many-channel workloads (VL)");

  TextTable t2({"scheme", "pingpong ns", "PA window (per dev)"});
  double ns[2];  // bit-field, addr table
  for (auto mode : {sim::Addressing::kBitField, sim::Addressing::kAddrTable})
    ns[mode == sim::Addressing::kAddrTable] =
        vl_with([mode](auto& v) { v.addressing = mode; }, pingpong).ns;
  const double mib = vlrd::AddrTable::bitfield_window_bytes() / 1048576.0;
  t2.add_row(
      {"bit-field (Fig. 9)", num(ns[0], 0), num(mib, 1) + " MiB reserved"});
  t2.add_row({"addr table (CAM)", num(ns[1], 0), "4 KiB per mapped page"});
  print(t2, "2. addressing scheme: latency vs PA window");

  TextTable t3({"entries", "linked-list ns", "bitvector ns", "bv/ll"});
  std::vector<double> penalty;
  for (std::uint32_t n : {64u, 128u, 256u, 512u, 1024u}) {
    const double ll = incast_ns(n);
    const double bv = incast_ns(n, sim::BufferMgmt::kBitvector);
    penalty.push_back(bv / ll);
    t3.add_row({str(n), num(ll, 0), num(bv, 0), num(bv / ll, 3)});
  }
  print(t3, "3. buffer management vs VLRD size (incast, VL)");

  TextTable t4({"IN buffering", "incast ns", "device NACKs"});
  std::uint64_t nacks[2];
  for (bool coupled : {false, true}) {
    const auto r = vl_with([&](auto& v) { v.coupled_io = coupled; },
                           workloads::run_incast);
    nacks[coupled] = r.vlrd.push_nacks + r.vlrd.fetch_nacks;
    t4.add_row({coupled ? "1 pkt/cycle (coupled)" : "decoupled (paper)",
                num(r.ns, 0), str(nacks[coupled])});
  }
  print(t4, "4. bus/pipeline decoupling under incast bursts (VL)");

  TextTable t5({"per-SQI quota", "victim ns", "vs shared"});
  const double shared = victim_ns(0);
  t5.add_row({"0 (shared, paper)", num(shared, 0), "1.000"});
  double shielded = 0;
  for (std::uint32_t q : {4u, 8u}) {
    const double v = victim_ns(q);
    shielded = std::max(shielded, v / shared);
    t5.add_row({str(q), num(v, 0), num(v / shared, 3)});
  }
  print(t5, "5. QoS: victim completion beside a hog queue (VL)", "\n");

  c.add("4 routing devices beat 1 on halo and sweep (max 4-dev/1-dev)",
        std::max(halo[2] / halo[0], sweep[2] / sweep[0]), below(1), "shape",
        "halo 1.001x and sweep 0.999x of 1 device");
  c.add("the CAM scheme costs extra latency per op (CAM / bit-field)",
        ns[1] / ns[0], above(1));
  c.add("the bitvector scan is slower at every size (min bv/ll)",
        *std::min_element(penalty.begin(), penalty.end()), above(1));
  c.add("the bitvector penalty grows with buffer size (min step of bv/ll)",
        step_range(penalty).first, above(1), "shape",
        "flat at 1.070 from 64 to 256 entries, then 1.140 and 1.209");
  c.add("coupled bus I/O floods incast with NACKs (coupled / decoupled)",
        static_cast<double>(nacks[1]) / nacks[0], above(1));
  c.add("a per-SQI quota shields the victim queue (max quota/shared time)",
        shielded, below(1));
}

// --- § IV-B area estimation --------------------------------------------------

void area(Claims& c) {
  const auto b = arch::AreaModel{sim::VlrdConfig{}}.estimate();
  std::printf("\nTable III configuration (64 entries each):\n");
  TextTable t({"structure", "bits", "KiB"});
  for (auto [name, bits] : {std::pair{"prodBuf", b.prod_buf_bits},
                            {"consBuf", b.cons_buf_bits},
                            {"linkTab", b.link_tab_bits},
                            {"total", b.total_bits}})
    t.add_row({name, str(bits), num(bits / 8.0 / 1024.0, 2)});
  std::printf("%s", t.render().c_str());

  TextTable sweep({"entries", "total KiB", "buffers mm^2", "% of A-72"});
  for (std::uint32_t n : {16u, 32u, 64u, 128u, 256u, 512u}) {
    sim::VlrdConfig cfg;
    cfg.prod_entries = cfg.cons_entries = cfg.link_entries = n;
    const auto e = arch::AreaModel{cfg}.estimate();
    sweep.add_row({str(n), num(e.total_bits / 8.0 / 1024.0, 1),
                   num(e.buffers_mm2, 3), num(e.pct_of_a72, 1)});
  }
  print(sweep, "buffer-depth sweep (design trade-off, § III-A)", "\n");

  // Bands from tests/arch/test_area_model.cpp.
  c.add("VLRD buffers (mm^2, 16 nm)", b.buffers_mm2, near(0.142, 1e-9),
        "0.142");
  c.add("VLRD total (mm^2, 16 nm)", b.total_mm2, near(0.155, 1e-9), "0.155");
  c.add("share of one Arm A-72 core (%)", b.pct_of_a72, near(13, 0.7), "~13%");
  c.add("share of a 16-core SoC (%)", b.pct_of_16core, below(1), "<1%");
}

// --- Extension: bsp collectives ----------------------------------------------

void extension_workloads(Claims& c) {
  double vl_vs_blfq = 0, ideal_vs_vl = 0, zmq_slowest = HUGE_VAL;
  for (const char* name :
       {"allreduce", "scatter-gather", "stencil", "param-server"}) {
    TextTable t({"backend", "exec ns", "vs BLFQ", "ns/msg", "snoops",
                 "mem txns"});
    std::map<Backend, double> ns;
    for (Backend b : {kBlfq, kZmq, kVl, kIdeal, kCaf}) {
      const auto r = workloads::run(name, {b});
      ns[b] = r.ns;
      t.add_row({squeue::to_string(b), num(r.ns, 0),
                 num(ns[kBlfq] / r.ns, 2) + "x", num(r.ns_per_msg(), 1),
                 str(r.mem.snoops), str(r.mem.mem_txns())});
    }
    print(t, name);
    double others = 0;
    for (auto [b, x] : ns)
      if (b != kZmq) others = std::max(others, x);
    vl_vs_blfq = std::max(vl_vs_blfq, ns[kVl] / ns[kBlfq]);
    ideal_vs_vl = std::max(ideal_vs_vl, ns[kIdeal] / ns[kVl]);
    zmq_slowest = std::min(zmq_slowest, ns[kZmq] / others);
  }
  std::printf("\n");
  c.add("VL64 beats BLFQ on every collective (max VL64/BLFQ time)",
        vl_vs_blfq, below(1));
  c.add("VL(ideal) >= VL64 on every collective (max ideal/VL64 time)",
        ideal_vs_vl, {-HUGE_VAL, 1, true});
  c.add("ZMQ slowest on every collective (min ZMQ / slowest other)",
        zmq_slowest, above(1), "shape",
        "ZMQ beats BLFQ on scatter-gather (1.03x) and stencil (1.09x)");
}

// --- Extension: per-message latency tails ------------------------------------

struct Tail { double mean, p50, p99, max; };

/// Steady 1:1 rate-matched traffic (`producers` == 1) or a bursty 15:1
/// incast with staggered producers and a master that works per item.
Tail tail(Backend b, int producers, int per_producer) {
  Machine m(squeue::config_for(b));
  ChannelFactory f(m, b);
  const bool steady = producers == 1;
  auto inner = f.make(steady ? "steady" : "incast", 0, 2);
  squeue::LatencyChannel ch(*inner, m.eq(), m.cfg().ns_per_tick);
  for (int p = 0; p < producers; ++p)
    spawn(producer(ch, m.thread_on(static_cast<CoreId>(p)), per_producer,
                   steady ? 200 : 100 + 37 * static_cast<Tick>(p),
                   static_cast<std::uint64_t>(p) * 1000));
  spawn(consumer(ch, m.thread_on(steady ? 1 : 15), producers * per_producer,
                 steady ? 200 : 150));
  m.run();
  const auto& s = ch.latencies();
  return {s.mean(), s.percentile(50), s.percentile(99), s.percentile(100)};
}

void latency_tail(Claims& c) {
  std::map<Backend, Tail> steady, incast;
  for (auto [title, producers, n, out] :
       {std::tuple{"steady 1:1, rate-matched", 1, 200, &steady},
        {"bursty 15:1 incast", 15, 20, &incast}}) {
    TextTable t({"backend", "mean ns", "P50 ns", "P99 ns", "max ns"});
    for (Backend b : {kBlfq, kZmq, kVl, kIdeal, kCaf}) {
      const Tail r = (*out)[b] = tail(b, producers, n);
      t.add_row(row(squeue::to_string(b), {r.mean, r.p50, r.p99, r.max}, 0));
    }
    print(t, title);
  }
  std::printf("\n");
  auto sw = [](std::map<Backend, Tail>& m, double Tail::*f) {
    return std::min(m[kBlfq].*f, m[kZmq].*f);
  };
  auto growth = [&](Backend b) { return incast[b].p99 / steady[b].p99; };
  c.add("steady: VL64 P50 below the software queues' (VL64/min(BLFQ,ZMQ))",
        steady[kVl].p50 / sw(steady, &Tail::p50), below(1), "shape",
        "VL64 P50 1192 ns against BLFQ 288 and ZMQ 415; VL(ideal) 395");
  c.add("incast: VL64 back-pressure bounds P99 (VL64/min(BLFQ,ZMQ))",
        incast[kVl].p99 / sw(incast, &Tail::p99), below(1));
  c.add("incast P99 grows more for software queues (min sw / VL64 growth)",
        std::min(growth(kBlfq), growth(kZmq)) / growth(kVl), above(1));
}

// --- Extension: indirect (bulk payload) buffers ------------------------------

/// A 2:2 pipeline moving 32 payloads of `bytes` by descriptor, recycling
/// regions through a shared-CAS Treiber list or a channel free list.
WorkloadResult run_bulk(Backend backend, std::size_t bytes, bool channel_pool) {
  constexpr int kPayloads = 32;
  constexpr std::uint32_t kRegions = 16;
  Machine m(squeue::config_for(backend));
  ChannelFactory f(m, backend);
  auto data_ch = f.make("data", 32, 2);
  std::unique_ptr<Channel> free_ch;
  std::unique_ptr<indirect::PoolBase> pool;
  if (channel_pool) {
    free_ch = f.make("freelist", 2 * kRegions, 1);
    auto cp = std::make_unique<indirect::ChannelRegionPool>(m, *free_ch,
                                                            bytes, kRegions);
    spawn(cp->seed(m.thread_on(15)));
    pool = std::move(cp);
  } else {
    pool = std::make_unique<indirect::RegionPool>(m, bytes, kRegions);
  }
  indirect::IndirectChannel ic(m, *data_ch, *pool);
  const std::vector<std::uint8_t> payload(bytes, 0xa5);
  for (CoreId p = 0; p < 2; ++p) {
    spawn([](indirect::IndirectChannel& ic, SimThread t,
             const std::vector<std::uint8_t>* payload) -> Co<void> {
      for (int i = 0; i < kPayloads / 2; ++i)
        co_await ic.send_bytes(t, *payload);
    }(ic, m.thread_on(p), &payload));
  }
  for (CoreId c = 4; c < 6; ++c) {
    spawn([](indirect::IndirectChannel& ic, SimThread t) -> Co<void> {
      for (int i = 0; i < kPayloads / 2; ++i) (void)co_await ic.recv_bytes(t);
    }(ic, m.thread_on(c)));
  }
  m.run();
  return {"indirect", to_string(backend), m.now(), m.ns(m.now()), kPayloads,
          0,          m.mem().stats(),    m.vlrd_stats()};
}

void indirect_buffers(Claims& c) {
  TextTable t1({"bytes", "BLFQ", "ZMQ", "VL", "CAF"});
  std::vector<double> spread;
  double vl_ahead = 0;
  for (std::size_t bytes : {256u, 1024u, 2048u, 4096u}) {
    std::map<Backend, double> ns;
    for (Backend b : {kBlfq, kZmq, kVl, kCaf})
      ns[b] = run_bulk(b, bytes, false).ns_per_msg();
    t1.add_row(row(str(bytes), {ns[kBlfq], ns[kZmq], ns[kVl], ns[kCaf]}, 0));
    double lo = HUGE_VAL, hi = 0, others = HUGE_VAL;
    for (auto [b, x] : ns) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      if (b != kVl) others = std::min(others, x);
    }
    spread.push_back(hi / lo);
    if (bytes <= 1024) vl_ahead = std::max(vl_ahead, ns[kVl] / others);
  }
  print(t1, "payload-size sweep, ns/payload (Treiber pool)");

  TextTable t2({"free list", "ns/payload", "snoops", "upgrades", "DRAM"});
  const auto treiber = run_bulk(kVl, 2048, false);
  const auto chan = run_bulk(kVl, 2048, true);
  for (auto [name, r] : {std::pair{"shared CAS (Treiber)", treiber},
                         {"VL channel-recycled", chan}})
    t2.add_row({name, num(r.ns_per_msg(), 0), str(r.mem.snoops),
                str(r.mem.upgrades), str(r.mem.mem_txns())});
  print(t2, "recycle strategy on VL, 2 KiB payloads", "\n");

  c.add("backends converge as payloads grow (4 KiB / 256 B max/min spread)",
        spread.back() / spread.front(), below(1));
  c.add("VL ahead on small/medium payloads (max VL/best other, <= 1 KiB)",
        vl_ahead, below(1), "shape",
        "CAF is ahead at 256 B (316 vs VL 459 ns) and 1 KiB (762 vs 904 ns)");
  c.add("channel recycling cuts upgrades (channel / Treiber)",
        static_cast<double>(chan.mem.upgrades) / treiber.mem.upgrades,
        below(1));
}

// --- the figure table --------------------------------------------------------

struct Figure {
  const char* name;
  bool native;  ///< Times host threads: report-only, runs only when named.
  const char *title, *what;  ///< The section header.
  void (*run)(Claims&);
};
const Figure kFigures[] = {
    {"fig01", true, "Figure 1",
     "BLFQ time-per-push vs producer count, and the unsynchronized "
     "line-transfer floor",
     fig01},
    {"fig02", true, "Figure 2",
     "lockhammer: ns per acquire vs contending threads", fig02},
    {"fig04", false, "Figure 4",
     "cache events per BLFQ push vs producer count", fig04},
    {"fig11", false, "Figure 11",
     "7 benchmarks x 4 queue schemes on the Table III machine (all values "
     "normalized to BLFQ)",
     fig11},
    {"fig12", false, "Figure 12",
     "bitonic speedup vs total threads (fixed work)", fig12},
    {"fig13", false, "Figure 13",
     "bitonic snoops and S->E upgrades vs total threads", fig13},
    {"fig14", false, "Figure 14",
     "STREAM alone vs STREAM + ping-pong per backend", fig14},
    {"fig15", false, "Figure 15", "VL speedup over CAF", fig15},
    {"ablation-protocol", false, "Ablation (protocol)",
     "MESI vs MOESI under queue traffic", ablation_protocol},
    {"ablation-vlrd", false, "Ablation", "VLRD design-choice sweeps",
     ablation_vlrd},
    {"ablation-extensions", false, "Ablation (extensions)",
     "multi-VLRD / addressing / buffer management", ablation_extensions},
    {"area", false, "Area estimation (§ IV-B)",
     "VLRD storage/area model, calibrated at Table III", area},
    {"extension-workloads", false, "Extension workloads",
     "bsp-native collectives across backends", extension_workloads},
    {"latency-tail", false, "Latency tails (extension)",
     "end-to-end message latency percentiles", latency_tail},
    {"indirect", false, "Indirect buffers (§ III-D extension)",
     "bulk payloads by descriptor, 2:2 pipeline", indirect_buffers},
};

/// Write `rows` as JSON to `path`; false (after a message) on I/O failure.
bool write_json(const std::string& path, const std::vector<Claim>& rows) {
  std::ofstream f(path);
  f << "{\"claims\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Claim& r = rows[i];
    f << (i ? "," : "") << "\n  {\"figure\": " << std::quoted(r.figure)
      << ", \"claim\": " << std::quoted(r.claim) << ", \"measured\": "
      << (std::isfinite(r.measured) ? g4(r.measured) : "null")
      << ", \"paper\": " << std::quoted(r.paper)
      << ", \"band\": " << std::quoted(r.band.text())
      << ", \"in_band\": " << (r.in_band() ? "true" : "false")
      << ", \"gap\": " << std::quoted(r.gap) << "}";
  }
  f << "\n]}\n";
  if (!f) std::perror(path.c_str());
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string names, out;
  std::string help = "comma list of figures (default: all but native):";
  for (const Figure& f : kFigures)
    help += std::string(" ") + f.name + (f.native ? " (native)" : "");
  using vl::bench::flag;
  vl::bench::parse_flags(
      argc, argv,
      {flag("--figure", &names, help.c_str()),
       flag("--out", &out, "write the claim rows as JSON to FILE")});
  std::vector<const Figure*> selected;
  for (std::string_view name : vl::parse::split(names, ',')) {
    const std::size_t before = selected.size();
    for (const Figure& f : kFigures)
      if (names.empty() ? !f.native : name == f.name) selected.push_back(&f);
    if (selected.size() == before) {
      std::fprintf(stderr, "%s: unknown figure '%.*s' (--help lists them)\n",
                   argv[0], static_cast<int>(name.size()), name.data());
      return 2;
    }
  }

  std::vector<Claim> rows;
  std::size_t bad = 0;
  for (const Figure* f : selected) {
    vl::bench::print_header(f->title, f->what);
    Claims c{f->name, {}};
    f->run(c);
    TextTable t({"claim", "measured", "paper", "band", "result"});
    for (const Claim& r : c.rows) {
      bad += !r.as_recorded();
      t.add_row({r.claim, g4(r.measured), r.paper, r.band.text(),
                 r.as_recorded()
                     ? (r.gap.empty() ? "in band" : "gap: " + r.gap)
                     : (r.gap.empty() ? "OUT OF BAND" : "CLOSED: " + r.gap)});
    }
    if (!c.rows.empty()) std::printf("-- claims --\n%s\n", t.render().c_str());
    rows.insert(rows.end(), c.rows.begin(), c.rows.end());
  }
  if (!out.empty() && !write_json(out, rows)) return 1;
  std::printf("%zu claims, %zu not as recorded\n", rows.size(), bad);
  return bad ? 3 : 0;
}
