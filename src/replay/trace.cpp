#include "replay/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "common/parse.hpp"
#include "replay/wire.hpp"

namespace vl::replay {

namespace {

constexpr char kMagic[4] = {'V', 'L', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;
/// tick, tenant, pid, cls, words, dst
constexpr std::size_t kRecordBytes = 22;
/// CSV data columns and each column's largest value.
constexpr char kColumns[] = "tick,tenant,producer,class,words,dst";
constexpr std::uint64_t kColumnMax[] = {UINT64_MAX, UINT16_MAX, UINT16_MAX,
                                        kQosClasses - 1, 7, UINT64_MAX};

}  // namespace

std::string Trace::csv() const {
  std::string out;
  out += "# scenario=" + scenario + "\n";
  out += "# backend=" + backend + "\n";
  out += "# seed=" + std::to_string(seed) + "\n";
  out += "# producers=" + std::to_string(producers) + "\n";
  out += "# tenants=" + std::to_string(tenants) + "\n";
  out += "# sharded=" + std::to_string(sharded ? 1 : 0) + "\n";
  out += std::string(kColumns) + "\n";
  char buf[96];
  for (const auto& r : records) {
    std::snprintf(buf, sizeof buf, "%llu,%u,%u,%u,%u,%llu\n",
                  static_cast<unsigned long long>(r.tick), r.tenant, r.pid,
                  static_cast<unsigned>(r.cls), r.words,
                  static_cast<unsigned long long>(r.dst));
    out += buf;
  }
  return out;
}

Trace Trace::parse_csv(const std::string& text) {
  Trace t;
  const auto columns = parse::split(kColumns, ',');
  std::size_t lineno = 0;
  bool header_seen = false;
  for (std::string_view l : parse::split(text, '\n')) {
    const std::string line(l);
    ++lineno;
    if (line.empty()) continue;
    try {
      if (line[0] == '#') {  // `# key=value` metadata; other comments skip
        const std::size_t eq = line.find('=');
        if (line.rfind("# ", 0) != 0 || eq == std::string::npos ||
            eq + 1 == line.size())
          continue;
        const std::string key = line.substr(2, eq - 2), v = line.substr(eq + 1);
        if (key == "scenario") t.scenario = v;
        else if (key == "backend") t.backend = v;
        else if (key == "seed") t.seed = parse::to_u64(v, UINT64_MAX, key);
        else if (key == "producers")
          t.producers =
              static_cast<std::uint32_t>(parse::to_u64(v, UINT32_MAX, key));
        else if (key == "tenants")
          t.tenants =
              static_cast<std::uint32_t>(parse::to_u64(v, UINT32_MAX, key));
        else if (key == "sharded") t.sharded = parse::to_u64(v, 1, key) == 1;
        continue;
      }
      if (!header_seen) {  // the column-name row
        if (line != kColumns)
          throw std::invalid_argument("expected the header row " +
                                      std::string(kColumns));
        header_seen = true;
        continue;
      }
      const auto f = parse::split(line, ',');
      if (f.size() != columns.size())
        throw std::invalid_argument("expected 6 fields, got " +
                                    std::to_string(f.size()));
      std::uint64_t v[6];
      for (std::size_t i = 0; i < 6; ++i)
        v[i] = parse::to_u64(f[i], kColumnMax[i], columns[i]);
      if (v[4] < 1) throw std::invalid_argument("words must be >= 1");
      t.records.push_back({v[0], static_cast<std::uint16_t>(v[1]),
                           static_cast<std::uint16_t>(v[2]),
                           static_cast<QosClass>(v[3]),
                           static_cast<std::uint8_t>(v[4]), v[5]});
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("trace csv: line " + std::to_string(lineno) +
                                  ": " + e.what());
    }
  }
  if (!header_seen)
    throw std::invalid_argument("trace csv: missing header row");
  return t;
}

std::string Trace::binary() const {
  using wire::put;
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put(out, kVersion);
  wire::put_str(out, scenario);
  wire::put_str(out, backend);
  put(out, seed);
  put(out, producers);
  put(out, tenants);
  put<std::uint8_t>(out, sharded ? 1 : 0);
  put<std::uint64_t>(out, records.size());
  for (const auto& r : records) {
    put(out, r.tick);
    put(out, r.tenant);
    put(out, r.pid);
    put(out, static_cast<std::uint8_t>(r.cls));
    put(out, r.words);
    put(out, r.dst);
  }
  return out;
}

Trace Trace::parse_binary(const std::string& bytes) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    throw std::invalid_argument("trace: bad magic (not a VLTR file)");
  wire::Reader in(bytes, "trace");
  in.skip(sizeof kMagic);
  const auto ver = in.get<std::uint32_t>();
  if (ver != kVersion) in.fail("unsupported version " + std::to_string(ver));
  Trace t;
  t.scenario = in.str();
  t.backend = in.str();
  t.seed = in.get<std::uint64_t>();
  t.producers = in.get<std::uint32_t>();
  t.tenants = in.get<std::uint32_t>();
  const auto sharded = in.get<std::uint8_t>();
  if (sharded > 1) in.fail("bad sharded byte");
  t.sharded = sharded == 1;
  const auto n = in.get<std::uint64_t>();
  if (n > in.remaining() / kRecordBytes)
    in.fail("record count " + std::to_string(n) +
            " exceeds the remaining bytes");
  t.records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.tick = in.get<std::uint64_t>();
    r.tenant = in.get<std::uint16_t>();
    r.pid = in.get<std::uint16_t>();
    const auto cls = in.get<std::uint8_t>();
    if (cls >= kQosClasses) in.fail("bad class byte");
    r.cls = static_cast<QosClass>(cls);
    r.words = in.get<std::uint8_t>();
    if (r.words < 1 || r.words > 7) in.fail("bad words byte");
    r.dst = in.get<std::uint64_t>();
    t.records.push_back(r);
  }
  in.finish();
  return t;
}

bool Trace::save(const std::string& path) const {
  const bool as_csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  const std::string body = as_csv ? csv() : binary();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (n != body.size()) std::fclose(f);
  return ok;
}

Trace Trace::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::invalid_argument("trace: cannot open " + path);
  const std::string body{std::istreambuf_iterator<char>(f),
                         std::istreambuf_iterator<char>()};
  if (body.size() >= 4 && std::memcmp(body.data(), kMagic, 4) == 0)
    return parse_binary(body);
  return parse_csv(body);
}

void TraceRecorder::begin(const std::string& scenario,
                          const std::string& backend, std::uint64_t seed,
                          std::uint32_t producers, std::uint32_t tenants,
                          bool sharded) {
  meta_.scenario = scenario;
  meta_.backend = backend;
  meta_.seed = seed;
  meta_.producers = producers;
  meta_.tenants = tenants;
  meta_.sharded = sharded;
  streams_.assign(producers, {});
}

Trace TraceRecorder::finish() const {
  Trace t = meta_;
  std::size_t total = 0;
  for (const auto& s : streams_) total += s.size();
  t.records.reserve(total);
  // Merge by (tick, pid): streams are individually tick-ordered, so a
  // stable merge keyed on tick with pid as the tiebreak gives one total
  // order no host-thread interleaving can perturb.
  std::vector<std::size_t> cursor(streams_.size(), 0);
  for (std::size_t filled = 0; filled < total; ++filled) {
    std::size_t best = streams_.size();
    for (std::size_t p = 0; p < streams_.size(); ++p) {
      if (cursor[p] >= streams_[p].size()) continue;
      if (best == streams_.size() ||
          streams_[p][cursor[p]].tick < streams_[best][cursor[best]].tick)
        best = p;
    }
    t.records.push_back(streams_[best][cursor[best]++]);
  }
  return t;
}

TraceArrival::TraceArrival(const Trace& trace, std::uint16_t pid)
    : trace_(&trace) {
  for (std::uint32_t i = 0; i < trace.records.size(); ++i)
    if (trace.records[i].pid == pid) idx_.push_back(i);
}

}  // namespace vl::replay
