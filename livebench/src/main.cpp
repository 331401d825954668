// simfs_livebench — one workload of the live end-to-end benchmark.
//
//   simfs_livebench --workload <sweep_resim|posix_mixed|ring_sweep|hot_read|ring_fanin|...>
//                   --seed <n> --seconds <s> --trace <0|1> --dir <scratch>
//                   [--trace-out <file>] --param key=value ...
//
// Prints one JSON object: correctness counts, every metric it measured
// (name -> value + unit), the workload sizes and the provenance of the
// run. Exits 1 when any read failed or returned wrong bytes, or a
// hot workload missed. livebench/run.py builds and runs it.
#include "bench.hpp"

#include "msg/shm_transport.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>

#ifndef LIVEBENCH_BUILD_TYPE
#define LIVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace lb;

/// Host speed reference: the median time (ms) of five runs of a fixed
/// single-threaded computation (producing and verifying 4096 steps). A
/// shared host's speed drifts; runs whose references differ ran on a
/// differently loaded host.
double hostRefMs() {
  const Producer producer(1, kPayloadBytes);
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = nowNs();
    for (StepIndex step = 0; step < 4096; ++step) {
      if (!producer.verify("ref", step, producer.make("ref", step))) fatal("reference");
    }
    ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Steal and busy ticks of all CPUs (/proc/stat; busy counts steal but
/// not idle or I/O wait). Their ratio over a run is the share of the CPU
/// time the VM wanted that the hypervisor gave to someone else.
std::pair<double, double> cpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double v[8] = {};  // user nice system idle iowait irq softirq steal
  for (double& x : v) in >> x;
  return {v[7], v[0] + v[1] + v[2] + v[5] + v[6] + v[7]};
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.emplace_back(name, std::make_pair(value, unit));
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ", ";
      out += jsonString(items_[i].first) + ": {\"value\": " +
             num(items_[i].second.first) +
             ", \"unit\": " + jsonString(items_[i].second.second) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer self time and per-name duration samples. Every instant of a
/// request is credited to exactly one of its spans: the deepest one open
/// at that instant (among equals, the latest started). A span may outlive
/// its parent - msg.ack runs from the send inside dvlib.acquire to the
/// reply, which lands between calls or inside dvlib.wait - and then takes
/// that time from whichever span is open, so nothing is counted twice.
/// Spans outside any request (evictions on daemon threads) count in full.
struct TraceSummary {
  std::map<std::string, double> selfNs;
  double totalSelfNs = 0;
  std::map<SpanName, Samples> durUs;
};

TraceSummary summarize(const std::vector<Span>& spans) {
  TraceSummary sum;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> byRequest;
  for (const auto& s : spans) {
    sum.durUs[s.name].add(static_cast<double>(s.end - s.start) * 1e-3);
    byRequest[s.request].push_back(&s);
  }
  auto credit = [&sum](const Span& s, std::int64_t ns) {
    std::string layer = spanNameText(s.name);
    layer = layer.substr(0, layer.find('.'));
    sum.selfNs[layer] += static_cast<double>(ns);
    sum.totalSelfNs += static_cast<double>(ns);
  };
  for (const auto& [request, group] : byRequest) {
    if (request == 0) {
      for (const Span* s : group) credit(*s, s->end - s->start);
      continue;
    }
    // Requests hold a handful of spans: quadratic scans are cheap.
    const std::size_t n = group.size();
    std::vector<std::size_t> depth(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::uint64_t parent = group[i]->parent; parent != 0 && depth[i] < n;) {
        const auto it = std::find_if(group.begin(), group.end(),
                                     [parent](const Span* s) { return s->id == parent; });
        if (it == group.end()) break;
        ++depth[i];
        parent = (*it)->parent;
      }
    }
    std::vector<std::int64_t> cuts;
    for (const Span* s : group) {
      cuts.push_back(s->start);
      cuts.push_back(s->end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
      const std::int64_t a = cuts[k], b = cuts[k + 1];
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (group[i]->start > a || group[i]->end < b) continue;
        if (best == n ||
            std::tie(depth[i], group[i]->start, group[i]->id) >
                std::tie(depth[best], group[best]->start, group[best]->id)) {
          best = i;
        }
      }
      if (best != n) credit(*group[best], b - a);
    }
  }
  return sum;
}

/// Writes the spans of every stride-th request (all spans when they are
/// few): whole requests survive, so parents stay resolvable, and the
/// file stays near kMaxWritten spans however long the run was.
void writeTrace(const std::string& path, const std::vector<Span>& spans) {
  constexpr std::size_t kMaxWritten = 200'000;
  const std::uint64_t stride = spans.size() / kMaxWritten + 1;
  std::ofstream out(path, std::ios::trunc);
  for (const auto& s : spans) {
    if (s.request % stride != 0) continue;
    out << "{\"name\":\"" << spanNameText(s.name) << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: simfs_livebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --dir <scratch> "
               "[--trace-out <file>] --param key=value ...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string traceOut;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      cfg.workload = v;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = v == "1";
    } else if (arg == "--dir") {
      cfg.dir = v;
    } else if (arg == "--trace-out") {
      traceOut = v;
    } else if (arg == "--param") {
      const auto eq = v.find('=');
      if (eq == std::string::npos) return usage();
      cfg.params.set(v.substr(0, eq), v.substr(eq + 1));
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.dir.empty() || !(cfg.seconds > 0)) return usage();

  const auto ticks0 = cpuTicks();
  const double hostRef = hostRefMs();
  Tracer tracer;
  if (cfg.trace) Tracer::install(&tracer);
  makeEmptyDir(cfg.dir);

  RunOutput out;
  // The *_pressure workloads reuse the sweep / posix workload code with the
  // cache smaller than the working set (README.md, "Known defects").
  if (cfg.workload == "sweep_resim" || cfg.workload == "ring_sweep" ||
      cfg.workload == "sweep_pressure") {
    out = runSweepResim(cfg);
  } else if (cfg.workload == "hot_read") {
    out = runHotRead(cfg);
  } else if (cfg.workload == "ring_fanin") {
    out = runRingFanin(cfg);
  } else if (cfg.workload == "posix_mixed" || cfg.workload == "posix_pressure") {
    out = runPosixMixed(cfg);
  } else {
    return usage();
  }
  removeTree(cfg.dir);

  const auto& b = out.before;
  const auto& a = out.after;
  const double opens = static_cast<double>(a.stats.opens - b.stats.opens);
  const double misses = static_cast<double>(a.stats.misses - b.stats.misses);
  const double replicaHits = static_cast<double>(a.replicaHits - b.replicaHits);
  const bool hot = cfg.workload == "hot_read" || cfg.workload == "ring_fanin";

  Metrics m;
  // End to end (what an analysis or an operator sees).
  m.add("setup_s", out.setupS, "s");
  m.add("files_per_s", ratio(static_cast<double>(out.verified), out.seconds), "1/s");
  m.add("open_p50_us", out.openUs.pct(50), "us");
  m.add("open_p99_us", out.openUs.pct(99), "us");
  for (const int q : {10, 25, 75, 90, 95}) {
    m.add("open_p" + std::to_string(q) + "_us", out.openUs.pct(q), "us");
  }
  m.add("analysis_s", out.analysisS.pct(50), "s");
  m.add("store_peak_mb", static_cast<double>(out.store.peakBytes) / 1e6, "MB");
  m.add("peak_rss_mb", peakRssMb(), "MB");
  m.add("resim_steps_per_access",
        ratio(static_cast<double>(a.stats.stepsProduced - b.stats.stepsProduced),
              static_cast<double>(out.readsTotal)),
        "ratio");
  m.add("fail_frac",
        ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
        "ratio");
  if (hot) m.add("gen_lag_us", out.genLagUs.pct(99), "us");
  m.add("open_samples", static_cast<double>(out.openUs.size()), "count");
  m.add("analysis_samples", static_cast<double>(out.analysisS.size()), "count");

  // Per layer: daemon counters over the timed region.
  m.add("dv.batch_mean",
        ratio(static_cast<double>(a.served - b.served),
              static_cast<double>(a.batches - b.batches)),
        "count");
  m.add("dv.max_batch", static_cast<double>(a.maxBatch), "count");
  m.add("dv.shed", static_cast<double>(a.shed - b.shed), "count");
  m.add("dv.notifications",
        static_cast<double>(a.stats.notifications - b.stats.notifications), "count");
  m.add("dv.waiters_expired",
        static_cast<double>(a.stats.waitersExpired - b.stats.waitersExpired), "count");
  m.add("cache.hit_ratio",
        ratio(static_cast<double>(a.stats.hits - b.stats.hits) + replicaHits,
              opens + replicaHits),
        "ratio");
  m.add("cache.misses", misses, "count");
  m.add("cache.evictions", static_cast<double>(a.stats.evictions - b.stats.evictions),
        "count");
  m.add("cache.resident_steps_peak", static_cast<double>(out.store.peakFiles), "count");
  m.add("prefetch.jobs", static_cast<double>(a.stats.prefetchJobs - b.stats.prefetchJobs),
        "count");
  m.add("prefetch.demand_jobs",
        static_cast<double>(a.stats.demandJobs - b.stats.demandJobs), "count");
  m.add("prefetch.jobs_killed",
        static_cast<double>(a.stats.jobsKilled - b.stats.jobsKilled), "count");
  m.add("prefetch.agent_resets",
        static_cast<double>(a.stats.agentResets - b.stats.agentResets), "count");
  m.add("prefetch.stall_frac",
        ratio(static_cast<double>(out.stalls), static_cast<double>(out.probed)), "ratio");
  m.add("simulator.jobs", static_cast<double>(out.jobs), "count");
  m.add("simulator.steps",
        static_cast<double>(a.stats.stepsProduced - b.stats.stepsProduced), "count");
  m.add("simulator.max_active", static_cast<double>(out.maxActive), "count");
  m.add("vfs.bytes_written", static_cast<double>(out.store.bytesWritten), "B");
  m.add("vfs.bytes_read", static_cast<double>(out.store.bytesRead), "B");
  m.add("vfs.write_per_read",
        ratio(static_cast<double>(out.store.bytesWritten),
              static_cast<double>(out.store.bytesRead)),
        "ratio");
  m.add("cluster.replica_share", ratio(replicaHits, opens + replicaHits), "ratio");
  m.add("cluster.not_leased", static_cast<double>(a.notLeased - b.notLeased), "count");
  m.add("cluster.redirects", static_cast<double>(a.redirects - b.redirects), "count");
  m.add("cluster.lease_grants", static_cast<double>(a.leaseGrants - b.leaseGrants),
        "count");

  if (cfg.trace) {
    Tracer::install(nullptr);
    const std::vector<Span> spans = tracer.collect();
    const TraceSummary sum = summarize(spans);
    auto dur = [&](SpanName n, double pct) {
      const auto it = sum.durUs.find(n);
      return it == sum.durUs.end() ? 0.0 : it->second.pct(pct);
    };
    auto has = [&](SpanName n) { return sum.durUs.count(n) != 0; };
    m.add("msg.ack_rtt_p50_us", dur(SpanName::kMsgAck, 50), "us");
    m.add("msg.ack_rtt_p99_us", dur(SpanName::kMsgAck, 99), "us");
    m.add("vfs.read_p50_us", dur(SpanName::kVfsRead, 50), "us");
    m.add("vfs.read_p99_us", dur(SpanName::kVfsRead, 99), "us");
    // Layer-specific timings: emitted only where the layer is on the
    // workload's path.
    const std::pair<const char*, std::pair<SpanName, double>> optional[] = {
        {"dvlib.acquire_call_p50_us", {SpanName::kDvlibAcquire, 50}},
        {"dvlib.wait_p50_us", {SpanName::kDvlibWait, 50}},
        {"dvlib.wait_p99_us", {SpanName::kDvlibWait, 99}},
        {"dvlib.release_call_p50_us", {SpanName::kDvlibRelease, 50}},
        {"posix.readdir_p50_us", {SpanName::kPosixReaddir, 50}},
        {"posix.open_p50_us", {SpanName::kPosixOpen, 50}},
        {"posix.wait_p50_us", {SpanName::kPosixWait, 50}},
        {"posix.close_p50_us", {SpanName::kPosixClose, 50}},
        {"vfs.put_p50_us", {SpanName::kVfsPut, 50}},
        {"vfs.put_p99_us", {SpanName::kVfsPut, 99}},
        {"vfs.remove_p50_us", {SpanName::kVfsRemove, 50}},
        {"vfs.remove_p99_us", {SpanName::kVfsRemove, 99}},
    };
    for (const auto& [name, what] : optional) {
      if (has(what.first)) m.add(name, dur(what.first, what.second), "us");
    }
    if (out.restartMs.size() != 0) {
      m.add("simulator.restart_p50_ms", out.restartMs.pct(50), "ms");
    }
    m.add("simulator.useful_ratio",
          ratio(static_cast<double>(out.store.useful),
                static_cast<double>(out.store.produced)),
          "ratio");
    for (const char* layer :
         {"analysis", "bench", "dvlib", "msg", "posix", "simulator", "vfs"}) {
      const auto it = sum.selfNs.find(layer);
      const double self = it == sum.selfNs.end() ? 0.0 : it->second;
      m.add(std::string("self_share.") + layer, ratio(self, sum.totalSelfNs), "ratio");
      m.add(std::string("self_us_per_read.") + layer,
            ratio(self * 1e-3, static_cast<double>(out.readsTotal)), "us");
    }
    m.add("trace.spans", static_cast<double>(spans.size()), "count");
    if (!traceOut.empty()) writeTrace(traceOut, spans);
  }

  const auto ticks1 = cpuTicks();
  const double stealFrac = ratio(ticks1.first - ticks0.first, ticks1.second - ticks0.second);
  const bool correct = out.attempted > 0 && out.failed == 0 &&
                       out.mismatches == 0 && (!hot || misses == 0);
  std::ostringstream sizes;
  sizes << "{";
  bool first = true;
  for (const auto& [k, v] : out.sizes) {
    sizes << (first ? "" : ", ") << jsonString(k) << ": " << v;
    first = false;
  }
  sizes << "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"mismatches\": %" PRIu64 ", \"metrics\": %s, \"sizes\": %s, "
      "\"provenance\": {\"nproc\": %u, \"build_type\": %s, "
      "\"reactor_backend\": %s, \"data_plane\": %s, \"setup_reps_s\": [%s], "
      "\"warmup_s\": %s, \"host_ref_ms\": %s, \"steal_frac\": %s}}\n",
      jsonString(cfg.workload).c_str(), cfg.seed, cfg.trace ? 1 : 0,
      correct ? "true" : "false", out.attempted, out.failed, out.mismatches,
      m.json().c_str(), sizes.str().c_str(), std::thread::hardware_concurrency(),
      jsonString(LIVEBENCH_BUILD_TYPE).c_str(),
      jsonString(std::string(simfs::msg::reactorBackendName())).c_str(),
      jsonString(simfs::msg::shmNegotiationEnabled() ? "shm-negotiated" : "socket")
          .c_str(),
      [&] {
        std::string s;
        for (std::size_t i = 0; i < out.setupReps.size(); ++i) {
          s += (i ? ", " : "") + num(out.setupReps[i]);
        }
        return s;
      }()
          .c_str(),
      num(out.warmupS).c_str(), num(hostRef).c_str(), num(stealFrac).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
