// posix_mixed: the unmodified-binary path (posix::PosixVfs, the core the
// FUSE server and the preload shim sit on) over several contexts sharing
// one flat store.
//
// Each analysis is a fresh PosixVfs, as one run of an unmodified tool
// would be: it lists a Zipf-chosen context through readdir (which fires
// the listing's vectored prefetch batch), then runs open -> waitReady ->
// store read -> close over a few runs of consecutive steps at Zipf-chosen
// offsets among the resident popular runs, plus one short run of steps
// nobody read yet, which the DV re-simulates: simulator writes land
// beside the reads, and short runs at random offsets give the prefetcher
// little sequential signal. The timings are the paper's FLASH runs
// (tau_sim = 14 s, alpha = 7 s, restart every 20 output steps, s_max = 8),
// scaled by kTimeScale; runs are one restart interval long and start at
// a restart step. With quota_steps below the working set this is the
// cache-pressure probe. An analysis reads each step at most once:
// re-opening a listed step after reading and closing it blocks waitReady
// forever. Both are SimFS defects; see README.md, "Known defects".
#include "bench.hpp"

#include "posix/vfs_core.hpp"

#include <atomic>
#include <set>
#include <thread>

namespace lb {

using namespace simfs;

namespace {

constexpr std::size_t kContexts = 4;
constexpr std::int64_t kDeltaR = 20;    ///< FLASH: restart every 0.1 s of 0.005-s steps
constexpr int kAnalyses = 2;            ///< concurrent analyses (threads)
constexpr std::size_t kRuns = 3;        ///< popular runs per analysis
constexpr std::int64_t kRunLen = kDeltaR;
constexpr std::int64_t kFreshLen = 4;   ///< steps of the one re-simulated run
constexpr double kZipfCtx = 1.0;
constexpr double kZipfOff = 1.0;

struct PosixStack {
  std::unique_ptr<TimedStore> store;
  std::vector<Node> nodes;
};

}  // namespace

RunOutput runPosixMixed(const RunConfig& cfg) {
  const Params& p = cfg.params;
  const std::size_t contexts = kContexts;
  std::vector<simmodel::ContextConfig> cfgs;
  ContextSpec spec;
  spec.steps = p.i("steps");
  spec.deltaR = kDeltaR;
  spec.quotaSteps = p.i("quota_steps");
  spec.tauSimMs = p.d("tau_sim_s") * kTimeScale * 1e3;
  spec.alphaMs = p.d("alpha_s") * kTimeScale * 1e3;
  spec.nameByContext = true;
  for (std::size_t c = 0; c < contexts; ++c) {
    spec.name = "pm" + std::to_string(c);
    cfgs.push_back(makeContext(spec));
  }
  const Producer producer(cfg.seed, kPayloadBytes);
  const int analyses = kAnalyses;
  const std::size_t runs = kRuns;
  const std::int64_t runLen = kRunLen;
  const auto pageSize = static_cast<std::size_t>(p.i("readdir_page"));
  const std::int64_t freshLen = kFreshLen;
  const auto runSlots = static_cast<std::size_t>(spec.steps / runLen);
  const auto seededSlots = static_cast<std::size_t>(p.i("seeded_slots"));
  if (seededSlots < runs || seededSlots >= runSlots) {
    fatal("posix_mixed: need kRuns <= seeded_slots < run slots");
  }
  const Zipf zipfCtx(contexts, kZipfCtx);
  const Zipf zipfOff(seededSlots, kZipfOff);
  // Per context: how many never-read slots fresh runs have taken so far.
  std::vector<std::atomic<std::size_t>> freshTaken(contexts);

  // Popularity: Zipf rank -> context, and per context rank -> run slot.
  std::uint64_t rng = cfg.seed * 0x2545f4914f6cdd1dULL + 5;
  auto shuffled = [&rng](std::size_t n) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[splitmix64(rng) % i]);
    return v;
  };
  const std::vector<std::size_t> ctxByRank = shuffled(contexts);
  std::vector<std::vector<std::size_t>> slotByRank;
  for (std::size_t c = 0; c < contexts; ++c) slotByRank.push_back(shuffled(runSlots));

  // Initial output: each context's `seeded_slots` most popular runs are
  // on disk, the rest is re-simulated on first touch.
  makeEmptyDir(cfg.dir + "/store");
  for (std::size_t ci = 0; ci < contexts; ++ci) {
    for (std::size_t r = 0; r < seededSlots; ++r) {
      const auto first = static_cast<StepIndex>(slotByRank[ci][r]) * runLen;
      writeInitialOutput(cfg.dir + "/store", producer, cfgs[ci], first, first + runLen);
    }
  }
  RunOutput out;
  auto stack = repeatSetup<PosixStack>(
      static_cast<int>(p.i("setup_reps")), out, [&] {
        const std::string& dir = cfg.dir;
        auto s = std::make_unique<PosixStack>();
        s->store = std::make_unique<TimedStore>(
            std::make_unique<vfs::DiskFileStore>(dir + "/store"));
        s->nodes.push_back(makeNode(daemonOptions(), *s->store, cfgs, producer,
                                    dir + "/dv0.sock"));
        for (std::size_t ci = 0; ci < contexts; ++ci) {
          for (std::size_t r = 0; r < seededSlots; ++r) {
            const auto first = static_cast<StepIndex>(slotByRank[ci][r]) * runLen;
            for (StepIndex st = first; st < first + runLen; ++st) {
              seedStep(s->nodes[0], *s->store, cfgs[ci], st);
            }
          }
        }
        return s;
      },
      [](PosixStack&) {});
  const std::string socket = stack->nodes[0].socket;

  stack->store->markTimedStart();
  stack->nodes[0].launcher->markTimedStart();
  out.before = sampleDaemons(stack->nodes);
  const std::int64_t start = nowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<Tally> tallies(static_cast<std::size_t>(analyses));
  std::vector<std::thread> threads;
  for (int a = 0; a < analyses; ++a) {
    threads.emplace_back([&, a] {
      Tally& t = tallies[static_cast<std::size_t>(a)];
      std::uint64_t arng = cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(a) + 1;
      while (nowNs() < end) {
        const std::int64_t analysisStart = nowNs();
        bool complete = true;
        {
          posix::PosixVfs::Options opts = posix::PosixVfs::socketOptions(socket);
          opts.connect = [&socket](const std::string&) { return dial(socket); };
          posix::PosixVfs vfs(std::move(opts));
          const std::size_t ci = ctxByRank[zipfCtx.sample(arng)];
          const simmodel::ContextConfig& c = cfgs[ci];
          // `ls`: page through the whole listing (one traced request).
          const Request list = beginRequest();
          std::int64_t listed = 0;
          for (bool more = true; more;) {
            EnterRequest in(list);
            ScopedSpan span(SpanName::kPosixReaddir);
            const auto page = vfs.readdir(c.name, listed, pageSize);
            if (!page.isOk()) {
              noteFailure("readdir", page.status().toString());
              t.failRead();
              complete = false;
              break;
            }
            listed += static_cast<std::int64_t>(page->names.size());
            more = page->more;
          }
          endRequest(list, SpanName::kAnalysisList);
          if (listed != spec.steps) complete = false;
          // `runs` popular runs (distinct resident slots: no step is read
          // twice in one analysis), then one run of fresh steps that must
          // be re-simulated.
          std::set<std::size_t> popular;
          while (complete && popular.size() < runs) {
            popular.insert(slotByRank[ci][zipfOff.sample(arng)]);
          }
          std::vector<std::pair<std::size_t, std::int64_t>> plan;
          for (const std::size_t slot : popular) plan.emplace_back(slot, runLen);
          const std::size_t fresh =
              seededSlots + freshTaken[ci].fetch_add(1) % (runSlots - seededSlots);
          plan.emplace_back(slotByRank[ci][fresh], freshLen);
          for (const auto& [slot, len] : plan) {
            for (std::int64_t k = 0; k < len && complete; ++k) {
              if (nowNs() >= end) {
                complete = false;
                break;
              }
              const StepIndex step = static_cast<StepIndex>(slot) * runLen + k;
              const std::string file = c.codec.outputFile(step);
              const Request req = beginRequest();
              EnterRequest in(req);
              Result<posix::PosixVfs::OpenedFile> opened =
                  errUnavailable("not opened");
              {
                ScopedSpan span(SpanName::kPosixOpen);
                opened = vfs.open(c.name, file);
              }
              if (!opened.isOk()) {
                noteFailure("posix open", opened.status().toString());
                t.failRead();
                endRequest(req, SpanName::kAnalysisRead);
                continue;
              }
              Status st;
              {
                ScopedSpan span(SpanName::kPosixWait);
                st = vfs.waitReady(opened->id);
              }
              if (st.isOk()) {
                t.openUs.add(static_cast<double>(nowNs() - req.start) * 1e-3);
                t.read(readVerify(*stack->store, producer, c.name, step,
                                  opened->storeName),
                       true);
              } else {
                noteFailure("posix waitReady", st.toString());
                t.failRead();
              }
              {
                ScopedSpan span(SpanName::kPosixClose);
                vfs.close(opened->id);
              }
              endRequest(req, SpanName::kAnalysisRead);
            }
          }
        }  // the analysis exits: its sessions close
        if (complete) {
          t.analysisS.add(static_cast<double>(nowNs() - analysisStart) * 1e-9);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = static_cast<double>(nowNs() - start) * 1e-9;
  out.after = sampleDaemons(stack->nodes);
  for (const auto& t : tallies) mergeTally(t, out);
  // PosixVfs keeps the ack probe to itself: an open that found its step
  // not resident is a DV miss, so the stall count comes from the daemon.
  out.stalls = out.after.stats.misses - out.before.stats.misses;
  out.probed = out.after.stats.opens - out.before.stats.opens;
  out.store = stack->store->counters();
  const TimedLauncher& launcher = *stack->nodes[0].launcher;
  out.jobs = launcher.jobs();
  out.maxActive = launcher.maxActive();
  out.restartMs = launcher.restartMs();
  if (Tracer* tracer = Tracer::active()) launcher.emitJobSpans(*tracer);

  const std::int64_t totalSteps = spec.steps * static_cast<std::int64_t>(contexts);
  out.sizes["contexts"] = std::to_string(contexts);
  out.sizes["steps_per_context"] = std::to_string(spec.steps);
  out.sizes["quota_steps_per_context"] = std::to_string(spec.quotaSteps);
  out.sizes["working_set_over_quota"] = std::to_string(
      static_cast<double>(totalSteps) /
      static_cast<double>(spec.quotaSteps * static_cast<std::int64_t>(contexts)));
  out.sizes["seeded_steps_per_context"] =
      std::to_string(static_cast<std::int64_t>(seededSlots) * runLen);
  out.sizes["analyses"] = std::to_string(analyses);
  out.sizes["runs_per_analysis"] = std::to_string(runs);
  out.sizes["run_steps"] = std::to_string(runLen);
  out.sizes["fresh_run_steps"] = std::to_string(freshLen);
  out.sizes["delta_r_steps"] = std::to_string(spec.deltaR);
  out.sizes["alpha_ms"] = std::to_string(spec.alphaMs);
  out.sizes["tau_sim_ms"] = std::to_string(spec.tauSimMs);
  out.sizes["time_scale"] = std::to_string(kTimeScale);
  out.sizes["s_max"] = std::to_string(kSMax);
  out.sizes["payload_bytes"] = std::to_string(kPayloadBytes);
  return out;
}

}  // namespace lb
