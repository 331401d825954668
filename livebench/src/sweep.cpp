// sweep_resim: the paper's core scenario (Sec. VI, Figs. 16-17).
//
// A few analyses each sweep forward through their own region of one
// context, spending tau_cli on every step. Each sweep covers `range`
// steps; the DV re-simulates missing steps from the nearest restart step
// (alpha + tau_sim per step) and the prefetch agents launch jobs ahead
// of the sweep to hide the restart latency, so the simulator and
// prefetch do nearly all the work and the serving path is a small share.
// The timings are the paper's COSMO runs (tau_sim = 3 s, alpha = 13 s,
// tau_cli = 0.5 s, restart every 12 output steps, m = 72-step analyses),
// scaled by kTimeScale. Three analyses share s_max = 4 parallel
// re-simulations, so, as in Fig. 16, the sweeps are simulation-bound:
// most opens wait for their step to be produced.
//
// `nodes=2` (ring_sweep) runs the same sweeps on a two-node ring with one
// read replica (R = 1), the analyses reaching it through NodeRouter
// sessions: the owner re-simulates, lease deltas fan produced steps out
// to the replica, and opens spread over both nodes.
//
// `fresh=1`: every sweep moves on to steps never produced before, and
// the quota holds everything a run can produce, so nothing is evicted.
// `fresh=0`: every sweep repeats the analysis' range under a quota
// smaller than the swept steps, so each sweep re-simulates evicted steps
// (the cache-pressure probe, see README.md "Known defects").
#include "bench.hpp"

#include "cluster/ring.hpp"
#include "dvlib/router.hpp"
#include "dvlib/session.hpp"

#include <span>
#include <thread>

namespace lb {

using namespace simfs;

namespace {

constexpr std::int64_t kDeltaR = 12;       ///< COSMO: restart hourly, output every 5 min
constexpr int kSMaxSweep = 4;              ///< Fig. 16's s_max = 4 point
constexpr std::int64_t kRegion = 65536;    ///< steps per analysis region
constexpr std::int64_t kSeeded = 1024;     ///< initial output at the timeline's end (at most the quota)
constexpr std::int64_t kSpinNs = 200'000;  ///< tau_cli ends in a spin, not a wake-up
constexpr int kReplicas = 1;               ///< ring_sweep read replicas

struct SweepStack {
  std::unique_ptr<TimedStore> store;
  std::vector<Node> nodes;
  std::shared_ptr<dvlib::NodeRouter> router;  ///< ring only
  std::vector<std::shared_ptr<dvlib::Session>> sessions;  ///< one per analysis
  SweepStack() = default;
  SweepStack(const SweepStack&) = delete;
  SweepStack& operator=(const SweepStack&) = delete;
  ~SweepStack() {
    for (auto& s : sessions) s->finalize();
    sessions.clear();
    if (router) router->drainPool();
  }
};

/// One read of a sweep: acquire, wait, read + verify, release. The open
/// is timed to the moment the acquire completed (stamped on the thread
/// that completes it), not to when this thread woke up.
void sweepRead(dvlib::Session& session, const TimedStore& store,
               const Producer& producer, const simmodel::ContextConfig& cfg,
               StepIndex step, const std::string& file, Tally& t) {
  const Request req = beginRequest();
  EnterRequest in(req);
  dvlib::AcquireHandle h;
  {
    ScopedSpan span(SpanName::kDvlibAcquire);
    h = session.acquireAsync(std::span<const std::string>(&file, 1));
  }
  auto doneNs = std::make_shared<std::atomic<std::int64_t>>(0);
  h.then([doneNs](const Status&) { doneNs->store(nowNs()); });
  Status st = h.waitAck();
  if (st.isOk()) {
    ++t.probed;
    if (!h.probe(0).available) ++t.stalls;
    ScopedSpan span(SpanName::kDvlibWait);
    st = h.wait();
  }
  if (!st.isOk()) {
    noteFailure("sweep acquire", st.toString());
    (void)h.cancel();
    t.failRead();
    endRequest(req, SpanName::kAnalysisRead);
    return;
  }
  // wait() can return just before the continuation stamps.
  std::int64_t done = 0;
  while ((done = doneNs->load()) == 0) std::this_thread::yield();
  t.openUs.add(static_cast<double>(done - req.start) * 1e-3);
  t.read(readVerify(store, producer, cfg.name, step, file), true);
  {
    ScopedSpan span(SpanName::kDvlibRelease);
    if (const Status rel = session.release(file); !rel.isOk()) {
      noteFailure("sweep release", rel.toString());
      ++t.failed;
    }
  }
  endRequest(req, SpanName::kAnalysisRead);
}

}  // namespace

RunOutput runSweepResim(const RunConfig& cfg) {
  const Params& p = cfg.params;
  ContextSpec spec;
  spec.name = "sweep";
  spec.steps = p.i("steps");
  spec.deltaR = kDeltaR;
  spec.quotaSteps = p.i("quota_steps");
  spec.tauSimMs = p.d("tau_sim_s") * kTimeScale * 1e3;
  spec.alphaMs = p.d("alpha_s") * kTimeScale * 1e3;
  spec.sMax = kSMaxSweep;
  const simmodel::ContextConfig ctx = makeContext(spec);
  const Producer producer(cfg.seed, kPayloadBytes);
  const int clients = static_cast<int>(p.i("clients"));
  const int nodes = static_cast<int>(p.i("nodes"));
  const std::int64_t range = p.i("range");
  const bool fresh = p.i("fresh") != 0;
  const double tauCliMs = p.d("tau_cli_s") * kTimeScale * 1e3;
  const auto tauCliNs = static_cast<std::int64_t>(tauCliMs * 1e6);

  // Each analysis owns one region; the seed picks which, and where in it
  // the first sweep starts.
  const std::int64_t regions = spec.steps / kRegion;
  if (regions < clients) fatal("sweep_resim: fewer regions than analyses");
  std::vector<std::int64_t> regionOrder(static_cast<std::size_t>(regions));
  for (std::int64_t i = 0; i < regions; ++i) regionOrder[static_cast<std::size_t>(i)] = i;
  std::uint64_t rng = cfg.seed * 0x2545f4914f6cdd1dULL + 3;
  for (std::size_t i = regionOrder.size(); i > 1; --i) {
    std::swap(regionOrder[i - 1], regionOrder[splitmix64(rng) % i]);
  }
  std::vector<StepIndex> firstStep;
  for (int c = 0; c < clients; ++c) {
    const std::int64_t jitter =
        static_cast<std::int64_t>(splitmix64(rng) % static_cast<std::uint64_t>(range)) *
        spec.deltaR;
    firstStep.push_back(regionOrder[static_cast<std::size_t>(c)] * kRegion + jitter);
  }

  // Initial simulation output on disk: the last steps of the timeline (no
  // sweep reaches them), no more than the quota holds, so that seeding
  // evicts nothing.
  const StepIndex firstSeeded = spec.steps - std::min(kSeeded, spec.quotaSteps);
  makeEmptyDir(cfg.dir + "/store");
  writeInitialOutput(cfg.dir + "/store", producer, ctx, firstSeeded, spec.steps);
  RunOutput out;
  auto stack = repeatSetup<SweepStack>(
      static_cast<int>(p.i("setup_reps")), out, [&] {
        const std::string& dir = cfg.dir;
        auto s = std::make_unique<SweepStack>();
        s->store = std::make_unique<TimedStore>(
            std::make_unique<vfs::DiskFileStore>(dir + "/store"));
        if (nodes == 1) {
          s->nodes.push_back(makeNode(daemonOptions(), *s->store, {ctx}, producer,
                                      dir + "/dv0.sock"));
        } else {
          std::vector<cluster::NodeInfo> members;
          for (int i = 0; i < nodes; ++i) {
            members.push_back({"dv" + std::to_string(i),
                               dir + "/dv" + std::to_string(i) + ".sock"});
          }
          auto ring = cluster::Ring::make(members, /*version=*/1);
          if (!ring.isOk()) fatal("ring: " + ring.status().toString());
          for (const auto& m : members) {
            dv::Daemon::Options opts = daemonOptions();
            opts.nodeId = m.id;
            opts.ring = *ring;
            opts.replicas = kReplicas;
            s->nodes.push_back(makeNode(opts, *s->store, {ctx}, producer, m.endpoint));
          }
          // The owner holds the context: it is the node to seed.
          const std::string owner = ring->ownerOf(ctx.name).id;
          std::stable_partition(s->nodes.begin(), s->nodes.end(), [&](const Node& n) {
            return n.daemon->nodeId() == owner;
          });
          s->router = std::make_shared<dvlib::NodeRouter>(
              *ring, [](const std::string& endpoint) { return dial(endpoint); });
        }
        for (StepIndex st = firstSeeded; st < spec.steps; ++st) {
          seedStep(s->nodes[0], *s->store, ctx, st);
        }
        for (int c = 0; c < clients; ++c) {
          Result<std::shared_ptr<dvlib::Session>> session = errUnavailable("");
          if (s->router) {
            session = dvlib::Session::connect(s->router, ctx.name);
          } else {
            auto t = dial(s->nodes[0].socket);
            if (!t.isOk()) fatal("dial: " + t.status().toString());
            session = dvlib::Session::connect(std::move(*t), ctx.name);
          }
          if (!session.isOk()) fatal("connect: " + session.status().toString());
          s->sessions.push_back(std::move(*session));
        }
        return s;
      },
      [](SweepStack&) {});

  stack->store->markTimedStart();
  for (auto& n : stack->nodes) n.launcher->markTimedStart();
  out.before = sampleDaemons(stack->nodes);
  const std::int64_t start = nowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<Tally> tallies(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Tally& t = tallies[static_cast<std::size_t>(c)];
      dvlib::Session& session = *stack->sessions[static_cast<std::size_t>(c)];
      StepIndex first = firstStep[static_cast<std::size_t>(c)];
      while (nowNs() < end) {
        const std::int64_t sweepStart = nowNs();
        StepIndex step = first;
        for (; step < first + range && nowNs() < end; ++step) {
          sweepRead(session, *stack->store, producer, ctx, step,
                    ctx.codec.outputFile(step), t);
          // The analysis' own work on the step. It sleeps, leaving the
          // cores to the daemon and the fleet, and spins only at the end
          // so that the next open does not wait for this thread to wake.
          const std::int64_t done = nowNs() + tauCliNs;
          sleepUntilNs(done - kSpinNs);
          while (nowNs() < done) std::this_thread::yield();
        }
        if (step == first + range) {
          t.analysisS.add(static_cast<double>(nowNs() - sweepStart) * 1e-9);
        }
        if (fresh) first += range;
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = static_cast<double>(nowNs() - start) * 1e-9;
  out.after = sampleDaemons(stack->nodes);
  for (const auto& t : tallies) mergeTally(t, out);
  out.store = stack->store->counters();
  for (const auto& n : stack->nodes) {
    out.jobs += n.launcher->jobs();
    out.maxActive = std::max(out.maxActive, n.launcher->maxActive());
    out.restartMs.append(n.launcher->restartMs());
    if (Tracer* tracer = Tracer::active()) n.launcher->emitJobSpans(*tracer);
  }

  out.sizes["nodes"] = std::to_string(nodes);
  if (nodes > 1) out.sizes["replicas"] = std::to_string(kReplicas);
  out.sizes["steps"] = std::to_string(spec.steps);
  out.sizes["analyses"] = std::to_string(clients);
  out.sizes["range_steps"] = std::to_string(range);
  out.sizes["fresh_sweeps"] = fresh ? "1" : "0";
  out.sizes["quota_steps"] = std::to_string(spec.quotaSteps);
  // Steps the run touched (fresh sweeps) or swept repeatedly, over quota.
  const double touched = fresh ? static_cast<double>(out.readsTotal)
                               : static_cast<double>(range * clients);
  out.sizes["working_set_over_quota"] =
      std::to_string(touched / static_cast<double>(spec.quotaSteps));
  out.sizes["delta_r_steps"] = std::to_string(spec.deltaR);
  out.sizes["alpha_ms"] = std::to_string(spec.alphaMs);
  out.sizes["tau_sim_ms"] = std::to_string(spec.tauSimMs);
  out.sizes["tau_cli_ms"] = std::to_string(tauCliMs);
  out.sizes["time_scale"] = std::to_string(kTimeScale);
  out.sizes["s_max"] = std::to_string(kSMaxSweep);
  out.sizes["payload_bytes"] = std::to_string(kPayloadBytes);
  return out;
}

}  // namespace lb
