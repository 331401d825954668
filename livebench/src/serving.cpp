// hot_read and ring_fanin: the serving path with every step resident.
//
// Both run one hot context whose whole timeline is seeded and fits the
// quota, so no open misses and the simulator and prefetcher stay idle.
// Clients pick steps by Zipf popularity and issue vectored acquires:
//   phase A  closed loop, a fixed window of acquires per client in
//            flight -> saturation throughput (files_per_s, analysis_s);
//   phase B  open loop at a fixed offered rate, one generator thread
//            over all sessions -> open latency timed from each acquire's
//            due time, and the generator's lateness.
// Every acquire, in both phases, names kBatch files.
// hot_read talks to one daemon; ring_fanin reaches a two-node ring with
// one read replica (R=1) through NodeRouter sessions, so opens spread
// over the owner and the replica's leases.
#include "bench.hpp"

#include "cluster/ring.hpp"
#include "dvlib/router.hpp"
#include "dvlib/session.hpp"

#include <deque>
#include <span>
#include <thread>

namespace lb {

using namespace simfs;

namespace {

constexpr std::size_t kBatch = 4;           ///< files per vectored acquire
constexpr std::size_t kWindow = 16;         ///< phase-A acquires in flight per client
constexpr std::int64_t kAnalysisReads = 256;  ///< reads of one phase-A "analysis"
constexpr double kZipfS = 1.0;
constexpr double kPhaseAFrac = 0.5;         ///< share of the run that is phase A
constexpr int kWarmAcquires = 64;           ///< per session, before the timed region
constexpr int kReplicas = 1;                ///< ring_fanin read replicas

struct ServingStack {
  std::unique_ptr<TimedStore> store;
  std::vector<Node> nodes;
  std::shared_ptr<dvlib::NodeRouter> router;
  std::vector<std::shared_ptr<dvlib::Session>> sessions;  ///< one per client
  ServingStack() = default;
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack() {
    for (auto& s : sessions) s->finalize();
    sessions.clear();
    if (router) router->drainPool();
  }
};

struct ServingShape {
  simmodel::ContextConfig cfg;
  std::vector<std::string> names;  ///< file name of each step
  std::vector<StepIndex> byRank;   ///< Zipf rank -> step (seeded shuffle)
  Zipf zipf;
  int clients = 0;
};

/// One in-flight vectored acquire.
struct Slot {
  dvlib::AcquireHandle handle;
  std::vector<std::string> files;
  std::vector<StepIndex> steps;
  Request req;
  std::int64_t due = 0;  ///< open-loop schedule slot (0 in closed loop)
  std::shared_ptr<std::atomic<std::int64_t>> doneNs;
};

class ServingClient {
 public:
  ServingClient(const ServingShape& shape, dvlib::Session& session,
                const TimedStore& store, const Producer& producer,
                std::uint64_t rngSeed)
      : shape_(shape), session_(session), store_(store), producer_(producer),
        rng_(rngSeed) {}

  /// Closed loop until `end`; reads finished before `end` count toward
  /// throughput, the window still in flight at `end` is drained.
  void closedLoop(std::int64_t end, Tally& t) {
    std::vector<Slot> slots(kWindow);
    for (auto& s : slots) issue(s);
    std::int64_t analysisStart = nowNs();
    std::int64_t analysisDone = 0;
    for (std::size_t i = 0;; ++i) {
      Slot& s = slots[i % slots.size()];
      if (finish(s, t, end)) {
        analysisDone += static_cast<std::int64_t>(kBatch);
        if (analysisDone >= kAnalysisReads) {
          const std::int64_t now = nowNs();
          t.analysisS.add(static_cast<double>(now - analysisStart) * 1e-9);
          analysisStart = now;
          analysisDone = 0;
        }
      }
      if (nowNs() >= end) break;
      issue(s);
    }
    for (auto& s : slots) {
      if (s.handle.valid()) (void)finish(s, t, 0);
    }
  }

  /// Sends one vectored acquire of Zipf-chosen steps on this client's
  /// session; open-loop slots (due != 0) get their completion stamped.
  void issue(Slot& s) {
    s.files.resize(kBatch);
    s.steps.resize(kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) {
      const StepIndex step = shape_.byRank[shape_.zipf.sample(rng_)];
      s.steps[j] = step;
      s.files[j] = shape_.names[static_cast<std::size_t>(step)];
    }
    s.req = beginRequest();
    EnterRequest in(s.req);
    {
      ScopedSpan span(SpanName::kDvlibAcquire);
      s.handle = session_.acquireAsync(std::span<const std::string>(s.files));
    }
    if (s.due != 0) {
      s.doneNs = std::make_shared<std::atomic<std::int64_t>>(0);
      s.handle.then([done = s.doneNs](const Status&) { done->store(nowNs()); });
    }
  }

  /// Waits for, reads, verifies and releases one acquire (or queues its
  /// files on `deferRelease`). Its reads count toward throughput when
  /// they complete before `throughputEnd` (0 = never). Returns true when
  /// the acquire succeeded.
  bool finish(Slot& s, Tally& t, std::int64_t throughputEnd,
              std::vector<std::string>* deferRelease = nullptr) {
    EnterRequest in(s.req);
    Status st = s.handle.waitAck();
    if (st.isOk()) {
      ScopedSpan span(SpanName::kDvlibWait);
      st = s.handle.wait();
    }
    const bool inWindow = throughputEnd != 0 && nowNs() < throughputEnd;
    bool ok = st.isOk();
    if (!ok) {
      noteFailure("acquire", st.toString());
      (void)s.handle.cancel();
      for (std::size_t j = 0; j < s.files.size(); ++j) t.failRead();
    } else {
      for (std::size_t j = 0; j < s.files.size(); ++j) {
        ++t.probed;
        if (!s.handle.probe(j).available) ++t.stalls;
        const ReadResult r = readVerify(store_, producer_, shape_.cfg.name,
                                        s.steps[j], s.files[j]);
        t.read(r, inWindow);
        ok = ok && r == ReadResult::kOk;
      }
      if (deferRelease != nullptr) {
        deferRelease->insert(deferRelease->end(), s.files.begin(), s.files.end());
      } else {
        ok = releaseAll(s.files, t) && ok;
      }
    }
    endRequest(s.req, SpanName::kAnalysisRead);
    s.handle = dvlib::AcquireHandle();
    return ok && (throughputEnd == 0 || inWindow);
  }

  /// One batched release of `files` (cleared afterwards).
  bool releaseAll(std::vector<std::string>& files, Tally& t) {
    Status rel;
    {
      ScopedSpan span(SpanName::kDvlibRelease);
      rel = session_.release(std::span<const std::string>(files));
    }
    files.clear();
    if (rel.isOk()) return true;
    noteFailure("release", rel.toString());
    ++t.failed;
    return false;
  }

 private:
  const ServingShape& shape_;
  dvlib::Session& session_;
  const TimedStore& store_;
  const Producer& producer_;
  std::uint64_t rng_;
};

/// Phase B: one generator thread drives every client's session, an
/// acquire due every `periodNs` from `start` until `end`, round robin;
/// latency runs from the due time. Issuing takes priority over finishing
/// completed acquires, and their releases go out 32 files at a time, so
/// the generator's own work delays the schedule as little as possible.
void openLoop(std::vector<std::unique_ptr<ServingClient>>& clients,
              std::int64_t start, std::int64_t end, std::int64_t periodNs,
              Tally& t) {
  constexpr std::size_t kReleaseBatch = 32;
  const std::size_t n = clients.size();
  std::vector<std::deque<std::unique_ptr<Slot>>> inflight(n);
  std::vector<std::vector<std::string>> toRelease(n);
  std::int64_t due = start;
  std::size_t next = 0;
  for (;;) {
    const std::int64_t now = nowNs();
    if (due < end && due <= now) {
      auto s = std::make_unique<Slot>();
      s->due = due;
      t.genLagUs.add(static_cast<double>(now - due) * 1e-3);
      clients[next]->issue(*s);
      inflight[next].push_back(std::move(s));
      next = (next + 1) % n;
      due += periodNs;
      continue;
    }
    bool pending = false;
    for (std::size_t c = 0; c < n; ++c) {
      auto& q = inflight[c];
      while (!q.empty() && q.front()->handle.complete() &&
             !(due < end && nowNs() >= due)) {
        Slot& s = *q.front();
        // complete() can turn true just before the continuation stamps.
        std::int64_t done = 0;
        while ((done = s.doneNs->load()) == 0) std::this_thread::yield();
        if (clients[c]->finish(s, t, 0, &toRelease[c])) {
          t.openUs.add(static_cast<double>(done - s.due) * 1e-3);
        }
        q.pop_front();
      }
      const bool last = due >= end && q.empty();
      if (toRelease[c].size() >= kReleaseBatch || (last && !toRelease[c].empty())) {
        (void)clients[c]->releaseAll(toRelease[c], t);
      }
      pending = pending || !q.empty();
    }
    if (due >= end && !pending) break;
    // Spin (yielding) until the next due time or for 20 us: a sleeping
    // generator on an idle virtual CPU wakes milliseconds late, which
    // would be charged to every acquire it then issues.
    const std::int64_t wake = due < end ? std::min(due, nowNs() + 20'000)
                                        : nowNs() + 20'000;
    while (nowNs() < wake) std::this_thread::yield();
  }
}

ServingShape makeShape(const RunConfig& cfg, const std::string& ctxName) {
  const Params& p = cfg.params;
  ContextSpec spec;  // timings unused: nothing is ever re-simulated
  spec.name = ctxName;
  spec.steps = p.i("steps");
  spec.quotaSteps = p.i("quota_steps");
  if (spec.quotaSteps < spec.steps) {
    fatal("hot workloads need the whole timeline to fit the quota");
  }
  ServingShape shape{makeContext(spec), {}, {},
                     Zipf(static_cast<std::size_t>(spec.steps), kZipfS),
                     static_cast<int>(p.i("clients"))};
  for (StepIndex s = 0; s < spec.steps; ++s) {
    shape.names.push_back(shape.cfg.codec.outputFile(s));
    shape.byRank.push_back(s);
  }
  std::uint64_t rng = cfg.seed * 0x2545f4914f6cdd1dULL + 17;
  for (std::size_t i = shape.byRank.size(); i > 1; --i) {
    std::swap(shape.byRank[i - 1], shape.byRank[splitmix64(rng) % i]);
  }
  return shape;
}

/// Runs both phases (warm-up is part of set-up): phase A on one thread per
/// client, then phase B on this thread.
RunOutput runServing(const RunConfig& cfg, const ServingShape& shape,
                     const Producer& producer, ServingStack& stack,
                     RunOutput out) {
  const double secA = cfg.seconds * kPhaseAFrac;
  const double secB = cfg.seconds - secA;
  const double rate = cfg.params.d("rate");  // acquires per second, all clients
  const auto clients = static_cast<std::size_t>(shape.clients);
  const auto periodNs = static_cast<std::int64_t>(1e9 / rate);

  stack.store->markTimedStart();
  for (auto& n : stack.nodes) n.launcher->markTimedStart();
  out.before = sampleDaemons(stack.nodes);
  const std::int64_t startA = nowNs() + 5'000'000;
  const std::int64_t endA = startA + static_cast<std::int64_t>(secA * 1e9);

  std::vector<std::unique_ptr<ServingClient>> sc;
  for (std::size_t c = 0; c < clients; ++c) {
    sc.push_back(std::make_unique<ServingClient>(
        shape, *stack.sessions[c], *stack.store, producer,
        cfg.seed * 0x9e3779b97f4a7c15ULL + c + 1));
  }
  std::vector<Tally> tallies(clients + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      sleepUntilNs(startA);
      sc[c]->closedLoop(endA, tallies[c]);
    });
  }
  for (auto& t : threads) t.join();
  const std::int64_t startB = nowNs() + 50'000'000;
  sleepUntilNs(startB);
  openLoop(sc, startB, startB + static_cast<std::int64_t>(secB * 1e9), periodNs,
           tallies[clients]);
  out.after = sampleDaemons(stack.nodes);
  out.seconds = secA;
  for (const auto& t : tallies) mergeTally(t, out);
  out.store = stack.store->counters();
  for (const auto& n : stack.nodes) {
    out.jobs += n.launcher->jobs();
    out.maxActive = std::max(out.maxActive, n.launcher->maxActive());
    out.restartMs.append(n.launcher->restartMs());
    if (Tracer* tracer = Tracer::active()) n.launcher->emitJobSpans(*tracer);
  }
  out.sizes["steps"] = std::to_string(shape.names.size());
  out.sizes["quota_steps"] = std::to_string(shape.cfg.cacheCapacitySteps());
  out.sizes["working_set_over_quota"] =
      std::to_string(static_cast<double>(shape.names.size()) /
                     static_cast<double>(shape.cfg.cacheCapacitySteps()));
  out.sizes["clients"] = std::to_string(clients);
  out.sizes["phase_b_threads"] = "1";
  out.sizes["batch_files"] = std::to_string(kBatch);
  out.sizes["window_acquires"] = std::to_string(kWindow);
  out.sizes["analysis_reads"] = std::to_string(kAnalysisReads);
  out.sizes["zipf_s"] = std::to_string(kZipfS);
  out.sizes["phase_a_s"] = std::to_string(secA);
  out.sizes["phase_b_s"] = std::to_string(secB);
  out.sizes["phase_b_rate_acquires_per_s"] = std::to_string(rate);
  out.sizes["payload_bytes"] = std::to_string(producer.bytes());
  return out;
}

/// Warm-up outside the set-up time: kWarmAcquires acquires, one at a
/// time, on each session.
void warmUp(const ServingShape& shape, ServingStack& stack,
            const Producer& producer, std::uint64_t seed) {
  for (std::size_t c = 0; c < stack.sessions.size(); ++c) {
    ServingClient client(shape, *stack.sessions[c], *stack.store, producer,
                         seed + c);
    Tally scratch;
    Slot slot;
    for (int i = 0; i < kWarmAcquires; ++i) {
      client.issue(slot);
      (void)client.finish(slot, scratch, 0);
    }
    if (scratch.failed != 0) fatal("warm-up reads failed");
  }
}

}  // namespace

RunOutput runHotRead(const RunConfig& cfg) {
  const ServingShape shape = makeShape(cfg, "hot");
  const Producer producer(cfg.seed, kPayloadBytes);
  const auto steps = static_cast<StepIndex>(shape.names.size());
  makeEmptyDir(cfg.dir + "/store");
  writeInitialOutput(cfg.dir + "/store", producer, shape.cfg, 0, steps);
  RunOutput out;
  auto stack = repeatSetup<ServingStack>(
      static_cast<int>(cfg.params.i("setup_reps")), out, [&] {
        const std::string& dir = cfg.dir;
        auto s = std::make_unique<ServingStack>();
        s->store = std::make_unique<TimedStore>(
            std::make_unique<vfs::DiskFileStore>(dir + "/store"));
        s->nodes.push_back(makeNode(daemonOptions(), *s->store, {shape.cfg},
                                    producer, dir + "/dv0.sock"));
        for (StepIndex st = 0; st < steps; ++st) {
          seedStep(s->nodes[0], *s->store, shape.cfg, st);
        }
        for (int c = 0; c < shape.clients; ++c) {
          auto t = dial(s->nodes[0].socket);
          if (!t.isOk()) fatal("dial: " + t.status().toString());
          auto session = dvlib::Session::connect(std::move(*t), shape.cfg.name);
          if (!session.isOk()) fatal("connect: " + session.status().toString());
          s->sessions.push_back(std::move(*session));
        }
        return s;
      },
      [&](ServingStack& s) { warmUp(shape, s, producer, cfg.seed); });
  out = runServing(cfg, shape, producer, *stack, std::move(out));
  out.sizes["nodes"] = "1";
  return out;
}

RunOutput runRingFanin(const RunConfig& cfg) {
  const ServingShape shape = makeShape(cfg, "hot");
  const Producer producer(cfg.seed, kPayloadBytes);
  const auto steps = static_cast<StepIndex>(shape.names.size());
  makeEmptyDir(cfg.dir + "/store");
  writeInitialOutput(cfg.dir + "/store", producer, shape.cfg, 0, steps);
  RunOutput out;
  auto stack = repeatSetup<ServingStack>(
      static_cast<int>(cfg.params.i("setup_reps")), out, [&] {
        const std::string& dir = cfg.dir;
        auto s = std::make_unique<ServingStack>();
        s->store = std::make_unique<TimedStore>(
            std::make_unique<vfs::DiskFileStore>(dir + "/store"));
        std::vector<cluster::NodeInfo> members;
        for (int i = 0; i < 2; ++i) {
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
          s->nodes.push_back(
              makeNode(opts, *s->store, {shape.cfg}, producer, m.endpoint));
        }
        const std::string owner = ring->ownerOf(shape.cfg.name).id;
        for (auto& n : s->nodes) {
          if (n.daemon->nodeId() != owner) continue;
          for (StepIndex st = 0; st < steps; ++st) {
            seedStep(n, *s->store, shape.cfg, st);
          }
        }
        // Lease barrier: the replica must hold every seeded step before
        // any client traffic, or early opens measure not-leased fallbacks.
        const std::int64_t deadline = nowNs() + 20'000'000'000;
        for (;;) {
          std::size_t leased = 0;
          for (const auto& n : s->nodes) {
            for (const auto& sc : n.daemon->shardCounters()) leased += sc.leasedSteps;
          }
          if (leased >= shape.names.size() * static_cast<std::size_t>(kReplicas)) break;
          if (nowNs() > deadline) fatal("lease propagation timed out");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        s->router = std::make_shared<dvlib::NodeRouter>(
            *ring, [](const std::string& endpoint) { return dial(endpoint); });
        for (int c = 0; c < shape.clients; ++c) {
          auto session = dvlib::Session::connect(s->router, shape.cfg.name);
          if (!session.isOk()) fatal("connect: " + session.status().toString());
          s->sessions.push_back(std::move(*session));
        }
        return s;
      },
      [&](ServingStack& s) {
        // Replica links come up on the sessions' recovery threads after
        // their first acquire: warm up until every session spreads.
        const std::int64_t linkDeadline = nowNs() + 20'000'000'000;
        for (;;) {
          warmUp(shape, s, producer, cfg.seed);
          bool linked = true;
          for (auto& session : s.sessions) {
            linked = linked && session->replicaEndpoints() >=
                                   static_cast<std::size_t>(kReplicas);
          }
          if (linked) break;
          if (nowNs() > linkDeadline) fatal("replica links did not come up");
        }
        warmUp(shape, s, producer, cfg.seed);
      });
  out = runServing(cfg, shape, producer, *stack, std::move(out));
  out.sizes["nodes"] = "2";
  out.sizes["replicas"] = std::to_string(kReplicas);
  return out;
}

}  // namespace lb
