// Building blocks shared by the workloads: contexts, daemon nodes,
// seeding, dialing and verified reads.
#include "bench.hpp"

#include "simmodel/driver.hpp"

#include <cstdio>

namespace lb {

using namespace simfs;

simmodel::ContextConfig makeContext(const ContextSpec& spec) {
  simmodel::ContextConfig cfg;
  cfg.name = spec.name;
  cfg.geometry = simmodel::StepGeometry(1, spec.deltaR, spec.steps);
  cfg.outputStepBytes = kPayloadBytes;
  cfg.restartStepBytes = kPayloadBytes;
  cfg.cacheQuotaBytes =
      static_cast<Bytes>(spec.quotaSteps) * static_cast<Bytes>(kPayloadBytes);
  cfg.sMax = spec.sMax;
  cfg.perf = simmodel::PerfModel(
      1, static_cast<VDuration>(spec.tauSimMs * 1e6),
      static_cast<VDuration>(spec.alphaMs * 1e6));
  if (spec.nameByContext) {
    cfg.codec = simmodel::FilenameCodec(spec.name + "_out_", ".snc",
                                        spec.name + "_restart_", ".rst", 10);
  }
  return cfg;
}

dv::Daemon::Options daemonOptions() {
  dv::Daemon::Options opts;
  opts.shards = kShards;
  opts.workers = kWorkers;
  return opts;
}

Node makeNode(const dv::Daemon::Options& options, TimedStore& store,
              const std::vector<simmodel::ContextConfig>& contexts,
              const Producer& producer, const std::string& socket) {
  Node node;
  node.daemon = std::make_unique<dv::Daemon>(options);
  node.fleet = std::make_unique<simulator::ThreadedSimulatorFleet>(
      *node.daemon, store, /*timeScale=*/1.0);
  node.launcher = std::make_unique<TimedLauncher>(*node.fleet);
  store.addLauncher(node.launcher.get());
  TimedLauncher* launcher = node.launcher.get();
  node.fleet->setProducer(
      [&producer, launcher](const simmodel::JobSpec& spec, StepIndex step) {
        launcher->onProduce(spec);
        return producer.make(spec.context, step);
      });
  for (const auto& cfg : contexts) {
    const Status st = node.daemon->registerContext(
        std::make_unique<simmodel::SyntheticDriver>(cfg));
    if (!st.isOk()) fatal("registerContext " + cfg.name + ": " + st.toString());
    node.fleet->registerContext(cfg);
  }
  node.daemon->setLauncher(node.launcher.get());
  node.daemon->setEvictFn([&store](const std::string&, const std::string& file) {
    (void)store.remove(file);
  });
  if (const Status st = node.daemon->listen(socket); !st.isOk()) {
    fatal("listen " + socket + ": " + st.toString());
  }
  node.socket = socket;
  return node;
}

void writeInitialOutput(const std::string& storeDir, const Producer& producer,
                        const simmodel::ContextConfig& cfg, StepIndex first,
                        StepIndex last) {
  vfs::DiskFileStore store(storeDir);
  for (StepIndex step = first; step < last; ++step) {
    const std::string file = cfg.codec.outputFile(step);
    if (const Status st = store.put(file, producer.make(cfg.name, step));
        !st.isOk()) {
      fatal("initial output " + file + ": " + st.toString());
    }
  }
}

void seedStep(Node& node, TimedStore& store, const simmodel::ContextConfig& cfg,
              StepIndex step) {
  const std::string file = cfg.codec.outputFile(step);
  const auto info = store.stat(file);
  if (!info.isOk()) fatal("seed " + file + ": " + info.status().toString());
  store.adopt(file, info->size);
  if (const Status st = node.daemon->seedAvailableStep(cfg.name, step);
      !st.isOk()) {
    fatal("seed " + file + ": " + st.toString());
  }
}

Result<std::unique_ptr<msg::Transport>> dial(const std::string& socket) {
  auto t = msg::unixSocketConnect(socket);
  if (!t.isOk() || Tracer::active() == nullptr) return t;
  return timedTransport(std::move(*t));
}

ReadResult readVerify(const TimedStore& store, const Producer& producer,
                      std::string_view context, StepIndex step,
                      const std::string& file) {
  const auto bytes = store.read(file);
  if (!bytes.isOk()) {
    noteFailure("store read", bytes.status().toString());
    return ReadResult::kFailed;
  }
  ScopedSpan span(SpanName::kBenchVerify);
  if (producer.verify(context, step, *bytes)) return ReadResult::kOk;
  noteFailure("verify", "content mismatch in " + file);
  return ReadResult::kMismatch;
}

void noteFailure(const char* what, const std::string& detail) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1) < 8) {
    std::fprintf(stderr, "simfs_livebench: %s failed: %s\n", what,
                 detail.c_str());
  }
}

void Tally::read(ReadResult r, bool inWindow) {
  ++attempted;
  ++readsTotal;
  if (r == ReadResult::kOk) {
    if (inWindow) ++verified;
    return;
  }
  ++failed;
  if (r == ReadResult::kMismatch) ++mismatches;
}

void mergeTally(const Tally& t, RunOutput& out) {
  out.attempted += t.attempted;
  out.failed += t.failed;
  out.mismatches += t.mismatches;
  out.verified += t.verified;
  out.readsTotal += t.readsTotal;
  out.stalls += t.stalls;
  out.probed += t.probed;
  out.openUs.append(t.openUs);
  out.analysisS.append(t.analysisS);
  out.genLagUs.append(t.genLagUs);
}

}  // namespace lb
