// DVLib session-API round-trip costs (google-benchmark): the per-file
// open loop (the pre-redesign wire shape — one request/reply per file)
// against the vectored acquire (ONE kOpenBatchReq for the whole batch,
// released again with one kReleaseReq), end-to-end through a real daemon
// over a Unix-domain socket:
//
//   Session -> socket -> reactor -> dispatch -> shard queue -> worker
//   batch drain -> DvShard -> buffered ack -> reactor -> Session
//
// All opens hit pre-seeded steps, so the measured gap is pure protocol:
// N round trips vs 1. Batch sizes 1 / 8 / 64 mirror typical analysis
// working sets; items_per_second counts files acquired+released per
// second (real time).
//
// Run with --json (see bench_util.hpp) for BENCH_dvlib.json.
#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "dv/daemon.hpp"
#include "dvlib/session.hpp"
#include "msg/transport.hpp"

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace {

using namespace simfs;

constexpr StepIndex kSeededSteps = 64;

/// Pure hit traffic: the launcher seam must exist but never fires.
class NullLauncher final : public dv::SimLauncher {
 public:
  void launch(SimJobId, const simmodel::JobSpec&) override {}
  void kill(SimJobId) override {}
};

simmodel::ContextConfig benchContext() {
  simmodel::ContextConfig cfg;
  cfg.name = "bench";
  cfg.geometry = simmodel::StepGeometry(1, 16, 1 << 12);
  cfg.outputStepBytes = 1;
  cfg.cacheQuotaBytes = 1 << 16;  // far above the seeded set: no eviction
  cfg.prefetchEnabled = false;
  return cfg;
}

/// Daemon serving a Unix socket with kSeededSteps pre-available steps,
/// plus one connected session.
struct Stack {
  NullLauncher launcher;
  std::unique_ptr<dv::Daemon> daemon;
  std::shared_ptr<dvlib::Session> session;
  std::vector<std::string> files;

  explicit Stack(const std::string& tag) {
    const auto cfg = benchContext();
    daemon = std::make_unique<dv::Daemon>();
    if (!daemon
             ->registerContext(
                 std::make_unique<simmodel::SyntheticDriver>(cfg))
             .isOk()) {
      std::abort();
    }
    daemon->setLauncher(&launcher);
    for (StepIndex s = 0; s < kSeededSteps; ++s) {
      (void)daemon->seedAvailableStep(cfg.name, s);
      files.push_back(cfg.codec.outputFile(s));
    }
    const std::string path = "/tmp/simfs_bench_dvlib_" + tag + "_" +
                             std::to_string(::getpid()) + ".sock";
    if (!daemon->listen(path).isOk()) std::abort();
    auto conn = msg::unixSocketConnect(path);
    if (!conn) std::abort();
    auto s = dvlib::Session::connect(std::move(*conn), cfg.name);
    if (!s) std::abort();
    session = std::move(*s);
  }

  ~Stack() {
    session->finalize();
    daemon->stop();
  }
};

/// The pre-redesign shape: one request/reply round trip per file (a
/// batch of one, waited for its ack), then one per file again (release).
void BM_DvlibPerFileLoop(benchmark::State& state) {
  Stack stack("loop" + std::to_string(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      auto handle = stack.session->acquireAsync(
          std::span<const std::string>(&stack.files[i], 1));
      if (!handle.waitAck(nullptr).isOk() || !handle.probe(0).available) {
        state.SkipWithError("open missed");
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!stack.session->release(stack.files[i]).isOk()) {
        state.SkipWithError("release failed");
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

/// The redesigned shape: the whole batch in ONE kOpenBatchReq, released
/// again with one kReleaseReq. The span overload routes through the
/// session's pooled acquire states and the transports' pooled wire
/// buffers, so after the untimed warm-up cycles the loop reports
/// 0 allocs/op end to end (client + reactor + daemon) — CI gates on it.
void BM_DvlibVectoredAcquire(benchmark::State& state) {
  Stack stack("vec" + std::to_string(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::span<const std::string> batch(stack.files.data(), n);
  for (int warm = 0; warm < 3; ++warm) {
    auto handle = stack.session->acquireAsync(batch);
    if (!handle.wait().isOk()) state.SkipWithError("warmup acquire failed");
    if (!handle.cancel().isOk()) state.SkipWithError("warmup cancel failed");
  }
  for (auto _ : state) {
    auto handle = stack.session->acquireAsync(batch);
    if (!handle.wait().isOk()) state.SkipWithError("acquire failed");
    if (!handle.cancel().isOk()) state.SkipWithError("cancel failed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  // Steady-state allocation audit, in a quiet region after the timed
  // loop so google-benchmark's own bookkeeping cannot leak into the
  // count: every operator-new on any thread (session, reactor, daemon
  // workers) lands in g_allocCount. CI fails the bench if this is not 0.
  constexpr int kAuditIters = 500;
  const std::uint64_t before =
      bench::g_allocCount.load(std::memory_order_relaxed);
  for (int i = 0; i < kAuditIters; ++i) {
    auto handle = stack.session->acquireAsync(batch);
    if (!handle.wait().isOk()) state.SkipWithError("audit acquire failed");
    if (!handle.cancel().isOk()) state.SkipWithError("audit cancel failed");
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(bench::g_allocCount.load(
                              std::memory_order_relaxed) -
                          before) /
      (static_cast<double>(kAuditIters) * static_cast<double>(n)));
}

/// Batched release (vector kReleaseReq): acquire N files vectored, then
/// release them all with ONE request/reply round trip instead of N —
/// the daemon drops every reference under a single shard-lock
/// acquisition.
void BM_DvlibBatchedRelease(benchmark::State& state) {
  Stack stack("rel" + std::to_string(state.range(0)));
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::span<const std::string> batch(stack.files.data(), n);
  for (auto _ : state) {
    auto handle = stack.session->acquireAsync(batch);
    if (!handle.wait().isOk()) state.SkipWithError("acquire failed");
    if (!stack.session->release(batch).isOk()) {
      state.SkipWithError("release failed");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

BENCHMARK(BM_DvlibPerFileLoop)
    ->ArgName("files")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_DvlibVectoredAcquire)
    ->ArgName("files")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_DvlibBatchedRelease)
    ->ArgName("files")
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return simfs::bench::runMicroBenchmarks(argc, argv, "BENCH_dvlib.json");
}
