// Unix-socket transport benchmark (google-benchmark): the epoll reactor
// path through the full serving stack of the daemon:
//
//   transport -> dispatch -> shard queue -> worker batch drain -> DvShard
//   -> buffered reply -> transport
//
// Two shapes:
//
//   * OpenRtt — one client, one pre-seeded one-file kOpenBatchReq in
//     flight at a time, acked before the next goes out. Time/op IS the
//     open round trip; the client spins (no condvar) so the number is the
//     wire + pipeline latency, not scheduler wake-up jitter.
//   * OpenFlood — N clients stream opens with a bounded unacked window;
//     items_per_second is end-to-end throughput. The steady-state
//     allocs/op counter must be 0: frames encode into pooled buffers and
//     decode in place as views.
//
// Run with --json (see bench_util.hpp) for BENCH_transport.json.
#include "alloc_counter.hpp"
#include "bench_util.hpp"
#include "dv/daemon.hpp"
#include "msg/message.hpp"
#include "msg/transport.hpp"

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace simfs;

constexpr StepIndex kSeededSteps = 64;
constexpr int kOpsPerClientPerIter = 4096;
constexpr std::uint64_t kInFlightWindow = 256;

class NullLauncher final : public dv::SimLauncher {
 public:
  void launch(SimJobId, const simmodel::JobSpec&) override {}
  void kill(SimJobId) override {}
};

simmodel::ContextConfig benchContext() {
  simmodel::ContextConfig cfg;
  cfg.name = "bench0";
  cfg.geometry = simmodel::StepGeometry(1, 16, 1 << 12);
  cfg.outputStepBytes = 1;
  cfg.cacheQuotaBytes = 1 << 16;  // far above the seeded set: no eviction
  cfg.prefetchEnabled = false;
  return cfg;
}

/// A daemon listening on a fresh socket with one pre-seeded context.
struct BenchDaemon {
  dv::Daemon daemon;
  NullLauncher launcher;
  simmodel::ContextConfig cfg = benchContext();
  std::string path;
  bool ok = false;

  explicit BenchDaemon(std::size_t shards) : daemon([&] {
    dv::Daemon::Options options;
    options.shards = shards;
    options.workers = shards;
    options.queueCap = 16 * kInFlightWindow * 2;
    return options;
  }()) {
    static int serial = 0;
    path = "/tmp/simfs_bench_tp_" + std::to_string(::getpid()) + "_" +
           std::to_string(serial++) + ".sock";
    daemon.setLauncher(&launcher);
    if (!daemon
             .registerContext(std::make_unique<simmodel::SyntheticDriver>(cfg))
             .isOk()) {
      return;
    }
    for (StepIndex s = 0; s < kSeededSteps; ++s) {
      (void)daemon.seedAvailableStep(cfg.name, s);
    }
    ok = daemon.listen(path).isOk();
  }

  ~BenchDaemon() { ::unlink(path.c_str()); }
};

/// One socket client: counts acks in an atomic so latency-sensitive
/// callers may spin instead of sleeping on a condvar.
struct BenchClient {
  std::unique_ptr<msg::Transport> transport;
  std::vector<std::string> files;
  msg::Message request;
  std::atomic<std::uint64_t> acks{0};
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t sent = 0;
  bool helloOk = false;
  std::atomic<bool> helloDone{false};

  /// Connects and greets; false unless the hello was acked OK.
  bool connect(const BenchDaemon& bd) {
    auto conn = msg::unixSocketConnect(bd.path);
    if (!conn.isOk()) return false;
    transport = std::move(*conn);
    for (StepIndex s = 0; s < kSeededSteps; ++s) {
      files.push_back(bd.cfg.codec.outputFile(s));
    }
    transport->setViewHandler([this](const msg::MessageView& m) {
      {
        // Bump under mu: flood() checks its predicate under mu, so an
        // unlocked bump + notify landing between that check and its
        // sleep would be a lost wakeup (the final drain waits forever).
        std::lock_guard lock(mu);
        if (m.type() == msg::MsgType::kHelloAck) {
          helloOk = m.code() == 0;
          helloDone.store(true, std::memory_order_release);
        } else {
          acks.fetch_add(1, std::memory_order_release);
        }
      }
      cv.notify_all();
    });
    msg::Message hello;
    hello.type = msg::MsgType::kHello;
    hello.context = bd.cfg.name;
    hello.intArg = static_cast<std::int64_t>(msg::ClientRole::kAnalysis);
    if (!transport->send(hello).isOk()) return false;
    while (!helloDone.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return helloOk;
  }

  /// One acked open, spinning on the ack counter: the measured RTT.
  bool openOnce(int i) {
    msg::Message& m = request;
    m.type = msg::MsgType::kOpenBatchReq;
    m.files.resize(1);
    m.files[0] = files[static_cast<std::size_t>(i) % files.size()];
    const std::uint64_t want =
        acks.load(std::memory_order_acquire) + 1;
    if (!transport->send(m).isOk()) return false;
    while (acks.load(std::memory_order_acquire) < want) {
      // Yield, don't busy-spin: on a one-core host a hard spin starves
      // the daemon thread that must run to produce the ack.
      std::this_thread::yield();
    }
    return true;
  }

  /// Streams `n` opens with at most kInFlightWindow unacked, then drains.
  void flood(int n) {
    msg::Message& m = request;
    m.type = msg::MsgType::kOpenBatchReq;
    m.files.resize(1);
    for (int i = 0; i < n; ++i) {
      m.files[0] = files[static_cast<std::size_t>(i) % files.size()];
      if (!transport->send(m).isOk()) return;
      ++sent;
      if ((sent & 63u) == 0) {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] {
          return sent - acks.load(std::memory_order_acquire) <=
                 kInFlightWindow;
        });
      }
    }
    std::unique_lock lock(mu);
    cv.wait(lock,
            [&] { return acks.load(std::memory_order_acquire) == sent; });
  }
};

/// Persistent flood threads (thread-per-iteration would allocate and skew
/// the timings — same structure as micro_daemon.cpp).
class FloodPool {
 public:
  explicit FloodPool(std::vector<std::unique_ptr<BenchClient>>& clients)
      : clients_(clients) {
    threads_.reserve(clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      threads_.emplace_back([this, i] { worker(i); });
    }
  }

  ~FloodPool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void runRound(int opsPerClient) {
    {
      std::lock_guard lock(mu_);
      ops_ = opsPerClient;
      done_ = 0;
      ++round_;
    }
    cv_.notify_all();
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return done_ == threads_.size(); });
  }

 private:
  void worker(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [&] { return stop_ || round_ != seen; });
        if (stop_) return;
        seen = round_;
      }
      clients_[index]->flood(ops_);
      {
        std::lock_guard lock(mu_);
        ++done_;
      }
      cv_.notify_all();
    }
  }

  std::vector<std::unique_ptr<BenchClient>>& clients_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_ = 0;
  std::size_t done_ = 0;
  int ops_ = 0;
  bool stop_ = false;
};

void BM_SocketOpenRtt(benchmark::State& state) {
  BenchDaemon bd(/*shards=*/1);
  if (!bd.ok) {
    state.SkipWithError("daemon setup failed");
    return;
  }
  BenchClient client;
  if (!client.connect(bd)) {
    state.SkipWithError("connect/hello failed");
    return;
  }
  // Warm-up: pools and arenas.
  for (int i = 0; i < 512; ++i) {
    if (!client.openOnce(i)) {
      state.SkipWithError("open failed");
      return;
    }
  }
  int i = 0;
  for (auto _ : state) {
    if (!client.openOnce(i++)) {
      state.SkipWithError("open failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  client.transport->close();
}

void BM_SocketOpenFlood(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  BenchDaemon bd(/*shards=*/2);
  if (!bd.ok) {
    state.SkipWithError("daemon setup failed");
    return;
  }
  std::vector<std::unique_ptr<BenchClient>> flood;
  for (int c = 0; c < clients; ++c) {
    auto bc = std::make_unique<BenchClient>();
    if (!bc->connect(bd)) {
      state.SkipWithError("connect/hello failed");
      return;
    }
    flood.push_back(std::move(bc));
  }
  {
    FloodPool pool(flood);
    pool.runRound(kOpsPerClientPerIter);  // untimed warm-up
    for (auto _ : state) {
      pool.runRound(kOpsPerClientPerIter);
    }
    // Steady-state allocation audit (see micro_daemon.cpp): 0 allocs/op.
    const std::uint64_t before =
        bench::g_allocCount.load(std::memory_order_relaxed);
    pool.runRound(kOpsPerClientPerIter);
    state.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(bench::g_allocCount.load(
                                std::memory_order_relaxed) -
                            before) /
        (static_cast<double>(clients) * kOpsPerClientPerIter));
  }
  state.SetItemsProcessed(state.iterations() * clients * kOpsPerClientPerIter);
  state.counters["clients"] = clients;
  for (auto& bc : flood) bc->transport->close();
}

}  // namespace

BENCHMARK(BM_SocketOpenRtt)->UseRealTime()->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_SocketOpenFlood)
    ->ArgNames({"clients"})
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return simfs::bench::runMicroBenchmarks(argc, argv, "BENCH_transport.json");
}
