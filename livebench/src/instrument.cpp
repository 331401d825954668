// Benchmark-side helpers: parameters, statistics, the content producer,
// the span recorder and the decorators over the public layer interfaces.
#include "bench.hpp"

#include "msg/message.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

namespace lb {

using namespace simfs;

void fatal(const std::string& what) {
  std::fprintf(stderr, "simfs_livebench: %s\n", what.c_str());
  std::exit(2);
}

void sleepUntilNs(std::int64_t ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

void makeEmptyDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  if (ec) fatal("cannot create " + path + ": " + ec.message());
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// ------------------------------------------------------------------ params

void Params::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

const std::string& Params::raw(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) fatal("missing --param " + key);
  return it->second;
}

std::int64_t Params::i(const std::string& key) const {
  const std::string& v = raw(key);
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') fatal("--param " + key + " is not an integer");
  return x;
}

double Params::d(const std::string& key) const {
  const std::string& v = raw(key);
  char* end = nullptr;
  const double x = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || !std::isfinite(x)) {
    fatal("--param " + key + " is not a number");
  }
  return x;
}

// -------------------------------------------------------------- statistics

double Samples::pct(double p) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v_.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v_.size()))) - 1;
  return v_[idx];
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
}

std::size_t Zipf::sample(std::uint64_t& rng) const {
  const double u = static_cast<double>(splitmix64(rng) >> 11) * 0x1p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

// ---------------------------------------------------------------- producer

namespace {

std::uint64_t contentState(std::uint64_t seed, std::string_view context,
                           StepIndex step) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a of the context name
  for (const char c : context) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return seed * 0xd1342543de82ef95ULL ^ h ^
         (static_cast<std::uint64_t>(step) * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

std::string Producer::make(std::string_view context, StepIndex step) const {
  std::string out(bytes_, '\0');
  std::uint64_t st = contentState(seed_, context, step);
  for (std::size_t off = 0; off < bytes_; off += 8) {
    const std::uint64_t w = splitmix64(st);
    std::memcpy(out.data() + off, &w, std::min<std::size_t>(8, bytes_ - off));
  }
  return out;
}

bool Producer::verify(std::string_view context, StepIndex step,
                      std::string_view content) const {
  if (content.size() != bytes_) return false;
  std::uint64_t st = contentState(seed_, context, step);
  for (std::size_t off = 0; off < bytes_; off += 8) {
    const std::uint64_t w = splitmix64(st);
    if (std::memcmp(content.data() + off, &w,
                    std::min<std::size_t>(8, bytes_ - off)) != 0) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- tracing

std::atomic<Tracer*> Tracer::active_{nullptr};

const char* spanNameText(SpanName n) {
  static constexpr const char* kNames[] = {
      "analysis.read", "analysis.list", "dvlib.acquire", "dvlib.wait",
      "dvlib.release", "msg.ack",       "posix.readdir", "posix.open",
      "posix.wait",    "posix.close",   "vfs.put",       "vfs.read",
      "vfs.remove",    "bench.verify",  "simulator.job"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

Tracer::Context& Tracer::context() {
  thread_local Context ctx;
  return ctx;
}

std::shared_ptr<Tracer::Buffer> Tracer::localBuffer() {
  // One tracer per process: the buffer stays registered with it even
  // after its thread exits (simulator job threads end before collect()).
  thread_local std::shared_ptr<Buffer> buf;
  if (!buf) {
    buf = std::make_shared<Buffer>();
    buf->spans.reserve(4096);
    std::lock_guard lock(mu_);
    buffers_.push_back(buf);
  }
  return buf;
}

void Tracer::record(const Span& s) { localBuffer()->spans.push_back(s); }

std::vector<Span> Tracer::collect() {
  std::lock_guard lock(mu_);
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->spans.size();
  std::vector<Span> all;
  all.reserve(total);
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::vector<Span>().swap(b->spans);  // free as we go: one copy at a time
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanName name) : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  auto& ctx = Tracer::context();
  saved_ = ctx;
  span_.name = name;
  span_.id = tracer_->newId();
  span_.parent = ctx.current;
  span_.request = ctx.request;
  ctx.current = span_.id;
  span_.start = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = nowNs();
  tracer_->record(span_);
  Tracer::context() = saved_;
}

Request beginRequest() {
  Request r;
  if (Tracer* tracer = Tracer::active()) r.id = tracer->newId();
  r.start = nowNs();
  return r;
}

void endRequest(const Request& r, SpanName name) {
  Tracer* tracer = Tracer::active();
  if (tracer == nullptr || r.id == 0) return;
  Span s;
  s.id = r.id;
  s.request = r.id;
  s.start = r.start;
  s.end = nowNs();
  s.name = name;
  tracer->record(s);
}

EnterRequest::EnterRequest(const Request& r) {
  if (Tracer::active() == nullptr || r.id == 0) return;
  active_ = true;
  auto& ctx = Tracer::context();
  saved_ = ctx;
  ctx.request = r.id;
  ctx.current = r.id;
}

EnterRequest::~EnterRequest() {
  if (active_) Tracer::context() = saved_;
}

// -------------------------------------------------------------- TimedStore

std::uint64_t& currentJobSpan() {
  thread_local std::uint64_t span = 0;
  return span;
}

Status TimedStore::put(const std::string& name, std::string content) {
  Tracer* tracer = Tracer::active();
  const std::uint64_t job = currentJobSpan();
  const std::uint64_t size = content.size();
  const std::int64_t t0 = nowNs();
  Status st = inner_->put(name, std::move(content));
  const std::int64_t t1 = nowNs();
  if (tracer != nullptr) {
    Span s;
    s.id = tracer->newId();
    s.parent = job;
    s.request = job;
    s.start = t0;
    s.end = t1;
    s.name = SpanName::kVfsPut;
    tracer->record(s);
  }
  if (!st.isOk()) return st;
  std::lock_guard lock(mu_);
  if (tracer != nullptr && job != 0) {
    for (TimedLauncher* l : launchers_) l->onJobPut(job, t1);
  }
  auto [it, fresh] = sizes_.try_emplace(name, size);
  if (!fresh) {
    bytes_ -= it->second;
    it->second = size;
  }
  bytes_ += size;
  c_.bytesWritten += size;
  ++c_.puts;
  c_.peakBytes = std::max(c_.peakBytes, bytes_);
  c_.peakFiles = std::max<std::uint64_t>(c_.peakFiles, sizes_.size());
  if (job != 0) {
    ++c_.produced;
    producedUnread_.insert(name);
  }
  return st;
}

Result<std::string> TimedStore::read(const std::string& name) const {
  auto r = [&] {
    ScopedSpan span(SpanName::kVfsRead);
    return inner_->read(name);
  }();
  if (!r.isOk()) return r;
  bytesRead_.fetch_add(r->size(), std::memory_order_relaxed);
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (Tracer::active() != nullptr) {
    std::lock_guard lock(mu_);
    if (producedUnread_.erase(name) != 0) ++c_.useful;
  }
  return r;
}

Status TimedStore::remove(const std::string& name) {
  Status st = [&] {
    ScopedSpan span(SpanName::kVfsRemove);
    return inner_->remove(name);
  }();
  if (!st.isOk()) return st;
  std::lock_guard lock(mu_);
  if (const auto it = sizes_.find(name); it != sizes_.end()) {
    bytes_ -= it->second;
    sizes_.erase(it);
  }
  ++c_.removes;
  producedUnread_.erase(name);
  return st;
}

Bytes TimedStore::totalBytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

void TimedStore::adopt(const std::string& name, std::uint64_t size) {
  std::lock_guard lock(mu_);
  auto [it, fresh] = sizes_.try_emplace(name, size);
  if (!fresh) {
    bytes_ -= it->second;
    it->second = size;
  }
  bytes_ += size;
}

void TimedStore::markTimedStart() {
  std::lock_guard lock(mu_);
  c_ = Counters{};
  c_.peakBytes = bytes_;
  c_.peakFiles = sizes_.size();
  producedUnread_.clear();
  bytesRead_.store(0);
  reads_.store(0);
}

TimedStore::Counters TimedStore::counters() const {
  std::lock_guard lock(mu_);
  Counters c = c_;
  c.bytesRead = bytesRead_.load();
  c.reads = reads_.load();
  return c;
}

// ----------------------------------------------------------- TimedLauncher

namespace {
std::string specKey(const simmodel::JobSpec& spec) {
  return spec.context + '#' + std::to_string(spec.startStep) + '-' +
         std::to_string(spec.stopStep);
}
}  // namespace

void TimedLauncher::launch(SimJobId job, const simmodel::JobSpec& spec) {
  jobs_.fetch_add(1);
  if (Tracer* tracer = Tracer::active()) {
    std::lock_guard lock(mu_);
    JobRec rec;
    rec.span = tracer->newId();
    rec.launched = nowNs();
    bySpan_[rec.span] = job;
    bySpec_[specKey(spec)] = job;
    recs_[job] = rec;
  }
  fleet_.launch(job, spec);
  const std::uint64_t active = fleet_.activeJobs();
  std::uint64_t seen = maxActive_.load();
  while (active > seen && !maxActive_.compare_exchange_weak(seen, active)) {
  }
}

void TimedLauncher::kill(SimJobId job) {
  if (Tracer::active() != nullptr) {
    std::lock_guard lock(mu_);
    if (const auto it = recs_.find(job); it != recs_.end()) {
      it->second.killed = nowNs();
    }
  }
  fleet_.kill(job);
}

void TimedLauncher::onProduce(const simmodel::JobSpec& spec) {
  if (Tracer::active() == nullptr) return;
  std::lock_guard lock(mu_);
  const auto it = bySpec_.find(specKey(spec));
  if (it == bySpec_.end()) return;
  const auto rec = recs_.find(it->second);
  currentJobSpan() = rec == recs_.end() ? 0 : rec->second.span;
}

void TimedLauncher::onJobPut(std::uint64_t jobSpan, std::int64_t end) {
  std::lock_guard lock(mu_);
  const auto it = bySpan_.find(jobSpan);
  if (it == bySpan_.end()) return;
  JobRec& rec = recs_[it->second];
  if (rec.firstPut == 0) rec.firstPut = end;
  rec.lastPut = end;
}

void TimedLauncher::markTimedStart() {
  std::lock_guard lock(mu_);
  jobs_.store(0);
  maxActive_.store(fleet_.activeJobs());
  recs_.clear();
  bySpan_.clear();
}

Samples TimedLauncher::restartMs() const {
  Samples s;
  std::lock_guard lock(mu_);
  for (const auto& [id, rec] : recs_) {
    if (rec.firstPut != 0) {
      s.add(static_cast<double>(rec.firstPut - rec.launched) * 1e-6);
    }
  }
  return s;
}

void TimedLauncher::emitJobSpans(Tracer& tracer) const {
  std::lock_guard lock(mu_);
  for (const auto& [id, rec] : recs_) {
    Span s;
    s.id = rec.span;
    s.request = rec.span;
    s.start = rec.launched;
    s.end = std::max({rec.launched, rec.lastPut, rec.killed});
    s.name = SpanName::kSimulatorJob;
    tracer.record(s);
  }
}

// ---------------------------------------------------------- TimedTransport

namespace {

class TimedTransport final : public msg::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<msg::Transport> inner)
      : inner_(std::move(inner)) {}
  // The inner transport goes first: its destructor waits out handler
  // invocations, which touch the members below.
  ~TimedTransport() override { inner_.reset(); }
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  Status send(const msg::Message& m) override {
    if (m.type == msg::MsgType::kOpenBatchReq) noteSend(m.requestId);
    return inner_->send(m);
  }
  Status send(const msg::MessageRef& m) override {
    if (m.type == msg::MsgType::kOpenBatchReq) noteSend(m.requestId);
    return inner_->send(m);
  }
  void setHandler(Handler handler) override {
    inner_->setHandler([this, h = std::move(handler)](msg::Message&& m) {
      noteReply(m.requestId);
      h(std::move(m));
    });
  }
  void setViewHandler(ViewHandler handler) override {
    inner_->setViewHandler(
        [this, h = std::move(handler)](const msg::MessageView& m) {
          noteReply(m.requestId());
          h(m);
        });
  }
  void setCloseHandler(std::function<void()> handler) override {
    inner_->setCloseHandler(std::move(handler));
  }
  void close() override { inner_->close(); }
  bool isOpen() const override { return inner_->isOpen(); }
  std::string_view kindName() const override { return inner_->kindName(); }

 private:
  void noteSend(std::uint64_t requestId) {
    Tracer* tracer = Tracer::active();
    if (tracer == nullptr || requestId == 0) return;
    const auto& ctx = Tracer::context();
    Span s;
    s.id = tracer->newId();
    s.parent = ctx.current;
    s.request = ctx.request;
    s.start = nowNs();
    s.name = SpanName::kMsgAck;
    std::lock_guard lock(mu_);
    pending_.emplace(requestId, s);  // a same-id resend keeps the first send
  }
  void noteReply(std::uint64_t requestId) {
    Tracer* tracer = Tracer::active();
    if (tracer == nullptr || requestId == 0) return;
    Span s;
    {
      std::lock_guard lock(mu_);
      const auto it = pending_.find(requestId);
      if (it == pending_.end()) return;
      s = it->second;
      pending_.erase(it);
    }
    s.end = nowNs();
    tracer->record(s);
  }

  std::mutex mu_;
  std::map<std::uint64_t, Span> pending_;
  std::unique_ptr<msg::Transport> inner_;
};

}  // namespace

std::unique_ptr<msg::Transport> timedTransport(
    std::unique_ptr<msg::Transport> inner) {
  return std::make_unique<TimedTransport>(std::move(inner));
}

// ---------------------------------------------------------- daemon sample

DaemonSample sampleDaemons(const std::vector<Node>& nodes) {
  DaemonSample s;
  for (const auto& n : nodes) {
    s.stats += n.daemon->stats();
    for (const auto& sc : n.daemon->shardCounters()) {
      s.served += sc.served;
      s.batches += sc.batches;
      s.maxBatch = std::max(s.maxBatch, sc.maxBatch);
      s.shed += sc.shed;
      s.replicaHits += sc.replicaHits;
      s.notLeased += sc.notLeased;
    }
    const auto fc = n.daemon->federationCounters();
    s.redirects += fc.redirects;
    s.leaseGrants += fc.leaseGrantsSent;
  }
  return s;
}

}  // namespace lb
