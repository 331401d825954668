#include "dvlib/iolib.hpp"

#include <cstring>

namespace simfs::dvlib {

namespace {
constexpr char kMagic[4] = {'S', 'N', 'C', '1'};

int rc(const Status& st) { return static_cast<int>(st.code()); }
int rc(StatusCode code) { return static_cast<int>(code); }
}  // namespace

std::string encodeField(std::span<const double> values) {
  std::string out;
  out.reserve(sizeof(kMagic) + sizeof(std::uint64_t) +
              values.size() * sizeof(double));
  out.append(kMagic, sizeof(kMagic));
  const std::uint64_t n = values.size();
  out.append(reinterpret_cast<const char*>(&n), sizeof(n));
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(double));
  return out;
}

Result<std::vector<double>> decodeField(std::string_view blob) {
  if (blob.size() < sizeof(kMagic) + sizeof(std::uint64_t) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return errInvalidArgument("iolib: not an SNC1 payload");
  }
  std::uint64_t n = 0;
  std::memcpy(&n, blob.data() + sizeof(kMagic), sizeof(n));
  const std::size_t expect =
      sizeof(kMagic) + sizeof(std::uint64_t) + n * sizeof(double);
  if (blob.size() != expect) {
    return errInvalidArgument("iolib: truncated SNC1 payload");
  }
  std::vector<double> values(n);
  std::memcpy(values.data(), blob.data() + sizeof(kMagic) + sizeof(n),
              n * sizeof(double));
  return values;
}

IoDispatch& IoDispatch::instance() {
  static IoDispatch dispatch;
  return dispatch;
}

void IoDispatch::installAnalysis(SimFSClient* client, vfs::FileStore* store) {
  std::lock_guard lock(mutex_);
  role_ = Role::kAnalysis;
  client_ = client;
  store_ = store;
  onFileClosed_ = nullptr;
  handles_.clear();
}

void IoDispatch::installSimulator(
    std::function<void(const std::string&)> onFileClosed,
    vfs::FileStore* store) {
  std::lock_guard lock(mutex_);
  role_ = Role::kSimulator;
  client_ = nullptr;
  store_ = store;
  onFileClosed_ = std::move(onFileClosed);
  handles_.clear();
}

void IoDispatch::installPassthrough(vfs::FileStore* store) {
  std::lock_guard lock(mutex_);
  role_ = Role::kPassthrough;
  client_ = nullptr;
  store_ = store;
  onFileClosed_ = nullptr;
  handles_.clear();
}

void IoDispatch::reset() {
  std::lock_guard lock(mutex_);
  role_ = Role::kNone;
  client_ = nullptr;
  store_ = nullptr;
  onFileClosed_ = nullptr;
  handles_.clear();
}

Result<std::int64_t> IoDispatch::openForRead(const std::string& name) {
  SimFSClient* client = nullptr;
  {
    std::lock_guard lock(mutex_);
    if (role_ == Role::kNone || store_ == nullptr) {
      return errFailedPrecondition("iolib: no installation");
    }
    client = role_ == Role::kAnalysis ? client_ : nullptr;
    if (client == nullptr && !store_->exists(name)) {
      return errNotFound("iolib: no file " + name);
    }
  }
  AcquireHandle acquire;
  if (client != nullptr) {
    // The paper's non-blocking open, pipelined: the vectored request goes
    // on the wire (the DV may kick off a re-simulation) and we do NOT
    // wait for the ack — consecutive opens stream back-to-back. The read
    // is the blocking point; open-time errors surface there.
    acquire = client->session()->acquireAsync({name});
  }
  std::lock_guard lock(mutex_);
  const auto id = nextHandle_++;
  handles_[id] = Handle{name, /*writing=*/false, {}, std::move(acquire)};
  return id;
}

Result<std::int64_t> IoDispatch::createForWrite(const std::string& name) {
  std::lock_guard lock(mutex_);
  if (role_ == Role::kNone || store_ == nullptr) {
    return errFailedPrecondition("iolib: no installation");
  }
  if (role_ == Role::kAnalysis) {
    return errFailedPrecondition("iolib: analysis role cannot create");
  }
  const auto id = nextHandle_++;
  handles_[id] = Handle{name, /*writing=*/true, {}, {}};
  return id;
}

Result<std::string> IoDispatch::readAll(std::int64_t handle) {
  std::string name;
  AcquireHandle acquire;
  vfs::FileStore* store = nullptr;
  {
    std::lock_guard lock(mutex_);
    const auto it = handles_.find(handle);
    if (it == handles_.end()) return errNotFound("iolib: bad handle");
    if (it->second.writing) {
      return errFailedPrecondition("iolib: handle open for write");
    }
    name = it->second.name;
    acquire = it->second.acquire;
    store = store_;
  }
  if (acquire.valid()) {
    // Blocking point of the intercepted read (Fig. 4 step 6): wait on
    // the pipelined open's completion token.
    SIMFS_RETURN_IF_ERROR(acquire.wait());
  }
  return store->read(name);
}

Status IoDispatch::write(std::int64_t handle, std::string content) {
  std::lock_guard lock(mutex_);
  const auto it = handles_.find(handle);
  if (it == handles_.end()) return errNotFound("iolib: bad handle");
  if (!it->second.writing) {
    return errFailedPrecondition("iolib: handle open for read");
  }
  it->second.buffer = std::move(content);
  return Status::ok();
}

Status IoDispatch::close(std::int64_t handle) {
  Handle h;
  vfs::FileStore* store = nullptr;
  std::function<void(const std::string&)> onFileClosed;
  Role role;
  {
    std::lock_guard lock(mutex_);
    const auto it = handles_.find(handle);
    if (it == handles_.end()) return errNotFound("iolib: bad handle");
    h = std::move(it->second);
    handles_.erase(it);
    store = store_;
    onFileClosed = onFileClosed_;
    role = role_;
  }
  if (h.writing) {
    SIMFS_RETURN_IF_ERROR(store->put(h.name, std::move(h.buffer)));
    // Close is the signal that the file is ready on disk (Fig. 4 step 4).
    if (role == Role::kSimulator && onFileClosed) onFileClosed(h.name);
    return Status::ok();
  }
  // Analysis close: release the open's DV interest through its handle —
  // the waiter entry if the acquire never completed (or was never read),
  // the reference if it did — on the node that served it. A batch of one
  // that completed with a failure holds no interest: nothing to release.
  if (role == Role::kAnalysis && h.acquire.valid()) {
    bool done = false;
    const Status st = h.acquire.test(&done, nullptr);
    if (!done || st.isOk()) (void)h.acquire.cancel();
  }
  return Status::ok();
}

Result<std::string> IoDispatch::nameOf(std::int64_t handle) const {
  std::lock_guard lock(mutex_);
  const auto it = handles_.find(handle);
  if (it == handles_.end()) return errNotFound("iolib: bad handle");
  return it->second.name;
}

// ------------------------------------------------------------------ sncdf

int snc_open(const char* path, int /*mode*/, int* ncidp) {
  if (path == nullptr || ncidp == nullptr) {
    return rc(StatusCode::kInvalidArgument);
  }
  auto h = IoDispatch::instance().openForRead(path);
  if (!h) return rc(h.status());
  *ncidp = static_cast<int>(*h);
  return 0;
}

int snc_create(const char* path, int /*cmode*/, int* ncidp) {
  if (path == nullptr || ncidp == nullptr) {
    return rc(StatusCode::kInvalidArgument);
  }
  auto h = IoDispatch::instance().createForWrite(path);
  if (!h) return rc(h.status());
  *ncidp = static_cast<int>(*h);
  return 0;
}

int snc_get_var_double(int ncid, double* out, std::size_t maxValues,
                       std::size_t* nRead) {
  if (out == nullptr || nRead == nullptr) {
    return rc(StatusCode::kInvalidArgument);
  }
  auto blob = IoDispatch::instance().readAll(ncid);
  if (!blob) return rc(blob.status());
  auto values = decodeField(*blob);
  if (!values) return rc(values.status());
  const std::size_t n = std::min(maxValues, values->size());
  std::memcpy(out, values->data(), n * sizeof(double));
  *nRead = n;
  return 0;
}

int snc_put_var_double(int ncid, const double* values, std::size_t count) {
  if (values == nullptr && count > 0) return rc(StatusCode::kInvalidArgument);
  return rc(IoDispatch::instance().write(
      ncid, encodeField(std::span<const double>(values, count))));
}

int snc_close(int ncid) { return rc(IoDispatch::instance().close(ncid)); }

// -------------------------------------------------------------------- sh5

sh5_id sh5_fopen(const char* name, unsigned /*flags*/) {
  if (name == nullptr) return -rc(StatusCode::kInvalidArgument);
  auto h = IoDispatch::instance().openForRead(name);
  if (!h) return -rc(h.status());
  return *h;
}

sh5_id sh5_fcreate(const char* name, unsigned /*flags*/) {
  if (name == nullptr) return -rc(StatusCode::kInvalidArgument);
  auto h = IoDispatch::instance().createForWrite(name);
  if (!h) return -rc(h.status());
  return *h;
}

int sh5_dread(sh5_id file, double* out, std::size_t maxValues,
              std::size_t* nRead) {
  if (out == nullptr || nRead == nullptr) {
    return rc(StatusCode::kInvalidArgument);
  }
  auto blob = IoDispatch::instance().readAll(file);
  if (!blob) return rc(blob.status());
  auto values = decodeField(*blob);
  if (!values) return rc(values.status());
  const std::size_t n = std::min(maxValues, values->size());
  std::memcpy(out, values->data(), n * sizeof(double));
  *nRead = n;
  return 0;
}

int sh5_dwrite(sh5_id file, const double* values, std::size_t count) {
  if (values == nullptr && count > 0) return rc(StatusCode::kInvalidArgument);
  return rc(IoDispatch::instance().write(
      file, encodeField(std::span<const double>(values, count))));
}

int sh5_fclose(sh5_id file) { return rc(IoDispatch::instance().close(file)); }

// ----------------------------------------------------------------- sadios

namespace {
/// Pending scheduled reads per ADIOS handle (ADIOS batches reads and
/// executes them in perform_reads). The open already fired the vectored
/// acquire without blocking, so perform_reads is one wait on the batch
/// handle — the SAVIME/ADIOS scheduled-read model end-to-end.
struct ScheduledRead {
  double* out;
  std::size_t maxValues;
  std::size_t* nRead;
};
std::mutex g_adiosMutex;
std::map<sadios_id, std::vector<ScheduledRead>> g_adiosReads;
}  // namespace

sadios_id sadios_open(const char* name, const char* mode) {
  if (name == nullptr || mode == nullptr) {
    return -rc(StatusCode::kInvalidArgument);
  }
  if (std::strcmp(mode, "w") == 0) {
    auto h = IoDispatch::instance().createForWrite(name);
    if (!h) return -rc(h.status());
    return *h;
  }
  if (std::strcmp(mode, "r") == 0) {
    auto h = IoDispatch::instance().openForRead(name);
    if (!h) return -rc(h.status());
    return *h;
  }
  return -rc(StatusCode::kInvalidArgument);
}

int sadios_schedule_read(sadios_id file, double* out, std::size_t maxValues,
                         std::size_t* nRead) {
  if (out == nullptr || nRead == nullptr) {
    return rc(StatusCode::kInvalidArgument);
  }
  std::lock_guard lock(g_adiosMutex);
  g_adiosReads[file].push_back(ScheduledRead{out, maxValues, nRead});
  return 0;
}

int sadios_perform_reads(sadios_id file) {
  std::vector<ScheduledRead> reads;
  {
    std::lock_guard lock(g_adiosMutex);
    const auto it = g_adiosReads.find(file);
    if (it != g_adiosReads.end()) {
      reads = std::move(it->second);
      g_adiosReads.erase(it);
    }
  }
  if (reads.empty()) return 0;
  auto blob = IoDispatch::instance().readAll(file);
  if (!blob) return rc(blob.status());
  auto values = decodeField(*blob);
  if (!values) return rc(values.status());
  for (const auto& r : reads) {
    const std::size_t n = std::min(r.maxValues, values->size());
    std::memcpy(r.out, values->data(), n * sizeof(double));
    *r.nRead = n;
  }
  return 0;
}

int sadios_write(sadios_id file, const double* values, std::size_t count) {
  if (values == nullptr && count > 0) return rc(StatusCode::kInvalidArgument);
  return rc(IoDispatch::instance().write(
      file, encodeField(std::span<const double>(values, count))));
}

int sadios_close(sadios_id file) {
  {
    std::lock_guard lock(g_adiosMutex);
    g_adiosReads.erase(file);
  }
  return rc(IoDispatch::instance().close(file));
}

}  // namespace simfs::dvlib
