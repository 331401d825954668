#include "dvlib/simfs_client.hpp"

namespace simfs::dvlib {

SimFSClient::SimFSClient(std::shared_ptr<Session> session)
    : session_(std::move(session)) {}

SimFSClient::~SimFSClient() { finalize(); }

Result<std::unique_ptr<SimFSClient>> SimFSClient::connect(
    std::unique_ptr<msg::Transport> transport, const std::string& context) {
  auto session = Session::connect(std::move(transport), context);
  if (!session) return session.status();
  return std::unique_ptr<SimFSClient>(new SimFSClient(std::move(*session)));
}

Result<std::unique_ptr<SimFSClient>> SimFSClient::connect(
    std::shared_ptr<NodeRouter> router, const std::string& context) {
  auto session = Session::connect(std::move(router), context);
  if (!session) return session.status();
  return std::unique_ptr<SimFSClient>(new SimFSClient(std::move(*session)));
}

Result<AcquireHandle> SimFSClient::findRequest(RequestId req) {
  std::lock_guard lock(mutex_);
  const auto it = requests_.find(req);
  if (it == requests_.end()) {
    return errFailedPrecondition("dvlib: unknown request");
  }
  return it->second;
}

void SimFSClient::eraseIfComplete(RequestId req, const AcquireHandle& handle) {
  if (!handle.complete()) return;
  std::lock_guard lock(mutex_);
  requests_.erase(req);
}

Status SimFSClient::acquire(const std::vector<std::string>& files,
                            SimfsStatus* status) {
  return session_->acquire(files, status);
}

Result<RequestId> SimFSClient::acquireNb(const std::vector<std::string>& files,
                                         SimfsStatus* status) {
  auto handle = session_->acquireAsync(files);
  // One round trip: the ack fills the DV's estimates into `status`, the
  // paper's SIMFS_Acquire_nb contract.
  (void)handle.waitAck(status);
  std::lock_guard lock(mutex_);
  const RequestId id = nextRequest_++;
  requests_.emplace(id, std::move(handle));
  return id;
}

Status SimFSClient::wait(RequestId req, SimfsStatus* status) {
  auto handle = findRequest(req);
  if (!handle) return handle.status();
  const Status st = handle->wait(status);
  std::lock_guard lock(mutex_);
  requests_.erase(req);
  return st;
}

Status SimFSClient::test(RequestId req, bool* done, SimfsStatus* status) {
  auto handle = findRequest(req);
  if (!handle) return handle.status();
  bool complete = false;
  const Status st = handle->test(&complete, status);
  if (done != nullptr) *done = complete;
  eraseIfComplete(req, *handle);
  return st;
}

Status SimFSClient::waitSome(RequestId req, std::vector<int>* readyIdx,
                             SimfsStatus* status) {
  auto handle = findRequest(req);
  if (!handle) return handle.status();
  const Status st = handle->waitSome(readyIdx, status);
  eraseIfComplete(req, *handle);
  return st;
}

Status SimFSClient::testSome(RequestId req, std::vector<int>* readyIdx,
                             SimfsStatus* status) {
  auto handle = findRequest(req);
  if (!handle) return handle.status();
  const Status st = handle->testSome(readyIdx, status);
  eraseIfComplete(req, *handle);
  return st;
}

Status SimFSClient::cancel(RequestId req) {
  auto handle = findRequest(req);
  if (!handle) return handle.status();
  {
    std::lock_guard lock(mutex_);
    requests_.erase(req);
  }
  return handle->cancel();
}

Status SimFSClient::release(const std::string& file) {
  return session_->release(file);
}

Result<bool> SimFSClient::bitrep(const std::string& file,
                                 std::uint64_t digest) {
  return session_->bitrep(file, digest);
}

void SimFSClient::finalize() { session_->finalize(); }

}  // namespace simfs::dvlib
