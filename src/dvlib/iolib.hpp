// Transparent-mode I/O interception (Sec. III-C1, Table I).
//
// The real DVLib ships bindings for netCDF, HDF5 and ADIOS; since those
// libraries are not available here, this repo provides three miniature
// I/O libraries with the same call shapes, all routed through one
// interception core (IoDispatch):
//
//   paper call          sncdf (netCDF-like)   sh5 (HDF5-like)  sadios (ADIOS-like)
//   open                snc_open              sh5_fopen        sadios_open("r")
//   create              snc_create            sh5_fcreate      sadios_open("w")
//   read                snc_get_var_double    sh5_dread        sadios_schedule_read
//                                                              + sadios_perform_reads
//   close               snc_close             sh5_fclose       sadios_close
//
// Interception semantics follow the paper exactly:
//   * analysis open  -> non-blocking DV request (re-simulation may start),
//   * analysis read  -> blocks until the DV signals the file is ready,
//   * analysis close -> dereferences the output step at the DV,
//   * simulator create/close -> content lands in the store and the DV is
//     notified that the file is ready (Fig. 4 steps 4-5).
//
// Pipelining (async session core): an analysis open fires a vectored
// acquire (kOpenBatchReq) and returns WITHOUT waiting for the daemon's
// ack — N consecutive snc/sh5/sadios opens put N requests on the wire
// back-to-back instead of paying N serial round trips. The read is the
// first point that waits on the open's AcquireHandle (for sadios that is
// sadios_perform_reads, the scheduled-read model); open-time errors such
// as an unparsable name therefore surface at the read. The close is the
// open handle's cancel(): one fire-and-forget kReleaseReq, sent to the
// node that served the open, drops the waiter entry or the reference, so
// neither a completed nor an abandoned open can pin a DV cache slot.
//
// All payloads use one trivial container format: "SNC1" magic, u64 count,
// raw little-endian doubles (helpers below).
#pragma once

#include "common/status.hpp"
#include "dvlib/simfs_client.hpp"
#include "vfs/file_store.hpp"

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace simfs::dvlib {

/// Serializes a double field into the container format.
[[nodiscard]] std::string encodeField(std::span<const double> values);

/// Parses the container format.
[[nodiscard]] Result<std::vector<double>> decodeField(std::string_view blob);

/// Process-wide interception state shared by the three facades.
/// Mirrors how the real DVLib configures itself per process (environment
/// variables select context/role; here examples install explicitly).
class IoDispatch {
 public:
  /// Singleton accessor.
  static IoDispatch& instance();

  /// Analysis role: opens query the DV via `client`; bytes come from
  /// `store`. Both must outlive the installation.
  void installAnalysis(SimFSClient* client, vfs::FileStore* store);

  /// Simulator role: created files land in `store`; every close reports
  /// the file ready through `onFileClosed` (the DVLib->DV signal).
  void installSimulator(std::function<void(const std::string&)> onFileClosed,
                        vfs::FileStore* store);

  /// No DV: plain file I/O against `store` (useful for tooling/tests).
  void installPassthrough(vfs::FileStore* store);

  /// Clears the installation (handles become invalid).
  void reset();

  // --- operations used by the facades ---------------------------------------

  /// Intercepted open (analysis): non-blocking DV request. Returns a
  /// handle even when the file is still missing.
  [[nodiscard]] Result<std::int64_t> openForRead(const std::string& name);

  /// Intercepted create (simulator): starts buffering a new file.
  [[nodiscard]] Result<std::int64_t> createForWrite(const std::string& name);

  /// Intercepted read: blocks until the file is available, then returns
  /// the full content. Subsequent reads on the handle are served locally.
  [[nodiscard]] Result<std::string> readAll(std::int64_t handle);

  /// Buffers content on a write handle (replaces previous content).
  [[nodiscard]] Status write(std::int64_t handle, std::string content);

  /// Intercepted close: analysis handles dereference at the DV; simulator
  /// handles flush to the store and notify the DV.
  [[nodiscard]] Status close(std::int64_t handle);

  /// Name bound to a handle (diagnostics).
  [[nodiscard]] Result<std::string> nameOf(std::int64_t handle) const;

 private:
  IoDispatch() = default;

  enum class Role { kNone, kAnalysis, kSimulator, kPassthrough };

  struct Handle {
    std::string name;
    bool writing = false;
    std::string buffer;
    /// Analysis role: the pipelined open's completion token; the read
    /// waits on it, close cancels it when still incomplete.
    AcquireHandle acquire;
  };

  mutable std::mutex mutex_;
  Role role_ = Role::kNone;
  SimFSClient* client_ = nullptr;
  vfs::FileStore* store_ = nullptr;
  std::function<void(const std::string&)> onFileClosed_;
  std::map<std::int64_t, Handle> handles_;
  std::int64_t nextHandle_ = 1;
};

// ---------------------------------------------------------------- sncdf
// Miniature netCDF-flavoured API. All functions return 0 on success or a
// simfs::StatusCode as int.

int snc_open(const char* path, int mode, int* ncidp);
int snc_create(const char* path, int cmode, int* ncidp);
/// Reads up to `maxValues` doubles; `*nRead` receives the count. Blocks
/// until the (possibly re-simulated) file is on disk.
int snc_get_var_double(int ncid, double* out, std::size_t maxValues,
                       std::size_t* nRead);
int snc_put_var_double(int ncid, const double* values, std::size_t count);
int snc_close(int ncid);

// ------------------------------------------------------------------ sh5
// Miniature HDF5-flavoured API; handles are sh5_id (negative = error).

using sh5_id = std::int64_t;

sh5_id sh5_fopen(const char* name, unsigned flags);
sh5_id sh5_fcreate(const char* name, unsigned flags);
int sh5_dread(sh5_id file, double* out, std::size_t maxValues,
              std::size_t* nRead);
int sh5_dwrite(sh5_id file, const double* values, std::size_t count);
int sh5_fclose(sh5_id file);

// --------------------------------------------------------------- sadios
// Miniature ADIOS-flavoured API: reads are scheduled, then performed.

using sadios_id = std::int64_t;

/// mode: "r" or "w" (matches adios_open's read/write distinction).
sadios_id sadios_open(const char* name, const char* mode);
/// Registers a pending read into `out`/`maxValues`/`nRead`.
int sadios_schedule_read(sadios_id file, double* out, std::size_t maxValues,
                         std::size_t* nRead);
/// Executes scheduled reads; blocks until data is available.
int sadios_perform_reads(sadios_id file);
int sadios_write(sadios_id file, const double* values, std::size_t count);
int sadios_close(sadios_id file);

}  // namespace simfs::dvlib
