// The Unix socket is the only cross-process data plane; this header keeps
// one name that livebench's `data_plane` provenance field still reads.
#pragma once

namespace simfs::msg {

/// Always false: no shared-memory data plane is negotiated. Kept only so
/// livebench (benchmark-owned, built unmodified) reports "socket".
[[nodiscard]] inline bool shmNegotiationEnabled() { return false; }

}  // namespace simfs::msg
