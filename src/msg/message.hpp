// DV <-> DVLib protocol messages (the "TCP/IP control messages" of Fig. 4).
//
// One compact tagged struct covers the whole protocol; the fields a given
// message type uses are documented next to the type. Encoding is a simple
// length-prefixed binary format (little-endian) so the same messages flow
// over the in-process transport and Unix-domain sockets unchanged.
#pragma once

#include "common/status.hpp"
#include "common/types.hpp"
#include "msg/wire.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simfs::msg {

/// Protocol message types.
enum class MsgType : std::uint16_t {
  // --- session setup -------------------------------------------------------
  kHello = 1,      ///< client->DV: context=ctx name, intArg=role (ClientRole),
                   ///< intArg2=bitmask of kHelloCap* capabilities (0 =
                   ///< legacy client). text is unused; old clients may put
                   ///< a key there next to the reserved kHelloCapShm bit.
  kHelloAck,       ///< DV->client: code=status, intArg=assigned client id.
                   ///< intArg2 is always 0, so every ack stays byte-
                   ///< identical to the pre-negotiation protocol.

  // --- analysis-side data access (Sec. III-A, III-C) -----------------------
  // Interest is registered by kOpenBatchReq (below) and dropped by
  // kReleaseReq; together they are the paper's SIMFS_Acquire /
  // SIMFS_Release and its transparent open / close. Values 3-7 belonged to
  // retired ops and stay unassigned: a frame carrying one gets kError.
  kReleaseReq = 8, ///< files[]: drop the DV interest a kOpenBatchReq
                   ///< registered — per file, ONE waiter entry while the
                   ///< step is still pending, else one output-step
                   ///< reference. Vectored: the daemon frees every file
                   ///< under ONE shard-lock acquisition. Never shed: a
                   ///< dropped release would leak pinned cache slots.
                   ///< requestId 0 = fire-and-forget (no ack), how
                   ///< cancels and transparent closes send it.
  kReleaseAck,     ///< code=worst per-file status, intArg=#files freed
                   ///< (only sent for releases with requestId != 0)
  kBitrepReq,      ///< files[0]=name: SIMFS_Bitrep
  kBitrepAck,      ///< code=status, intArg: 1 bitwise match, 0 mismatch
  kFileReady,      ///< DV->client: files[0]=name, code=status (also failures)

  // --- simulator-side events (Sec. III-B) -----------------------------------
  // 13-14 are retired and stay unassigned.
  kSimFileClosed = 15, ///< files[0]=name, intArg=size: file is ready on disk
  kSimFinished,    ///< job completed; code=status (failures propagate)

  // --- introspection ----------------------------------------------------------
  kStatusReq,      ///< ask the DV for its aggregate statistics
  kStatusAck,      ///< text="key=value;..." dump, intArg=stepsProduced

  // --- generic --------------------------------------------------------------
  kError,          ///< code=status, text=message

  // --- introspection (daemon pipeline) ---------------------------------------
  kShardStatsReq,  ///< ask the daemon for per-shard serving counters
  kShardStatsAck,  ///< files[i]="key=value;..." per shard, intArg=#shards,
                   ///< text="shards=N;workers=M"

  // --- federation (consistent-hash context routing) --------------------------
  kRedirect,       ///< DV->client: context is owned by another node.
                   ///< context=ctx, text=owner node id, files[i]=ring
                   ///< entries "id=endpoint", intArg=ring version.
                   ///< intArg2=read-replica count R (additive, PR 8):
                   ///< 0 from pre-replica daemons and whenever replicas
                   ///< are disabled, so legacy redirects stay
                   ///< byte-identical.
  kRingReq,        ///< ask a daemon for its ring membership table
  kRingUpdate,     ///< DV->client: files[i]="id=endpoint", intArg=ring
                   ///< version, text=answering node's id. Sent as the
                   ///< kRingReq reply and pushed when a daemon learns a
                   ///< newer table; receivers re-resolve routing.
                   ///< intArg2=read-replica count R (0 = replicas off).

  // --- the interest op (async DVLib core) -------------------------------------
  kOpenBatchReq,   ///< files[]: register interest in N files in ONE round
                   ///< trip — every SIMFS_Acquire(_nb) and every
                   ///< intercepted open, batch of one included. The daemon
                   ///< resolves the whole batch under a single shard-lock
                   ///< acquisition; per-file outcomes come back in the ack.
                   ///< intArg2=relative deadline budget (ns, 0 = none): the
                   ///< daemon converts it to an absolute shard deadline at
                   ///< dispatch, and re-simulations whose waiters have all
                   ///< expired or cancelled are killed. Relative on the wire
                   ///< so cross-process clock skew cannot shift it.
  kOpenBatchAck,   ///< code/text=worst per-file status. Outcome pairs are
                   ///< positional (request order): ints[2i]=per-file
                   ///< StatusCode*2 + (1 if already available),
                   ///< ints[2i+1]=per-file estimated wait (ns).
                   ///< intArg=#immediately available, intArg2=max
                   ///< estimated wait across the batch.
  // 27-28 are retired and stay unassigned.

  // --- liveness (peer health / probing) ---------------------------------------
  kPing = 29,      ///< liveness probe: intArg=sender's monotonic sequence
                   ///< number. Sent daemon->daemon as the peer heartbeat and
                   ///< by `simfsctl ping`; answered inline, never queued.
  kPong,           ///< probe reply: intArg echoes the ping sequence,
                   ///< text=answering node's id

  // --- read-only replica leases (owner -> ring successors) --------------------
  kLeaseGrant,     ///< owner->replica: context, intArg=lease generation,
                   ///< ints[]=resident StepIndex values now covered,
                   ///< text=granting node's id. Grants are incremental
                   ///< (union into the replica's leased set) and fenced
                   ///< by generation: a grant older than the replica's
                   ///< current generation is inert.
  kLeaseRevoke,    ///< owner->replica: context, intArg=lease generation
                   ///< (already bumped past every outstanding grant),
                   ///< ints[]=steps to revoke; an EMPTY list revokes the
                   ///< whole context (used for resync after a peer link
                   ///< is re-established). Sent BEFORE the owner mutates
                   ///< the step (eviction unlink / re-simulation).
  kLeaseAck,       ///< replica->owner: context, code=status, intArg
                   ///< echoes the generation, intArg2=1 when acking a
                   ///< revoke (0 for grants), text=acking node's id.

  // --- context geometry (POSIX frontend namespace synthesis) ------------------
  kGeometryReq,    ///< ask a daemon for a context's step/file geometry so a
                   ///< POSIX adapter can synthesize listings and stat
                   ///< results without opening anything. context="" asks
                   ///< for the context enumeration instead. Answered inline
                   ///< on the dispatching thread (geometry is static config,
                   ///< registered on every node, so no kRedirect is needed).
  kGeometryAck,    ///< context form: ints[] = [deltaD, deltaR, numTimesteps,
                   ///< outputStepBytes, padWidth], files[] = [outputPrefix,
                   ///< outputSuffix], intArg = numOutputSteps, text =
                   ///< answering node's id, code = status (kNotFound for an
                   ///< unknown context). Enumeration form (req context ""):
                   ///< files[] = registered context names, intArg = count,
                   ///< ints[] empty. Decoders must length-check both lists
                   ///< like every other ack — a hostile peer controls them.

  // --- elastic membership (ring admin + live context handoff) ---------------
  kRingPropose,    ///< admin/peer->DV: stage a membership change. files[] =
                   ///< proposed ring entries ("id=endpoint"), intArg =
                   ///< proposed ring version (must exceed the current one).
                   ///< The first receiver (hops == 0) relays the proposal to
                   ///< every member of old ∪ new membership; each node that
                   ///< loses a context starts streaming its kContextHandoff
                   ///< snapshot to the new owner while still serving it.
  kRingProposeAck, ///< DV->admin: code=status, intArg=proposed version,
                   ///< intArg2=#contexts changing owner, files[] = the moved
                   ///< contexts as "ctx:oldOwner>newOwner".
  kRingCommit,     ///< admin/peer->DV: commit a proposed change. Same payload
                   ///< as kRingPropose (entries travel again, so a node that
                   ///< missed the proposal still converges). The receiver
                   ///< adopts the ring, applies staged handoff imports whose
                   ///< epoch matches, and relays when hops == 0. Old owners
                   ///< flip moved contexts to redirect mode at this point.
  kRingCommitAck,  ///< DV->admin: code=status, intArg=committed version.
  kContextHandoff, ///< old owner->new owner: one snapshot frame of a moving
                   ///< context. context=name, intArg=epoch (the ring version
                   ///< the transfer belongs to — the fence), text=sender's
                   ///< node id. Data frame (intArg2 bit0 clear): ints[] =
                   ///< available StepIndex values (≤ SIMFS_HANDOFF_BATCH per
                   ///< frame). Final frame (intArg2 bit0 set): ints[] =
                   ///< [leaseGen, totalRefs, (pendingStep, waiters)...] —
                   ///< lease generation for the PR 8 fence plus the pending
                   ///< steps clients are still owed, so the new owner can
                   ///< warm-launch their re-simulations. Frames with epoch <
                   ///< the receiver's committed version are rejected (stale);
                   ///< epoch == current applies immediately (post-commit
                   ///< delta); epoch > current is staged until kRingCommit.
  kContextHandoffAck, ///< new owner->old owner: context, code=status, intArg
                   ///< echoes the epoch, intArg2=1 when acking the final
                   ///< frame (the commit point of the transfer), text=acking
                   ///< node's id.
};

/// Who is connecting (intArg of kHello).
enum class ClientRole : std::int64_t { kAnalysis = 0, kSimulator = 1 };

/// Reserved kHello.intArg2 bit, once the offer of a retired shared-memory
/// data plane. This build never sets it and the daemon ignores it: an old
/// client that offers it is answered over the socket with intArg2 = 0,
/// which its negotiator already reads as "stay on the socket".
inline constexpr std::int64_t kHelloCapShm = 1;

/// kHello.intArg2 capability bit: the client understands replica serving —
/// a non-owner node holding an active read lease for the context may bind
/// the session locally instead of redirecting, and the client handles
/// per-file kNotLeased outcomes by retrying the batch at the ring owner.
inline constexpr std::int64_t kHelloCapReplica = 2;

/// kHello.intArg2 capability bit: the client speaks versioned protocol —
/// kHello.ints = [minVersion, maxVersion] it can serve, and the daemon
/// answers kHelloAck.ints = [chosenVersion] (the top of the intersection)
/// or rejects the hello with kFailedPrecondition when the ranges do not
/// overlap. Hellos without this bit (and the acks to them) are
/// byte-identical to the pre-negotiation protocol, which is what lets a
/// mixed-version ring upgrade rolling instead of in lockstep.
inline constexpr std::int64_t kHelloCapVersion = 4;

/// Protocol versions this build can speak. Version 1 is everything up to
/// the static-ring protocol; version 2 adds the elastic-membership ops
/// (kRingPropose/kRingCommit/kContextHandoff) and the version handshake
/// itself. kPing.intArg2 / kPong.intArg2 carry the same negotiation
/// additively (0 = legacy peer) so operators can read a node's negotiated
/// version without binding a session.
inline constexpr std::int64_t kProtocolVersionMin = 1;
inline constexpr std::int64_t kProtocolVersionMax = 2;

/// The one protocol message shape.
struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t requestId = 0;   ///< echoes the request on replies
  std::string context;           ///< simulation context name
  std::vector<std::string> files;
  /// Type-specific scalar list (e.g. the per-file outcome pairs of
  /// kOpenBatchAck). Encoded after `files`.
  std::vector<std::int64_t> ints;
  std::int32_t code = 0;         ///< StatusCode as int
  std::int64_t intArg = 0;       ///< type-specific scalar
  std::int64_t intArg2 = 0;      ///< second scalar (e.g. estimated wait)
  /// Federation forwarding hop count. A daemon only relays messages with
  /// hops == 0 and increments it on the relayed copy, so disagreeing
  /// rings can never ping-pong a message between nodes.
  std::uint16_t hops = 0;
  std::string text;              ///< human-readable detail

  friend bool operator==(const Message&, const Message&) = default;
};

/// Non-owning message for the zero-copy send path: the same fields as
/// Message, but every string is a view and the lists are spans. Callers
/// keep the referenced storage alive until the send call returns (the
/// transport serializes into its own pooled buffer before queueing).
/// The daemon builds replies as MessageRefs over per-shard arena memory.
struct MessageRef {
  MsgType type = MsgType::kError;
  std::uint64_t requestId = 0;
  std::string_view context;
  std::span<const std::string_view> files;
  std::span<const std::int64_t> ints;
  std::int32_t code = 0;
  std::int64_t intArg = 0;
  std::int64_t intArg2 = 0;
  std::uint16_t hops = 0;
  std::string_view text;
};

/// Non-owning view over one encoded message, decoding IN PLACE from the
/// transport's receive buffer: scalars are parsed eagerly (cheap), the
/// context/text strings are string_views into the buffer, and files[] /
/// ints[] decode lazily through forward iterators. parse() validates the
/// whole buffer up front (hostile counts, truncation, trailing bytes —
/// exactly the checks decode() applies), so iteration afterwards is
/// unchecked and allocation-free.
///
/// Lifetime: a view (and everything it hands out) is valid only while the
/// underlying buffer is; transports guarantee it for the duration of the
/// receive callback and not a moment longer. Anything that outlives the
/// callback must be copied out (toMessage(), or an arena copy).
class MessageView {
 public:
  /// Validates `payload` (an encode()d message, no outer frame) and
  /// builds the view. Failure modes and messages match decode().
  [[nodiscard]] static Result<MessageView> parse(std::string_view payload);

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  [[nodiscard]] std::uint64_t requestId() const noexcept { return requestId_; }
  [[nodiscard]] std::int32_t code() const noexcept { return code_; }
  [[nodiscard]] std::int64_t intArg() const noexcept { return intArg_; }
  [[nodiscard]] std::int64_t intArg2() const noexcept { return intArg2_; }
  [[nodiscard]] std::uint16_t hops() const noexcept { return hops_; }
  [[nodiscard]] std::string_view context() const noexcept { return context_; }
  [[nodiscard]] std::string_view text() const noexcept { return text_; }

  [[nodiscard]] std::size_t fileCount() const noexcept { return nFiles_; }
  [[nodiscard]] std::size_t intCount() const noexcept { return nInts_; }

  /// Forward iterator over files[], decoding each length-prefixed entry
  /// in place.
  class FileIterator {
   public:
    FileIterator() = default;
    FileIterator(const char* at, std::size_t remaining)
        : at_(at), remaining_(remaining) {}
    [[nodiscard]] std::string_view operator*() const;
    FileIterator& operator++();
    [[nodiscard]] bool operator==(const FileIterator& o) const noexcept {
      return remaining_ == o.remaining_;
    }

   private:
    const char* at_ = nullptr;
    std::size_t remaining_ = 0;  ///< entries left including *this
  };

  /// Forward iterator over ints[]; entries are byte-decoded, so the
  /// region needs no alignment.
  class IntIterator {
   public:
    IntIterator() = default;
    IntIterator(const char* at, std::size_t remaining)
        : at_(at), remaining_(remaining) {}
    [[nodiscard]] std::int64_t operator*() const;
    IntIterator& operator++() {
      at_ += 8;
      --remaining_;
      return *this;
    }
    [[nodiscard]] bool operator==(const IntIterator& o) const noexcept {
      return remaining_ == o.remaining_;
    }

   private:
    const char* at_ = nullptr;
    std::size_t remaining_ = 0;
  };

  [[nodiscard]] FileIterator filesBegin() const noexcept {
    return {filesRegion_.data(), nFiles_};
  }
  [[nodiscard]] FileIterator filesEnd() const noexcept { return {nullptr, 0}; }
  [[nodiscard]] IntIterator intsBegin() const noexcept {
    return {intsRegion_.data(), nInts_};
  }
  [[nodiscard]] IntIterator intsEnd() const noexcept { return {nullptr, 0}; }

  /// First file, or empty when the list is (most handlers only need
  /// files[0]).
  [[nodiscard]] std::string_view file0() const noexcept {
    return nFiles_ == 0 ? std::string_view() : *filesBegin();
  }

  /// Materializes an owned Message (the legacy decode() result).
  [[nodiscard]] Message toMessage() const;

 private:
  MsgType type_ = MsgType::kError;
  std::uint64_t requestId_ = 0;
  std::int32_t code_ = 0;
  std::int64_t intArg_ = 0;
  std::int64_t intArg2_ = 0;
  std::uint16_t hops_ = 0;
  std::string_view context_;
  std::string_view text_;
  std::string_view filesRegion_;  ///< the validated files[] byte region
  std::string_view intsRegion_;   ///< the validated ints[] byte region
  std::size_t nFiles_ = 0;
  std::size_t nInts_ = 0;
};

/// Serializes `m` as ONE COMPLETE FRAME (u32 length prefix + payload)
/// directly into `out`: beginFrame / payload bytes / endFrame, no
/// intermediate string and no re-copy. out.payload() is byte-identical
/// to encode(m) — pinned by the golden-bytes test.
void encodeInto(const Message& m, WireBuffer& out);
void encodeInto(const MessageRef& m, WireBuffer& out);

/// Materializes an owned Message from a send ref (legacy-transport
/// interop; the zero-copy paths never call this).
[[nodiscard]] Message materialize(const MessageRef& m);

/// Deep-copies a view into `arena` and returns a MessageRef over the
/// stable arena storage — how a request outlives the receive buffer
/// without touching the heap (the daemon's queued shard requests).
[[nodiscard]] MessageRef copyToArena(const MessageView& v, Arena& arena);

/// Serializes a message (without any outer framing). Thin wrapper over
/// encodeInto, kept for tests and cold paths.
[[nodiscard]] std::string encode(const Message& m);

/// Parses an encode()d buffer into an owned Message. Thin wrapper over
/// MessageView::parse + toMessage, kept for tests and cold paths.
[[nodiscard]] Result<Message> decode(std::string_view data);

/// Frames a payload with a u32 length prefix for stream transports.
[[nodiscard]] std::string frame(std::string_view payload);

}  // namespace simfs::msg
