// Zero-copy wire-pipeline building blocks: pooled framed send buffers and
// bump arenas for receive-side message copies.
//
//   * WireBuffer — a growable byte buffer holding ONE framed message. The
//     4-byte length header is reserved up front by beginFrame() and
//     back-patched by endFrame(), so serialization writes the final wire
//     bytes in one pass — no encode-then-frame re-copy. Messages that fit
//     kInlineCapacity (all control traffic) live entirely in inline
//     storage: a pooled buffer round trip touches no allocator at all.
//   * BufferPool — a bounded free-list of WireBuffers. Transports keep one
//     per connection so steady-state sends reuse the same handful of
//     buffers; the reactor returns them after writev() completes.
//   * Arena — a bump allocator for receive-side copies that must outlive
//     the transport's receive buffer (queued daemon requests, buffered
//     replies). reset() recycles the blocks, so a drain-reset cycle is
//     allocation-free once warm.
//
// Pool sizing knobs (read once per pool at construction):
//   SIMFS_WIRE_POOL_BUFS    max buffers retained per pool     (default 64)
//   SIMFS_WIRE_BUF_RETAIN   max capacity retained per buffer; buffers
//                           grown past this are shrunk back to inline
//                           storage on release (default 256 KiB)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace simfs::msg {

/// THE frame-size constant: sized so every control message (acks, opens,
/// small batches) fits without spilling. WireBuffer's inline storage and
/// the shm ring slot size both derive from it — a static_assert in
/// shm_ring.hpp ties them together, so the two paths cannot drift apart.
inline constexpr std::size_t kInlineFrameBytes = 256;

/// One framed outbound message; see file comment.
class WireBuffer {
 public:
  /// Control messages (acks, opens, small batches) fit inline; only bulk
  /// payloads (ring tables, big batches) spill to the heap.
  static constexpr std::size_t kInlineCapacity = kInlineFrameBytes;
  static constexpr std::size_t kFrameHeaderBytes = 4;

  WireBuffer() = default;
  WireBuffer(WireBuffer&& other) noexcept { moveFrom(other); }
  WireBuffer& operator=(WireBuffer&& other) noexcept {
    if (this != &other) moveFrom(other);
    return *this;
  }
  WireBuffer(const WireBuffer&) = delete;
  WireBuffer& operator=(const WireBuffer&) = delete;

  /// Starts a frame: resets the buffer and reserves the length header.
  void beginFrame() {
    size_ = kFrameHeaderBytes;
  }

  /// Back-patches the length header with the payload size.
  void endFrame() {
    const auto payload = static_cast<std::uint32_t>(size_ - kFrameHeaderBytes);
    char* base = data();
    for (int i = 0; i < 4; ++i) {
      base[i] = static_cast<char>((payload >> (8 * i)) & 0xFF);
    }
  }

  /// Appends `n` raw bytes. An empty field may pass p == nullptr, which
  /// memcpy must never see, even with n == 0.
  void append(const void* p, std::size_t n) {
    if (n == 0) return;
    std::memcpy(grow(n), p, n);
  }

  /// Reserves `n` bytes at the tail and returns the write cursor.
  char* grow(std::size_t n) {
    ensure(size_ + n);
    char* at = data() + size_;
    size_ += n;
    return at;
  }

  [[nodiscard]] char* data() noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] const char* data() const noexcept {
    return heap_ ? heap_.get() : inline_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The complete frame (header + payload).
  [[nodiscard]] std::string_view view() const noexcept {
    return {data(), size_};
  }
  /// The payload only (what decode()/MessageView::parse consume).
  [[nodiscard]] std::string_view payload() const noexcept {
    return {data() + kFrameHeaderBytes, size_ - kFrameHeaderBytes};
  }

  void clear() noexcept { size_ = 0; }

  /// Drops heap storage grown past `maxRetainBytes` (pool hygiene: one
  /// huge ring table must not pin megabytes in the free list forever).
  void shrink(std::size_t maxRetainBytes) noexcept {
    if (heap_ && cap_ > maxRetainBytes) {
      heap_.reset();
      cap_ = kInlineCapacity;
    }
    size_ = 0;
  }

 private:
  void ensure(std::size_t need) {
    if (need <= cap_) return;
    std::size_t cap = cap_ * 2;
    while (cap < need) cap *= 2;
    auto grown = std::make_unique<char[]>(cap);
    std::memcpy(grown.get(), data(), size_);
    heap_ = std::move(grown);
    cap_ = cap;
  }

  void moveFrom(WireBuffer& other) noexcept {
    heap_ = std::move(other.heap_);
    cap_ = other.cap_;
    size_ = other.size_;
    if (!heap_ && size_ > 0) std::memcpy(inline_, other.inline_, size_);
    other.cap_ = kInlineCapacity;
    other.size_ = 0;
  }

  char inline_[kInlineCapacity];
  std::unique_ptr<char[]> heap_;  ///< null while the buffer fits inline
  std::size_t cap_ = kInlineCapacity;
  std::size_t size_ = 0;
};

/// Bounded, thread-safe free-list of WireBuffers; see file comment.
class BufferPool {
 public:
  /// Zero arguments = take the SIMFS_WIRE_* environment knobs.
  BufferPool();
  BufferPool(std::size_t maxBuffers, std::size_t maxRetainBytes);

  /// Pops a cleared buffer off the free list (or makes a fresh one).
  [[nodiscard]] WireBuffer acquire();

  /// Returns a buffer to the free list. Over-grown buffers are shrunk
  /// back to inline storage; past `maxBuffers` the buffer is dropped.
  void release(WireBuffer&& buffer);

  [[nodiscard]] std::size_t retained() const;

 private:
  const std::size_t maxBuffers_;
  const std::size_t maxRetainBytes_;
  mutable std::mutex mutex_;
  std::vector<WireBuffer> free_;
};

/// Bump allocator; see file comment. Not thread-safe: callers provide the
/// exclusion (the daemon allocates under the shard queue/serving locks).
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;
  /// reset() keeps at most this many bytes of blocks (burst hygiene:
  /// one queue-full flood of large batches must not pin its peak
  /// footprint in every shard's arenas forever). Generous enough that a
  /// deep-but-normal drain batch stays within its warm blocks — only
  /// genuine bursts pay a refill.
  static constexpr std::size_t kDefaultRetainBytes = 8 * 1024 * 1024;

  explicit Arena(std::size_t blockBytes = kDefaultBlockBytes,
                 std::size_t maxRetainBytes = kDefaultRetainBytes)
      : blockBytes_(blockBytes),
        maxRetainBytes_(std::max(blockBytes, maxRetainBytes)) {}

  /// Raw aligned allocation. Only trivially-destructible payloads belong
  /// in an arena — reset() never runs destructors.
  [[nodiscard]] void* alloc(std::size_t bytes, std::size_t align);

  template <typename T>
  [[nodiscard]] std::span<T> allocSpan(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (n == 0) return {};
    auto* p = static_cast<T*>(alloc(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (p + i) T();
    return {p, n};
  }

  /// Copies `s` into the arena and returns the stable view.
  [[nodiscard]] std::string_view copyString(std::string_view s) {
    if (s.empty()) return {};
    auto* p = static_cast<char*>(alloc(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Rewinds to empty. Blocks are kept for reuse up to the retain
  /// budget; beyond it (a burst of oversized batches) they are freed so
  /// steady-state memory tracks steady-state load, not the peak.
  void reset() noexcept {
    std::size_t kept = 0;
    std::size_t n = 0;
    while (n < blocks_.size() && kept + blocks_[n].cap <= maxRetainBytes_) {
      kept += blocks_[n].cap;
      ++n;
    }
    // Note a normal first block (cap == blockBytes_) always fits the
    // budget, so the steady state keeps its warm blocks; only oversize
    // burst blocks are dropped.
    blocks_.resize(n);
    block_ = 0;
    used_ = 0;
  }

  [[nodiscard]] std::size_t blockCount() const noexcept {
    return blocks_.size();
  }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    std::size_t cap = 0;
  };

  const std::size_t blockBytes_;
  const std::size_t maxRetainBytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;  ///< index of the block being bumped
  std::size_t used_ = 0;   ///< bytes consumed in blocks_[block_]
};

}  // namespace simfs::msg
