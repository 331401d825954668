#include "msg/wire.hpp"

#include <algorithm>

namespace simfs::msg {

BufferPool::BufferPool(std::size_t maxBuffers, std::size_t maxRetainBytes)
    : maxBuffers_(std::max<std::size_t>(1, maxBuffers)),
      maxRetainBytes_(std::max(WireBuffer::kInlineCapacity, maxRetainBytes)) {
  // The free list never reallocates: release() under load must not be the
  // one place a "zero-allocation" send path touches the heap.
  free_.reserve(maxBuffers_);
}

WireBuffer BufferPool::acquire() {
  {
    std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      WireBuffer b = std::move(free_.back());
      free_.pop_back();
      return b;
    }
  }
  return WireBuffer();
}

void BufferPool::release(WireBuffer&& buffer) {
  buffer.shrink(maxRetainBytes_);
  std::lock_guard lock(mutex_);
  if (free_.size() >= maxBuffers_) return;  // drop: pool is full
  free_.push_back(std::move(buffer));
}

std::size_t BufferPool::retained() const {
  std::lock_guard lock(mutex_);
  return free_.size();
}

void* Arena::alloc(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (block_ < blocks_.size()) {
      Block& b = blocks_[block_];
      const std::size_t at = (used_ + align - 1) & ~(align - 1);
      if (at + bytes <= b.cap) {
        used_ = at + bytes;
        return b.data.get() + at;
      }
      // Current block full: move on (oversize blocks further down the
      // list are revisited on later passes since reset() rewinds).
      ++block_;
      used_ = 0;
      continue;
    }
    Block b;
    b.cap = std::max(blockBytes_, bytes + align);
    b.data = std::make_unique<char[]>(b.cap);
    blocks_.push_back(std::move(b));
  }
}

}  // namespace simfs::msg
