// Bump-pointer arena for short-lived, batch-scoped allocations, plus a
// std-compatible allocator over it. The motivating use is per-worker match
// arenas (join::JoinEvaluator): every parallel join slice appends match
// tuples into a vector that grows by repeated heap allocation, and with N
// workers those grow/free cycles all contend on the global allocator. An
// Arena turns each worker's allocations into a private pointer bump —
// deallocation is a no-op, and the owner thread reclaims everything at the
// next batch boundary with Reset().
//
// Threading: an Arena is single-threaded by design — exactly one worker
// allocates from it at a time, and Reset() runs on the owner thread only
// after every task that used the arena has been joined (batch boundaries
// synchronize through future::get/wait, which establishes the needed
// happens-before). ThreadPool owns one Arena per worker and hands the
// current worker its own via ThreadPool::CurrentArena().
//
// ArenaAllocator<T> degrades gracefully: constructed with a null arena it
// forwards to ::operator new/delete, so the same container type serves
// both the arena path and the plain-heap path (serial evaluation, and any
// call site that runs outside a worker thread).

#ifndef LIFERAFT_UTIL_ARENA_H_
#define LIFERAFT_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace liferaft::util {

/// A chunked bump allocator. Allocate() hands out aligned slices of the
/// current block and starts a new, geometrically larger block when the
/// current one is full. Reset() keeps the largest block (warm for the next
/// batch) and releases the rest.
class Arena {
 public:
  static constexpr size_t kDefaultMinBlockBytes = 64 * 1024;

  explicit Arena(size_t min_block_bytes = kDefaultMinBlockBytes)
      : min_block_bytes_(min_block_bytes == 0 ? kDefaultMinBlockBytes
                                              : min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  void* Allocate(size_t bytes, size_t align);

  /// Reclaims every allocation at once. The largest block is kept so a
  /// steady-state batch loop stops touching the heap entirely.
  void Reset();

  /// Bytes handed out since construction (monotonic; survives Reset).
  size_t total_allocated_bytes() const { return total_allocated_; }
  /// Bytes currently reserved across blocks.
  size_t reserved_bytes() const {
    size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  Block& AddBlock(size_t at_least);

  size_t min_block_bytes_;
  size_t total_allocated_ = 0;
  std::vector<Block> blocks_;
};

/// Minimal std allocator over an Arena. With a null arena it is a plain
/// heap allocator, so one container type covers both modes; two allocators
/// compare equal iff they target the same arena (or both the heap).
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, size_t n) noexcept {
    if (arena_ != nullptr) return;  // reclaimed wholesale by Arena::Reset
    (void)n;
    ::operator delete(p);
  }

  Arena* arena() const noexcept { return arena_; }

 private:
  Arena* arena_ = nullptr;
};

template <typename A, typename B>
bool operator==(const ArenaAllocator<A>& a, const ArenaAllocator<B>& b) {
  return a.arena() == b.arena();
}
template <typename A, typename B>
bool operator!=(const ArenaAllocator<A>& a, const ArenaAllocator<B>& b) {
  return !(a == b);
}

/// The batch-scoped vector the parallel join paths collect matches into.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace liferaft::util

#endif  // LIFERAFT_UTIL_ARENA_H_
