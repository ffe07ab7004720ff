// Move-only callables for the simulator and the continuations its tiers
// hand each other.
//
// Callback<R(Args...)> is std::function<R(Args...)> without the copy
// requirement and with a larger inline buffer: a closure of at most
// `Capacity` bytes (nothrow-movable, alignment at most a pointer's) is
// stored inline, so building, moving and running it allocates nothing; a
// larger one is boxed on the heap. Moving a Callback relocates the closure,
// so a continuation travels down a chain of tiers (web -> cache hop -> cache
// queue -> reply hop) by moves, never by wrapping it in a second callable.
//
// CallbackCells is a slab of fixed-size Callback<void()> cells (64 or 128
// bytes) whose addresses never move. A callable is constructed in place in
// a cell, runs there and is destroyed there; its slot is freed only after
// it returns, so it may fill more cells (growing the slab) while it runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace proteus::sim {

template <class Sig, std::size_t Capacity = 32>
class Callback;

template <class R, class... Args, std::size_t Capacity>
class Callback<R(Args...), Capacity> {
 public:
  Callback() noexcept = default;

  // Implicit, like std::function's, so a lambda converts at the call site.
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  Callback(F&& f) {
    emplace(std::forward<F>(f));
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  // Constructs `f` in this (empty) callback's storage.
  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    invoke_ = &invoke<D>;
    ops_ = &kOps<D>;
  }

  // Destroys the stored callable, if any.
  void reset() noexcept {
    if (invoke_ == nullptr) return;
    invoke_ = nullptr;
    if (ops_->destroy != nullptr) ops_->destroy(buf_);
  }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  // Precondition: not empty.
  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    void (*relocate)(void* from, void* to) noexcept;  // move, then destroy
    void (*destroy)(void* self) noexcept;  // null if there is nothing to do
  };

  template <class D>
  static constexpr bool kInline =
      sizeof(D) <= Capacity && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  // Inline: the closure itself lives in buf_. Boxed: buf_ holds a D*.
  template <class D>
  static D& target(void* self) noexcept {
    if constexpr (kInline<D>) {
      return *std::launder(static_cast<D*>(self));
    } else {
      return **std::launder(static_cast<D**>(self));
    }
  }

  template <class D>
  static R invoke(void* self, Args&&... args) {
    return target<D>(self)(std::forward<Args>(args)...);
  }

  template <class D>
  static void relocate(void* from, void* to) noexcept {
    if constexpr (kInline<D>) {
      D& src = target<D>(from);
      ::new (to) D(std::move(src));
      src.~D();
    } else {
      ::new (to) D*(&target<D>(from));
    }
  }

  template <class D>
  static void destroy(void* self) noexcept {
    if constexpr (kInline<D>) {
      target<D>(self).~D();
    } else {
      delete &target<D>(self);
    }
  }

  template <class D>
  static constexpr Ops kOps = {
      &relocate<D>,
      kInline<D> && std::is_trivially_destructible_v<D> ? nullptr
                                                        : &destroy<D>};

  void take(Callback& other) noexcept {
    if (other.invoke_ == nullptr) return;
    other.ops_->relocate(other.buf_, buf_);
    invoke_ = std::exchange(other.invoke_, nullptr);
    ops_ = other.ops_;
  }

  // The invoker sits in the object, as std::function's does, and first, so
  // running a small closure touches one cache line and no table.
  R (*invoke_)(void* self, Args&&... args) = nullptr;  // null when empty
  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[Capacity];
};

class CallbackCells {
 public:
  // Inline capacities of the two cell sizes. Most closures (a `this` and an
  // index or two) take a 64-byte cell; a cache hop carrying its key and the
  // caller's Callback (96 bytes) takes a 128-byte one. Keeping the small
  // ones small keeps many pending events within the CPU caches.
  static constexpr std::size_t kSmallCellBytes = 48;
  static constexpr std::size_t kCellBytes = 112;

  CallbackCells() = default;
  // Pending callables may point at the owner of these cells.
  CallbackCells(const CallbackCells&) = delete;
  CallbackCells& operator=(const CallbackCells&) = delete;

  // Constructs `f` in place in a free cell and returns its slot. A closure
  // larger than kCellBytes is boxed, and its box takes a small cell.
  template <class F>
  std::uint32_t emplace(F&& f) {
    constexpr std::size_t size = sizeof(std::decay_t<F>);
    if constexpr (size > kSmallCellBytes && size <= kCellBytes) {
      return large_.emplace(std::forward<F>(f)) | kLargeBit;
    } else {
      return small_.emplace(std::forward<F>(f));
    }
  }

  // Runs the callable in `slot` where it lies, then destroys it and frees
  // the slot.
  void run(std::uint32_t slot) {
    if (slot & kLargeBit) {
      large_.run(slot & ~kLargeBit);
    } else {
      small_.run(slot);
    }
  }

 private:
  static constexpr std::uint32_t kLargeBit = 1u << 31;

  template <std::size_t Capacity>
  class Slab {
   public:
    template <class F>
    std::uint32_t emplace(F&& f) {
      std::uint32_t slot;
      if (free_.empty()) {
        PROTEUS_CHECK(used_ < kLargeBit);
        if ((used_ & kChunkMask) == 0) {
          chunks_.push_back(
              std::make_unique_for_overwrite<Cell[]>(kChunkCells));
        }
        slot = used_++;
      } else {
        slot = free_.back();
        free_.pop_back();
      }
      cell(slot).emplace(std::forward<F>(f));
      return slot;
    }

    void run(std::uint32_t slot) {
      Cell& c = cell(slot);
      c();
      c.reset();
      free_.push_back(slot);
    }

   private:
    using Cell = Callback<void(), Capacity>;
    static constexpr std::uint32_t kChunkBits = 8;
    static constexpr std::uint32_t kChunkCells = 1u << kChunkBits;
    static constexpr std::uint32_t kChunkMask = kChunkCells - 1;

    Cell& cell(std::uint32_t slot) noexcept {
      return chunks_[slot >> kChunkBits][slot & kChunkMask];
    }

    std::vector<std::unique_ptr<Cell[]>> chunks_;  // fixed-size, never moved
    std::vector<std::uint32_t> free_;              // slots not in use
    std::uint32_t used_ = 0;                       // slots ever handed out
  };

  Slab<kSmallCellBytes> small_;
  Slab<kCellBytes> large_;
};

}  // namespace proteus::sim
