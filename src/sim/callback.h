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
// bytes) whose addresses never move; a cell's handle is its address, the
// low bit tagging the size. A callable is constructed in place in a cell,
// runs there and is destroyed there; its cell is freed only after it
// returns, so it may fill more cells (growing the slab) while it runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

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

  using Handle = std::uintptr_t;  // a cell's address | kLargeTag if large

  CallbackCells() = default;
  // Pending callables may point at the owner of these cells.
  CallbackCells(const CallbackCells&) = delete;
  CallbackCells& operator=(const CallbackCells&) = delete;

  // Constructs `f` in place in a free cell and returns its handle. A closure
  // larger than kCellBytes is boxed, and its box takes a small cell.
  template <class F>
  Handle emplace(F&& f) {
    constexpr std::size_t size = sizeof(std::decay_t<F>);
    if constexpr (size > kSmallCellBytes && size <= kCellBytes) {
      return large_.emplace(std::forward<F>(f)) | kLargeTag;
    } else {
      return small_.emplace(std::forward<F>(f));
    }
  }

  // Runs the callable in `cell` where it lies, then destroys it and frees
  // the cell.
  void run(Handle cell) {
    if (cell & kLargeTag) {
      large_.run(cell & ~kLargeTag);
    } else {
      small_.run(cell);
    }
  }

 private:
  using SmallCell = Callback<void(), kSmallCellBytes>;
  using LargeCell = Callback<void(), kCellBytes>;
  static constexpr Handle kLargeTag = 1;  // in the cells' alignment bits
  static_assert(alignof(SmallCell) >= 2 && alignof(LargeCell) >= 2);

  template <class Cell>
  class Slab {
   public:
    template <class F>
    Handle emplace(F&& f) {
      Cell* cell;
      if (free_.empty()) {
        if (fresh_ == 0) {
          chunks_.push_back(std::make_unique_for_overwrite<Cell[]>(kChunk));
          fresh_ = kChunk;
        }
        cell = &chunks_.back()[kChunk - fresh_--];
      } else {
        cell = free_.back();
        free_.pop_back();
      }
      cell->emplace(std::forward<F>(f));
      return reinterpret_cast<Handle>(cell);
    }

    void run(Handle handle) {
      Cell* cell = reinterpret_cast<Cell*>(handle);
      (*cell)();
      cell->reset();
      free_.push_back(cell);
    }

   private:
    static constexpr std::size_t kChunk = 256;  // cells per chunk

    std::vector<std::unique_ptr<Cell[]>> chunks_;  // fixed-size, never moved
    std::vector<Cell*> free_;                      // freed cells
    std::size_t fresh_ = 0;  // cells of the newest chunk never handed out
  };

  Slab<SmallCell> small_;
  Slab<LargeCell> large_;
};

}  // namespace proteus::sim
