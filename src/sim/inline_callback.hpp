// A move-only, small-buffer-optimized callable for engine events.
//
// std::function<void()> keeps only ~16 bytes of capture inline on the
// common ABIs, so the simulator's bread-and-butter event — a driver step
// capturing [this, run, rank] — heap-allocates on every schedule.  At
// millions of events per study that malloc/free pair dominates the engine's
// cost.  InlineCallback keeps captures up to kInlineSize bytes in the event
// itself and only falls back to the heap beyond that.
//
// Deliberately narrower than std::function: move-only (events are consumed
// exactly once), no target introspection, and invocation is non-const.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace charisma::sim {

class InlineCallback {
 public:
  /// Capture budget chosen to fit the driver's step closures (two pointers
  /// and an index) with headroom; a callback (buffer + vtable pointer) is
  /// 48 bytes in the event queue's slab.  See docs/performance.md.
  static constexpr std::size_t kInlineSize = 40;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit, like std::function
  InlineCallback(F&& fn) {
    construct<D>(std::forward<F>(fn));
  }

  /// Replaces the target with `fn`.  A callable is built in place, with no
  /// temporary callback to relocate; an InlineCallback rvalue is moved in.
  /// If building the target throws, the callback is left empty.
  template <typename F>
  void assign(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback>) {
      *this = std::forward<F>(fn);  // lvalues do not compile: no copies
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      reset();
      construct<D>(std::forward<F>(fn));
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      relocate_from(other);
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this == &other) return *this;
    reset();
    if (other.vtable_ != nullptr) {
      vtable_ = other.vtable_;
      relocate_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Whether the target lives in the inline buffer (no heap allocation).
  /// Exposed so tests can pin down the size budget.
  [[nodiscard]] bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->inline_storage;
  }

  void operator()() {
    DCHECK(vtable_ != nullptr, "invoking an empty InlineCallback");
    vtable_->invoke(buffer_);
  }

 private:
  struct VTable {
    void (*invoke)(void* target);
    /// Move-constructs dst from src and destroys src (both raw buffers).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* target) noexcept;
    bool inline_storage;
    /// Relocation is equivalent to memcpy-ing the buffer: the target is a
    /// trivially copyable inline capture, or a heap pointer.  The dominant
    /// event closures capture only pointers and indices, so the moves a
    /// callback makes (into the queue's slab, on slab growth, out on pop)
    /// take a branch plus a fixed-size copy instead of an indirect call.
    bool trivially_relocatable;
    /// Destruction is a no-op (inline, trivially destructible target), so
    /// reset() — which runs once per dispatched event — can skip the
    /// indirect destroy call.
    bool trivially_destructible;
  };

  // Inline storage additionally requires a nothrow move so relocation (used
  // by slab growth and pops) can never half-move an event.
  template <typename D>
  static constexpr bool stored_inline =
      sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr VTable kInlineVTable{
      [](void* t) { (*static_cast<D*>(t))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* t) noexcept { static_cast<D*>(t)->~D(); },
      /*inline_storage=*/true,
      /*trivially_relocatable=*/std::is_trivially_copyable_v<D>,
      /*trivially_destructible=*/std::is_trivially_destructible_v<D>,
  };

  template <typename D>
  static constexpr VTable kHeapVTable{
      [](void* t) { (**static_cast<D* const*>(t))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* t) noexcept { delete *static_cast<D**>(t); },
      /*inline_storage=*/false,
      /*trivially_relocatable=*/true,  // relocation moves only the pointer
      /*trivially_destructible=*/false,  // must delete the heap target
  };

  /// Builds the target in the (empty) buffer; vtable_ is set only once the
  /// target exists.
  template <typename D, typename F>
  void construct(F&& fn) {
    if constexpr (stored_inline<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(fn));
      vtable_ = &kInlineVTable<D>;
    } else {
      ::new (static_cast<void*>(buffer_)) D*(new D(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<D>;
    }
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      if (!vtable_->trivially_destructible) vtable_->destroy(buffer_);
      vtable_ = nullptr;
    }
  }

  /// Takes other's target; vtable_ must already equal other.vtable_ (and be
  /// non-null).  Copying the full buffer keeps the memcpy length a compile
  /// time constant; the tail beyond the target's size is dead bytes of our
  /// own storage.
  void relocate_from(InlineCallback& other) noexcept {
    if (vtable_->trivially_relocatable) {
      std::memcpy(buffer_, other.buffer_, kInlineSize);
    } else {
      vtable_->relocate(buffer_, other.buffer_);
    }
    other.vtable_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char buffer_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace charisma::sim
