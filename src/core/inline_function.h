// A move-only, type-erased callable with small-buffer-optimized storage,
// sized for the event hot path.
//
// Every scheduled event stores its callback. With std::function, any capture
// larger than the implementation's tiny inline buffer (16 bytes on libstdc++)
// heap-allocates — and the common packet-delivery closure captures a 64-byte
// Packet by value, so every packet on every link paid a malloc/free pair plus
// a pointer-chasing cache miss at dispatch. InlineFunction<N> keeps the
// capture inline in the event itself: constructing, moving and invoking an
// event touches one contiguous object and never the allocator.
//
// Contract:
//  - Move-only. Moving relocates the stored callable (move-construct +
//    destroy source), so moves cost sizeof(callable), not N — small closures
//    stay cheap to move even though the buffer is large.
//  - The buffer is pointer-aligned (8 bytes on the 64-bit targets), not
//    max_align_t-aligned: an 8-byte ops pointer plus an N-byte buffer then
//    pack with no padding, which is what lets an Event be exactly two cache
//    lines (event.h).
//  - A callable fits inline when sizeof <= N, its alignment is at most the
//    buffer's, and its move constructor is noexcept (required so vector
//    reallocation and heap sifts cannot throw mid-move). Anything else goes
//    through a single heap allocation, counted in alloc_fallbacks() so the
//    fallback rate is observable in tests and benches — on the packet
//    workload it must be zero.
//  - Invoking an empty InlineFunction is undefined, as with the empty
//    std::function it replaces (kernels only store non-empty callbacks).
#ifndef UNISON_SRC_CORE_INLINE_FUNCTION_H_
#define UNISON_SRC_CORE_INLINE_FUNCTION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace unison {

// Process-wide count of closures that exceeded the inline buffer and fell
// back to heap allocation. Incremented only on the (rare) fallback path, so
// the counter costs nothing on the fast path; relaxed ordering suffices for a
// statistic.
class InlineFunctionStats {
 public:
  static uint64_t alloc_fallbacks() {
    return Counter().load(std::memory_order_relaxed);
  }
  static void ResetAllocFallbacks() {
    Counter().store(0, std::memory_order_relaxed);
  }
  static void RecordFallback() {
    Counter().fetch_add(1, std::memory_order_relaxed);
  }

 private:
  static std::atomic<uint64_t>& Counter() {
    static std::atomic<uint64_t> count{0};
    return count;
  }
};

template <size_t N>
class InlineFunction {
  static_assert(N >= sizeof(void*), "buffer must hold at least a pointer");
  static_assert(N % alignof(void*) == 0,
                "a pointer-aligned buffer packs after the ops pointer");

 public:
  static constexpr size_t kBufferAlign = alignof(void*);

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    if constexpr (FitsInline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
      InlineFunctionStats::RecordFallback();
    }
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when callables of type F are stored inline (compile-time property;
  // exposed for static_asserts at packet-closure construction sites).
  template <typename F>
  static constexpr bool FitsInline() {
    return sizeof(F) <= N && alignof(F) <= kBufferAlign &&
           std::is_nothrow_move_constructible_v<F>;
  }

  // Downcast by ops-table identity: returns the stored callable when it is
  // exactly of type F, else nullptr. Each stored type owns a distinct Ops
  // instance (kInlineOps<F>/kHeapOps<F> are inline variables with one address
  // program-wide), so this is two pointer compares — no RTTI, and zero cost
  // on the invoke path. Snapshot serialization uses it to recognize the named
  // model-event functors inside captured FELs.
  template <typename F>
  F* TryAs() noexcept {
    if (ops_ == &kInlineOps<F>) {
      return std::launder(reinterpret_cast<F*>(buf_));
    }
    if (ops_ == &kHeapOps<F>) {
      return *reinterpret_cast<F**>(buf_);
    }
    return nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the callable from `src` storage into `dst` storage and
    // destroys the source — the primitive both move operations reduce to.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(reinterpret_cast<F*>(p)))(); },
      [](void* dst, void* src) noexcept {
        F* const from = std::launder(reinterpret_cast<F*>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
      },
      [](void* p) noexcept { std::launder(reinterpret_cast<F*>(p))->~F(); },
  };

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**reinterpret_cast<F**>(p))(); },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<F**>(dst) = *reinterpret_cast<F**>(src);
      },
      [](void* p) noexcept { delete *reinterpret_cast<F**>(p); },
  };

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kBufferAlign) unsigned char buf_[N];
};

}  // namespace unison

#endif  // UNISON_SRC_CORE_INLINE_FUNCTION_H_
