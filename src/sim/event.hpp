// A scheduled simulator event: a (time, sequence) key, the run context it
// was scheduled in, and a tagged small callable.
//
// The fast case — the vast majority of traffic: delays elapsing, verb
// completions, sync-primitive wake-ups — is a bare coroutine handle: one
// pointer in the inline buffer and a null ops table, so construction,
// moves and dispatch never allocate or make an indirect call beyond the
// resumption itself.
//
// Plain callbacks are stored in the same inline buffer when they fit
// (kInlineBytes covers every callback the library schedules, including
// RDMA message delivery with its ~56-byte captured payload); oversized or
// over-aligned callables are boxed on the heap exactly once. This replaces
// the previous std::function member, which heap-allocated for any capture
// beyond two pointers.
//
// The context stamp fills the padding the layout had anyway ({actor, op}
// after the ops table, the domain after the buffer), so an event is still
// 96 bytes and the inline buffer still 56.
//
// Destroying an un-fired event releases callback state but never destroys
// coroutine frames — those are owned by their root tasks (see Simulator).
#pragma once

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace efac::sim {

/// Who is running: the conflict sanitizer's actor (0 = untracked) and the
/// flight recorder's current op with the log it belongs to (`domain`, kept
/// opaque at this layer). Every event runs under the context it was
/// scheduled in (see Simulator::context()).
struct Context {
  std::uint32_t actor = 0;
  std::uint32_t op = 0;
  const void* domain = nullptr;
};

class Event {
 public:
  static constexpr std::size_t kInlineBytes = 56;
  static constexpr std::size_t kInlineAlign = 16;

  [[nodiscard]] static Event coroutine(SimTime t, std::uint64_t seq,
                                       const Context& ctx,
                                       std::coroutine_handle<> h) noexcept {
    Event e{t, seq, ctx};
    ::new (static_cast<void*>(e.buf_)) void*(h.address());
    return e;
  }

  template <typename F>
  [[nodiscard]] static Event callback(SimTime t, std::uint64_t seq,
                                      const Context& ctx, F&& fn) {
    using Callable = std::decay_t<F>;
    Event e{t, seq, ctx};
    if constexpr (sizeof(Callable) <= kInlineBytes &&
                  alignof(Callable) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Callable>) {
      ::new (static_cast<void*>(e.buf_)) Callable(std::forward<F>(fn));
      e.ops_ = &InlineOps<Callable>::kOps;
    } else {
      ::new (static_cast<void*>(e.buf_))
          Callable*(new Callable(std::forward<F>(fn)));
      e.ops_ = &BoxedOps<Callable>::kOps;
    }
    return e;
  }

  Event() noexcept = default;
  Event(Event&& other) noexcept
      : t_(other.t_),
        seq_(other.seq_),
        actor_(other.actor_),
        op_(other.op_),
        domain_(other.domain_) {
    take_payload(other);
  }
  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      t_ = other.t_;
      seq_ = other.seq_;
      actor_ = other.actor_;
      op_ = other.op_;
      domain_ = other.domain_;
      take_payload(other);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  [[nodiscard]] SimTime time() const noexcept { return t_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  [[nodiscard]] Context context() const noexcept {
    return {actor_, op_, domain_};
  }

  /// Resume the coroutine or invoke the callback. Consumes callback state;
  /// an event must not be fired twice.
  void fire() {
    if (ops_ != nullptr) {
      const Ops* ops = std::exchange(ops_, nullptr);
      ops->invoke_destroy(buf_);  // destroys state even if the call throws
    } else {
      void* address;
      std::memcpy(&address, buf_, sizeof(address));
      std::coroutine_handle<>::from_address(address).resume();
    }
  }

 private:
  struct Ops {
    void (*invoke_destroy)(void* buf);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename F>
  struct InlineOps {
    static F* at(void* buf) noexcept {
      return std::launder(reinterpret_cast<F*>(buf));
    }
    static void invoke_destroy(void* buf) {
      F* fn = at(buf);
      struct Guard {
        F* fn;
        ~Guard() { fn->~F(); }
      } guard{fn};
      (*fn)();
    }
    static void relocate(void* dst, void* src) noexcept {
      F* from = at(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* buf) noexcept { at(buf)->~F(); }
    static constexpr Ops kOps{&invoke_destroy, &relocate, &destroy};
  };

  template <typename F>
  struct BoxedOps {
    static F* owner(void* buf) noexcept {
      F* fn;
      std::memcpy(&fn, buf, sizeof(fn));
      return fn;
    }
    static void invoke_destroy(void* buf) {
      std::unique_ptr<F> fn{owner(buf)};
      (*fn)();
    }
    static void relocate(void* dst, void* src) noexcept {
      std::memcpy(dst, src, sizeof(F*));
    }
    static void destroy(void* buf) noexcept { delete owner(buf); }
    static constexpr Ops kOps{&invoke_destroy, &relocate, &destroy};
  };

  Event(SimTime t, std::uint64_t seq, const Context& ctx) noexcept
      : t_(t),
        seq_(seq),
        actor_(ctx.actor),
        op_(ctx.op),
        domain_(ctx.domain) {}

  void take_payload(Event& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = std::exchange(other.ops_, nullptr);
      ops_->relocate(buf_, other.buf_);
    } else {
      ops_ = nullptr;
      std::memcpy(buf_, other.buf_, sizeof(void*));  // coroutine handle
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  SimTime t_ = 0;
  std::uint64_t seq_ = 0;
  const Ops* ops_ = nullptr;  ///< null: buf_ holds a coroutine handle
  std::uint32_t actor_ = 0;   ///< context stamp, split around buf_
  std::uint32_t op_ = 0;
  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const void* domain_ = nullptr;
};
static_assert(sizeof(Event) == 96, "the context stamp must fit the padding");

}  // namespace efac::sim
