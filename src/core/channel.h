// Asynchronous FIFO channel between simulated processes.
//
// `push` never blocks (unbounded queue — timing is modelled by the layers
// above, not by backpressure here); `pop` suspends the caller until a value
// is available. A push with receivers waiting hands the value directly to
// the oldest waiter, so a later receiver can never steal an item from an
// earlier one — wakeup order is FIFO and deterministic.
//
// A channel that never carries anything costs its own few words: both
// queues are lazy ring buffers (see Fifo). simmpi keeps one channel per
// (destination, source, tag), so this is what bounds its memory.
#pragma once

#include <coroutine>
#include <cstddef>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/engine.h"

namespace ctesim::sim {

/// Ring-buffer FIFO. Allocates nothing until the first push and keeps its
/// buffer when drained; it grows by doubling only when full, so capacity
/// stays below twice the peak occupancy (or kMinCapacity), however many
/// values pass through a queue that never drains.
template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growth relocates values and must not throw midway");

 public:
  static constexpr std::size_t kMinCapacity = 2;

  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    while (!empty()) pop_front();
    if (slots_) std::allocator<T>().deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  T& front() { return slots_[head_]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slots_ + ((head_ + size_) & (capacity_ - 1)),
                      std::move(value));
    ++size_;
  }

  void pop_front() {
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  // Capacity is a power of two, so wrapping is a mask.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* slots = std::allocator<T>().allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      T& from = slots_[(head_ + i) & (capacity_ - 1)];
      std::construct_at(slots + i, std::move(from));
      std::destroy_at(&from);
    }
    if (slots_) std::allocator<T>().deallocate(slots_, capacity_);
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(&engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deliver a value; hands it to the oldest waiting receiver (resumed at
  /// the current simulated time) or queues it.
  void push(T value) {
    if (!waiters_.empty()) {
      Waiter* waiter = waiters_.front();
      waiters_.pop_front();
      waiter->value.emplace(std::move(value));
      const auto handle = waiter->handle;
      auto resume = [handle] { handle.resume(); };
      static_assert(Engine::Callback::fits_inline<decltype(resume)>,
                    "core must never schedule a spilling closure");
      engine_->schedule_in(0, std::move(resume));
      return;
    }
    items_.push_back(std::move(value));
  }

  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t waiting_receivers() const { return waiters_.size(); }
  /// Slots allocated for queued values (0 until the first is queued).
  std::size_t capacity() const { return items_.capacity(); }

  /// Awaitable receive: `T v = co_await channel.pop();`
  auto pop() {
    struct [[nodiscard]] Awaiter {
      Channel& channel;
      Waiter waiter;

      bool await_ready() const noexcept {
        // Items can only be queued while no receiver waits, so a non-empty
        // queue means we may take the front immediately.
        return !channel.items_.empty();
      }

      void await_suspend(std::coroutine_handle<> h) {
        waiter.handle = h;
        channel.waiters_.push_back(&waiter);
      }

      T await_resume() {
        if (waiter.value.has_value()) return std::move(*waiter.value);
        CTESIM_EXPECTS(!channel.items_.empty());
        T value = std::move(channel.items_.front());
        channel.items_.pop_front();
        return value;
      }
    };
    return Awaiter{*this, Waiter{}};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

  Engine* engine_;
  Fifo<T> items_;
  Fifo<Waiter*> waiters_;
};

}  // namespace ctesim::sim
