// The two-ring construction (Nikolaev, DISC 2019, §2.2; the wCQ
// paper's §2): a bounded MPMC queue of 64-bit values from two index
// rings and a data array. `aq` holds free data slots, `fq` holds
// filled ones; push moves a slot aq -> data -> fq, pop moves it back.
// The data array is synchronised by the rings' release/acquire entry
// CASes.
//
// Every ring-family member but wCQ is this one template:
//
//   ScqQueue   TwoRingQueue<ScqRing>
//   NcqQueue   TwoRingQueue<NcqRing>
//   CcqQueue   TwoRingQueue<CcqRing>
//   LSCQ       each list segment is TwoRingQueue<ScqRing, FinalScqRing>
//              plus a `next` link (lscq.hpp)
//
// A ring type supplies the (order, remap, portable) constructor, kOk,
// kUnbounded, enqueue_idx and dequeue_idx. With unbounded patience a
// ring never reports kContended, so the only refusals are an empty aq
// (full), an empty fq (empty), and kClosed from a finalizable fq: that
// value was never visible, and its free index dies with the segment
// being retired.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "wcq/handle.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"

namespace wcq {

template <typename FreeRing, typename FullRing = FreeRing>
class TwoRingQueue {
 public:
  // The rings are static and ops carry no thread identity; the empty
  // handle exists so every backend has the same shape behind
  // wcq::concepts::Backend.
  using Handle = TrivialHandle;

  TwoRingQueue(unsigned order, bool remap, bool portable)
      : n_(std::uint64_t{1} << order),
        aq_(order, remap, portable),
        fq_(order, remap, portable) {
    data_ = static_cast<std::atomic<std::uint64_t>*>(
        mem::alloc(n_ * sizeof(std::atomic<std::uint64_t>)));
    for (std::uint64_t i = 0; i < n_; ++i) {
      data_[i].store(0, std::memory_order_relaxed);
      aq_.enqueue_idx(i, FreeRing::kUnbounded);
    }
  }

  explicit TwoRingQueue(const options& opt)
      : TwoRingQueue(opt.order(), opt.remap(), opt.portable()) {}

  ~TwoRingQueue() {
    mem::free(data_, n_ * sizeof(std::atomic<std::uint64_t>));
  }

  TwoRingQueue(const TwoRingQueue&) = delete;
  TwoRingQueue& operator=(const TwoRingQueue&) = delete;

  std::uint64_t capacity() const { return n_; }

  Handle get_handle() { return Handle{}; }
  std::optional<Handle> try_get_handle() { return Handle{}; }

  // False iff the queue is full (or its fq is closed).
  bool try_push(std::uint64_t v, Handle&) { return push(v); }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle&) { return pop(v); }

  bool push(std::uint64_t v) {
    std::uint64_t idx = 0;
    if (aq_.dequeue_idx(&idx, FreeRing::kUnbounded) != FreeRing::kOk) {
      return false;  // no free slots: full
    }
    data_[idx].store(v, std::memory_order_relaxed);
    return fq_.enqueue_idx(idx, FullRing::kUnbounded) == FullRing::kOk;
  }

  bool pop(std::uint64_t* v) {
    std::uint64_t idx = 0;
    if (fq_.dequeue_idx(&idx, FullRing::kUnbounded) != FullRing::kOk) {
      return false;
    }
    *v = data_[idx].load(std::memory_order_relaxed);
    aq_.enqueue_idx(idx, FreeRing::kUnbounded);
    return true;
  }

 protected:
  const std::uint64_t n_;
  FreeRing aq_;  // free slots (starts full)
  FullRing fq_;  // filled slots (starts empty)
  std::atomic<std::uint64_t>* data_ = nullptr;
};

}  // namespace wcq
