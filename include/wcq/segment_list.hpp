// One Michael-Scott list of bounded segments: the unbounded shell both
// LCRQ (Morrison & Afek, PPoPP 2013) and LSCQ (Nikolaev, DISC 2019,
// §5) wrap around a bounded ring.
//
// Push works on the tail segment; when it refuses, a fresh segment
// seeded with the value is appended and the tail swung forward. Pop
// drains the head segment; once it is empty *and* a successor exists,
// no new value can land there, so after one last-chance dequeue the
// head swings past it and the segment is retired through the shared
// SMR domain (wcq/smr.hpp) under the caller's hazard pointer. Parked
// segments therefore stay bounded by the amnesty threshold.
//
// A segment kind K supplies the bounded ring and these hooks:
//
//   K::Segment                  has std::atomic<Segment*> next
//   K(const options&)           validates the ring order
//   K::kName                    prefix of error messages
//   make() / free(s)            allocate a fresh segment / release one
//   refuses(v)                  a value the ring cannot store
//   try_enqueue(s, v)           false iff s takes no more values
//   try_dequeue(s, v)           false iff s is observed empty
//   last_dequeue(s, v)          run once a successor exists: true
//                               hands out a straggler, false certifies
//                               s can be retired
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "wcq/detail.hpp"
#include "wcq/handle.hpp"
#include "wcq/options.hpp"
#include "wcq/smr.hpp"

namespace wcq {

template <typename K>
class SegmentList {
  using Segment = typename K::Segment;

 public:
  using Handle = RegistryHandle<SegmentList>;

  explicit SegmentList(const options& opt)
      : kind_(opt),
        slots_(opt.max_threads() ? opt.max_threads() : 1),
        smr_(slots_.capacity(), opt.retire_threshold()) {
    Segment* s = kind_.make();
    head_.store(s, std::memory_order_relaxed);
    tail_.store(s, std::memory_order_relaxed);
  }

  ~SegmentList() {
    assert(slots_.live() == 0 &&
           "segment list: a Handle is outliving its queue");
    // head_ anchors every live segment; retired ones are freed by the
    // domain's destructor.
    Segment* s = head_.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      kind_.free(s);
      s = next;
    }
  }

  SegmentList(const SegmentList&) = delete;
  SegmentList& operator=(const SegmentList&) = delete;

  std::optional<Handle> try_get_handle() {
    const unsigned slot = slots_.acquire();
    if (slot == SlotRegistry::kNone) return std::nullopt;
    return Handle(this, slot);
  }

  Handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          std::string(K::kName) +
          ": all max_threads handle slots are simultaneously live");
    }
    return std::move(*h);
  }

  // Succeeds for every storable value (unbounded: a refusing segment
  // is succeeded by a fresh one).
  bool try_push(std::uint64_t v, Handle& h) {
    if (K::refuses(v)) return false;
    const unsigned slot = h.slot();
    for (;;) {
      // The hazard keeps the segment alive across its ring ops even if
      // dequeuers drain and retire it meanwhile.
      Segment* s = smr_.protect(slot, 0, tail_);
      if (Segment* next = s->next.load(std::memory_order_acquire)) {
        // Someone already appended; help swing tail and retry there.
        tail_.compare_exchange_strong(s, next, std::memory_order_release,
                                      std::memory_order_relaxed);
        continue;
      }
      if (kind_.try_enqueue(s, v)) return true;
      // Segment refused. Seed a fresh one with the value (a push on an
      // empty, open segment cannot fail) and link it.
      Segment* fresh = kind_.make();
      const bool seeded = kind_.try_enqueue(fresh, v);
      assert(seeded && "push on a fresh segment cannot fail");
      (void)seeded;
      Segment* expected = nullptr;
      if (s->next.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        tail_.compare_exchange_strong(s, fresh, std::memory_order_release,
                                      std::memory_order_relaxed);
        return true;
      }
      kind_.free(fresh);  // lost the append race; nobody saw ours
    }
  }

  // False iff the queue is empty.
  bool try_pop(std::uint64_t* v, Handle& h) {
    const unsigned slot = h.slot();
    for (;;) {
      Segment* s = smr_.protect(slot, 0, head_);
      if (kind_.try_dequeue(s, v)) return true;
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) return false;  // no successor: truly empty
      // A successor exists, so pushes have moved on — but one may have
      // slipped in between our empty observation and the append.
      if (kind_.last_dequeue(s, v)) return true;
      Segment* expected = s;
      if (head_.compare_exchange_strong(expected, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        smr_.retire(slot, s, &free_erased, this);
      }
    }
  }

  smr::Stats smr_stats() const { return smr_.stats(); }

 private:
  friend Handle;

  void release_slot(unsigned slot) {
    smr_.quiesce(slot);
    slots_.release(slot);
  }

  static void free_erased(void* p, void* ctx) {
    static_cast<SegmentList*>(ctx)->kind_.free(static_cast<Segment*>(p));
  }

  K kind_;
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> head_{nullptr};
  alignas(detail::kNoFalseSharing) std::atomic<Segment*> tail_{nullptr};
  SlotRegistry slots_;
  smr::Domain smr_;
};

}  // namespace wcq
