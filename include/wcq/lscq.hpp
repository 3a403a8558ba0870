// LSCQ — the unbounded queue of the SCQ paper (Nikolaev, DISC 2019,
// §5) and the strongest lock-free contender in wCQ's Figures 10-12: a
// Michael-Scott list whose nodes are whole SCQ segments (two-ring
// bounded queues). Values live in per-segment data arrays, so — unlike
// LCRQ/FAA — no value bit pattern is reserved: every uint64_t is
// storable.
//
// Enqueue works on the list tail's segment; when its value ring
// refuses (closed) or its free-index ring is exhausted, a fresh
// segment seeded with the value is appended. Dequeue drains the head
// segment; when it is empty *and* a successor exists, the segment is
// finalized:
//
//   1. fq.close() — Tail's bit 63 — makes every new enqueue ticket
//      abort with kClosed before touching an entry.
//   2. fq.drain_idx() burns head tickets past every position a
//      pre-close ticket could still install at (SCQ's threshold-spent
//      kEmpty does NOT imply head >= tail, so an in-flight pre-close
//      enqueue could otherwise install into a retired segment and the
//      value would vanish). A drained value is simply this dequeue's
//      result; kEmpty from drain is a sterility certificate.
//   3. Only a sterile segment is unlinked and retired through the
//      shared SMR domain (wcq/smr.hpp) under the caller's hazard
//      pointer — the same discipline as lcrq.hpp, which keeps the
//      parked-segment count bounded by the amnesty threshold.
//
// A pusher whose fq enqueue hits kClosed abandons its free index in
// the dying segment (the value was never visible, the index dies with
// the segment's allocation) and retries on the current list tail.
//
// Composition: each segment is the two-ring queue of two_ring.hpp
// over ScqRing/FinalScqRing plus a `next` link; the list, its handles
// and its SMR domain are wcq::SegmentList (segment_list.hpp). This
// header adds only the finalize rule above.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>

#include "wcq/detail.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/scq_ring.hpp"
#include "wcq/segment_list.hpp"
#include "wcq/two_ring.hpp"

namespace wcq {

// SCQ segments as a segment kind of wcq::SegmentList.
class ScqKind {
 public:
  static constexpr const char* kName = "lscq";

  // One list node: a bounded two-ring SCQ whose value ring (fq) is
  // finalizable.
  struct Segment : TwoRingQueue<ScqRing, FinalScqRing> {
    using TwoRingQueue::TwoRingQueue;

    // Steps 1-2 above: close, then sweep the surviving pre-close
    // tickets. A swept value is the caller's result; false certifies
    // the segment sterile.
    bool finalize(std::uint64_t* v) {
      fq_.close();
      std::uint64_t idx = 0;
      if (fq_.drain_idx(&idx) != FinalScqRing::kOk) return false;
      *v = data_[idx].load(std::memory_order_relaxed);
      return true;
    }

    alignas(detail::kNoFalseSharing) std::atomic<Segment*> next{nullptr};
  };

  explicit ScqKind(const options& opt)
      : order_(check_order(opt.order())),
        remap_(opt.remap()),
        portable_(opt.portable()) {}

  Segment* make() const {
    return new (mem::alloc(sizeof(Segment)))
        Segment(order_, remap_, portable_);
  }

  void free(Segment* s) const {
    s->~Segment();
    mem::free(s, sizeof(Segment));
  }

  // Values live in the data arrays: every bit pattern is storable.
  static constexpr bool refuses(std::uint64_t) { return false; }

  static bool try_enqueue(Segment* s, std::uint64_t v) { return s->push(v); }
  static bool try_dequeue(Segment* s, std::uint64_t* v) { return s->pop(v); }
  static bool last_dequeue(Segment* s, std::uint64_t* v) {
    return s->finalize(v);
  }

 private:
  static unsigned check_order(unsigned order) {
    if (order > 20) {
      throw std::invalid_argument("lscq: segment order exceeds 20");
    }
    return order;
  }

  const unsigned order_;
  const bool remap_;
  const bool portable_;
};

// LSCQ: the segment list over SCQ segments.
using LscqQueue = SegmentList<ScqKind>;

}  // namespace wcq
