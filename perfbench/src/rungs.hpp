// The layer ladder: one adapter per layer of the stack, each calling
// that layer's public functions directly, so the same client op
// sequence can be timed at every rung.
//
//   RingRung<Noted>   bare two-ring queue: aq/fq ScqRingT + data array
//                     through enqueue_idx/dequeue_idx (scq_ring.hpp,
//                     ring_math/ring_entry/ring_policy underneath)
//   BackendRung<B>    raw backend try_push/try_pop over 64-bit slots
//                     (wcq.hpp, scq.hpp, lscq.hpp, lcrq.hpp)
//   FacadeRung<Q>     typed facade: wcq::queue<uint64_t, B> (queue.hpp)
//                     or wcq::sharded<uint64_t, B> (sharded.hpp)
//   NullRung          the client loop with no queue call: a per-client
//                     FIFO, so the loop and the checker still run
//
// Every adapter: constructible from wcq::options; local() registers
// one participant; push(Local&, v) / pop(Local&, v&); chains() is the
// per-producer order the checker may demand (see Consumer); drain(f)
// hands every value still queued to f once no client is running.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "wcq/lcrq.hpp"
#include "wcq/lscq.hpp"
#include "wcq/queue.hpp"
#include "wcq/ring_noted.hpp"
#include "wcq/scq.hpp"
#include "wcq/sharded.hpp"
#include "wcq/wcq.hpp"

namespace perfbench {

template <bool Noted>
class RingRung {
  using Ring = wcq::ScqRingT<Noted>;

 public:
  struct Local {
    std::uint64_t contended = 0;  // kContended returns
  };

  // The noted ring runs at wCQ's patience and counts each kContended
  // return, which is where wcq.hpp would take its slow path; the plain
  // ring runs unbounded, as ScqQueue does.
  explicit RingRung(const wcq::options& opt)
      : n_(std::uint64_t{1} << opt.order()),
        enq_patience_(Noted ? opt.enqueue_patience() : Ring::kUnbounded),
        deq_patience_(Noted ? opt.dequeue_patience() : Ring::kUnbounded),
        reqs_(std::make_unique<wcq::RingRequest[]>(opt.max_threads())),
        aq_(opt.order(), opt.remap(), false, reqs_.get(), false),
        fq_(opt.order(), opt.remap(), false, reqs_.get(), true),
        data_(std::make_unique<std::atomic<std::uint64_t>[]>(n_)) {
    for (std::uint64_t i = 0; i < n_; ++i) {
      aq_.enqueue_idx(i, Ring::kUnbounded);
    }
  }

  Local local() { return Local{}; }
  unsigned chains() const { return 1; }

  bool push(Local& l, std::uint64_t v) {
    std::uint64_t idx = 0;
    if (!take(aq_, &idx, enq_patience_, l)) return false;
    data_[idx].store(v, std::memory_order_relaxed);
    put(fq_, idx, enq_patience_, l);
    return true;
  }

  bool pop(Local& l, std::uint64_t& v) {
    std::uint64_t idx = 0;
    if (!take(fq_, &idx, deq_patience_, l)) return false;
    v = data_[idx].load(std::memory_order_relaxed);
    put(aq_, idx, enq_patience_, l);
    return true;
  }

 private:
  static bool take(Ring& r, std::uint64_t* idx, std::uint64_t patience,
                   Local& l) {
    for (;;) {
      const auto rc = r.dequeue_idx(idx, patience);
      if (rc == Ring::kOk) return true;
      if (rc == Ring::kEmpty) return false;
      ++l.contended;
    }
  }

  static void put(Ring& r, std::uint64_t idx, std::uint64_t patience,
                  Local& l) {
    while (r.enqueue_idx(idx, patience) != Ring::kOk) ++l.contended;
  }

  const std::uint64_t n_;
  const std::uint64_t enq_patience_;
  const std::uint64_t deq_patience_;
  std::unique_ptr<wcq::RingRequest[]> reqs_;  // notes name these; none
                                              // is ever published here
  Ring aq_;
  Ring fq_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> data_;
};

template <typename B>
class BackendRung {
 public:
  using Local = typename B::Handle;

  explicit BackendRung(const wcq::options& opt) : q_(opt) {}

  Local local() { return q_.get_handle(); }
  unsigned chains() const { return 1; }
  bool push(Local& h, std::uint64_t v) { return q_.try_push(v, h); }
  bool pop(Local& h, std::uint64_t& v) { return q_.try_pop(&v, h); }
  const B& queue() const { return q_; }

 private:
  B q_;
};

template <typename Q>
class FacadeRung {
 public:
  using Local = typename Q::handle;

  explicit FacadeRung(const wcq::options& opt) : q_(opt) {}

  Local local() { return q_.get_handle(); }

  unsigned chains() const {
    if constexpr (requires { q_.shard_count(); }) {
      return q_.shard_count();
    } else {
      return 1;
    }
  }

  bool push(Local& h, std::uint64_t v) { return q_.try_push(v, h); }

  bool pop(Local& h, std::uint64_t& v) {
    const auto r = q_.try_pop(h);
    if (!r) return false;
    v = *r;
    return true;
  }

  const Q& queue() const { return q_; }

 private:
  Q q_;
};

class NullRung {
 public:
  struct Fifo {
    std::vector<std::uint64_t> buf = std::vector<std::uint64_t>(kCap);
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
  };
  using Local = Fifo*;

  explicit NullRung(const wcq::options&) {}

  Local local() {
    std::lock_guard<std::mutex> g(mu_);
    fifos_.push_back(std::make_unique<Fifo>());
    return fifos_.back().get();
  }

  unsigned chains() const { return 1; }

  bool push(Local& f, std::uint64_t v) {
    if (f->tail - f->head == kCap) return false;
    f->buf[f->tail++ % kCap] = v;
    return true;
  }

  bool pop(Local& f, std::uint64_t& v) {
    if (f->tail == f->head) return false;
    v = f->buf[f->head++ % kCap];
    return true;
  }

  template <typename F>
  void drain(F&& f) {
    for (auto& q : fifos_) {
      while (q->head != q->tail) f(q->buf[q->head++ % kCap]);
    }
  }

 private:
  // Holds a whole client burst (at most 3072) plus room.
  static constexpr std::uint64_t kCap = 4096;
  std::mutex mu_;  // guards fifos_ while clients register
  std::vector<std::unique_ptr<Fifo>> fifos_;
};

// Hand every value still in `a` to f; call only once clients stopped.
template <typename A, typename F>
void drain(A& a, F&& f) {
  if constexpr (requires { a.drain(f); }) {
    a.drain(f);
  } else {
    auto l = a.local();
    std::uint64_t v = 0;
    while (a.pop(l, v)) f(v);
  }
}

using WcqFacade = FacadeRung<wcq::queue<std::uint64_t, wcq::WcqQueue>>;
using ScqFacade = FacadeRung<wcq::queue<std::uint64_t, wcq::ScqQueue>>;
using LscqFacade = FacadeRung<wcq::queue<std::uint64_t, wcq::LscqQueue>>;
using LcrqFacade = FacadeRung<wcq::queue<std::uint64_t, wcq::LcrqQueue>>;
using ShardedWcq = FacadeRung<wcq::sharded<std::uint64_t, wcq::WcqQueue>>;

}  // namespace perfbench
