/// \file
/// `wcq::sharded<T, Backend>` — a queue-of-queues scaling layer.
///
/// One FAA-ticketed ring is the contention wall at high core counts:
/// every operation, from every core, meets at the same head/tail
/// cache lines. This layer puts an array of independent backend
/// instances (shards) behind the exact same `concepts::Queue` surface
/// the rest of the repo programs against, so it drops into every
/// test, bench, and adapter unchanged — the scaling decision becomes
/// a configuration knob (`options::shards`), not an API fork.
///
/// ## Ordering contract (read this before depending on FIFO)
///
/// Each shard is a FIFO queue; *cross-shard* ordering is relaxed.
/// Precisely: values a single handle pushes into the same shard are
/// dequeued from that shard in push order, but two values a producer
/// spreads over different shards may be observed by a consumer in
/// either order. A workload that needs a global order uses one shard
/// (`options::shards(1)` — the plain queue). Under the default picker
/// a single handle that both pushes and pops still sees exact FIFO.
///
/// ## Pickers (`options::shard_policy`)
///
/// A picker is a stride, not a code path. Every op scans the shards
/// `(cur + k) & mask` for k = 0..shards-1 from its handle's cursor
/// (one per direction) and stops at the first shard `s` that takes
/// it, moving the cursor to `s + stride`. A scan that fails on every
/// shard leaves the cursor alone. One op is therefore at most
/// `shards` backend ops, so the layer is wait-free over a wait-free
/// backend.
///
///  - `round_robin` (default), stride 1: successive ops of a handle
///    visit the shards in turn. Push and pop cursors start aligned
///    and move in step, so a single-threaded user observes exact
///    FIFO, and a full/empty episode cannot misalign them.
///  - `sticky`, stride 0: the cursor is the handle's home shard
///    (initially its registration number modulo shards) and stays
///    there — the zero-interference layout when threads <= shards.
///    It moves only when the home refuses: push moves home on full,
///    pop moves home on empty.
///
/// ## Batch API
///
/// `try_push_n`/`try_pop_n` amortize one shard selection (and, on
/// backends with a native burst — FaaQueue claims a run of tickets
/// with a single FAA — one ticket acquisition) over up to
/// `options::batch_limit` values per chunk: a chunk targets the
/// cursor's shard and advances the cursor by the stride. Values are
/// encoded through `slot_codec<T>`, so boxed payloads batch exactly
/// like inline ones.
///
/// ## Capacity
///
/// Total capacity stays `2^order` for bounded backends: the order is
/// split as `order - log2(shards)` per shard, so one options value
/// sizes sharded and unsharded queues identically. The constructor
/// throws `std::invalid_argument` when the split leaves a shard under
/// two slots, when `shards` is not a power of two, or when
/// `batch_limit` is zero (refuse, never silently clamp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "wcq/concepts.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/wcq.hpp"

namespace wcq {

/// Sharded queue-of-queues over any concepts::Backend. Satisfies
/// concepts::Queue, so the whole harness accepts it as a lineup entry.
template <typename T, typename Backend = WcqQueue>
class sharded {
  static_assert(concepts::Backend<Backend>,
                "Backend must satisfy wcq::concepts::Backend "
                "(options ctor + Handle + try_push/try_pop over slots)");
  using BackendHandle = typename Backend::Handle;

 public:
  using value_type = T;
  using backend_type = Backend;
  using codec = slot_codec<T>;

  class handle;

  explicit sharded(const options& opt = options{})
      : nshards_(resolve_shards(opt.shards())),
        mask_(nshards_ - 1),
        stride_(opt.shard_policy() == shard_policy::sticky ? 0u : 1u),
        batch_limit_(opt.batch_limit()) {
    if (batch_limit_ == 0) {
      throw std::invalid_argument("sharded: batch_limit must be >= 1");
    }
    unsigned shard_bits = 0;
    while ((1u << shard_bits) < nshards_) ++shard_bits;
    if (opt.order() <= shard_bits) {
      throw std::invalid_argument(
          "sharded: order must exceed log2(shards) — the per-shard "
          "split would leave rings under two slots");
    }
    options per_shard = opt;
    per_shard.order(opt.order() - shard_bits);
    shards_ = static_cast<Backend*>(mem::alloc(nshards_ * sizeof(Backend)));
    unsigned made = 0;
    try {
      for (; made < nshards_; ++made) {
        new (&shards_[made]) Backend(per_shard);
      }
    } catch (...) {
      while (made-- > 0) shards_[made].~Backend();
      mem::free(shards_, nshards_ * sizeof(Backend));
      throw;
    }
  }

  ~sharded() {
    // Boxed values still parked in any shard own heap memory; reclaim
    // them before the shards tear down their rings.
    if constexpr (codec::kBoxed) {
      for (unsigned s = 0; s < nshards_; ++s) {
        auto h = shards_[s].try_get_handle();
        if (h) {
          std::uint64_t slot = 0;
          while (shards_[s].try_pop(&slot, *h)) codec::drop(slot);
        }
      }
    }
    for (unsigned s = 0; s < nshards_; ++s) shards_[s].~Backend();
    mem::free(shards_, nshards_ * sizeof(Backend));
  }

  sharded(const sharded&) = delete;
  sharded& operator=(const sharded&) = delete;

  /// RAII registration with EVERY shard (one backend handle each), so
  /// an op can land anywhere without a registration on its hot path.
  /// Move-only; must not outlive the sharded queue.
  class handle {
   public:
    handle() = delete;

    handle(handle&& o) noexcept
        : q_(std::exchange(o.q_, nullptr)),
          subs_(o.subs_),
          scratch_(o.scratch_),
          push_cur_(o.push_cur_),
          pop_cur_(o.pop_cur_) {}

    handle& operator=(handle&& o) noexcept {
      if (this != &o) {
        release();
        q_ = std::exchange(o.q_, nullptr);
        subs_ = o.subs_;
        scratch_ = o.scratch_;
        push_cur_ = o.push_cur_;
        pop_cur_ = o.pop_cur_;
      }
      return *this;
    }

    handle(const handle&) = delete;
    handle& operator=(const handle&) = delete;

    ~handle() { release(); }

   private:
    friend class sharded;

    handle(sharded* q, BackendHandle* subs, std::uint64_t* scratch,
           unsigned home)
        : q_(q),
          subs_(subs),
          scratch_(scratch),
          push_cur_(home),
          pop_cur_(home) {}

    void release() {
      if (q_ != nullptr) {
        for (unsigned s = q_->nshards_; s-- > 0;) subs_[s].~BackendHandle();
        mem::free(subs_, q_->nshards_ * sizeof(BackendHandle));
        mem::free(scratch_, q_->batch_limit_ * sizeof(std::uint64_t));
        q_ = nullptr;
      }
    }

    sharded* q_ = nullptr;
    BackendHandle* subs_ = nullptr;
    std::uint64_t* scratch_ = nullptr;  // batch_limit slots
    // Scan cursor per direction, masked at use. Both start at the
    // handle's home so push and pop are aligned for single-handle FIFO.
    unsigned push_cur_ = 0;
    unsigned pop_cur_ = 0;
  };

  /// nullopt iff some shard has all max_threads handle slots live.
  std::optional<handle> try_get_handle() {
    using BH = BackendHandle;
    BH* subs = static_cast<BH*>(mem::alloc(nshards_ * sizeof(BH)));
    unsigned made = 0;
    for (; made < nshards_; ++made) {
      auto sub = shards_[made].try_get_handle();
      if (!sub) break;
      new (&subs[made]) BH(std::move(*sub));
    }
    if (made < nshards_) {
      while (made-- > 0) subs[made].~BH();
      mem::free(subs, nshards_ * sizeof(BH));
      return std::nullopt;
    }
    auto* scratch = static_cast<std::uint64_t*>(
        mem::alloc(batch_limit_ * sizeof(std::uint64_t)));
    return handle(this, subs, scratch,
                  next_handle_.fetch_add(1, std::memory_order_relaxed));
  }

  /// Throwing flavor for call sites where exhaustion is a logic error.
  handle get_handle() {
    auto h = try_get_handle();
    if (!h) {
      throw std::runtime_error(
          "sharded: a shard has all max_threads handle slots "
          "simultaneously live");
    }
    return std::move(*h);
  }

  /// False iff no shard accepts (all full, or the backend reserves
  /// the value's bit pattern — see queue.hpp's sentinel caveat).
  bool try_push(T v, handle& h) {
    std::uint64_t slot = codec::encode(std::move(v));
    if (scan<Push>(slot, h)) return true;
    codec::drop(slot);
    return false;
  }

  /// nullopt iff every shard reports empty.
  std::optional<T> try_pop(handle& h) {
    std::uint64_t slot = 0;
    if (!scan<Pop>(slot, h)) return std::nullopt;
    return codec::decode(slot);
  }

  /// Batch enqueue: vs[0..n) in order, one shard selection per
  /// batch_limit-sized chunk (plus the backend's native ticket burst
  /// where it has one). Returns the accepted count; stops early when
  /// no shard will take the next value (all full, or a reserved
  /// sentinel pattern — the refused value stays with the caller).
  std::size_t try_push_n(const T* vs, std::size_t n, handle& h) {
    std::size_t pushed = 0;
    while (pushed < n) {
      const std::size_t chunk =
          std::min<std::size_t>(batch_limit_, n - pushed);
      for (std::size_t i = 0; i < chunk; ++i) {
        h.scratch_[i] = codec::encode(vs[pushed + i]);
      }
      const std::size_t ok = run_slots<Push>(h.scratch_, chunk, h);
      for (std::size_t i = ok; i < chunk; ++i) codec::drop(h.scratch_[i]);
      pushed += ok;
      if (ok < chunk) break;
    }
    return pushed;
  }

  /// Batch dequeue into out[0..n): returns how many values arrived
  /// (zero iff every shard is empty). Values from one shard arrive in
  /// that shard's FIFO order; chunks may interleave shards.
  std::size_t try_pop_n(T* out, std::size_t n, handle& h) {
    std::size_t got = 0;
    while (got < n) {
      const std::size_t chunk = std::min<std::size_t>(batch_limit_, n - got);
      const std::size_t ok = run_slots<Pop>(h.scratch_, chunk, h);
      for (std::size_t i = 0; i < ok; ++i) {
        out[got + i] = codec::decode(h.scratch_[i]);
      }
      got += ok;
      if (ok < chunk) break;
    }
    return got;
  }

  unsigned shard_count() const { return nshards_; }

  /// Direct access to one shard (tests and benches; not a stable API).
  Backend& shard(unsigned s) { return shards_[s]; }

  /// Total capacity (bounded backends): the sum over shards, which by
  /// construction is 2^order.
  auto capacity() const
    requires requires(const Backend& b) { b.capacity(); }
  {
    decltype(shards_[0].capacity()) total = 0;
    for (unsigned s = 0; s < nshards_; ++s) total += shards_[s].capacity();
    return total;
  }

  /// SMR retire/scan counters summed over shards (reclaiming
  /// backends).
  auto smr_stats() const
    requires requires(const Backend& b) { b.smr_stats(); }
  {
    auto total = shards_[0].smr_stats();
    for (unsigned s = 1; s < nshards_; ++s) {
      const auto st = shards_[s].smr_stats();
      total.retired_nodes += st.retired_nodes;
      total.reclaimed_nodes += st.reclaimed_nodes;
      total.retire_calls += st.retire_calls;
      total.scans += st.scans;
    }
    return total;
  }

 private:
  // What push and pop differ in: the handle's cursor and the backend
  // calls, one slot or a run through the backend's native burst (FAA's
  // single-FAA ticket run) when it has one. The scan and the chunking
  // are shared.
  struct Push {
    static unsigned& cursor(handle& h) { return h.push_cur_; }
    static bool one(Backend& b, std::uint64_t& slot, BackendHandle& bh) {
      return b.try_push(slot, bh);
    }
    template <typename B>  // declared only where B has the burst
    static auto burst(B& b, std::uint64_t* slots, std::size_t n,
                      BackendHandle& bh)
        -> decltype(b.try_push_n(slots, n, bh)) {
      return b.try_push_n(slots, n, bh);
    }
  };

  struct Pop {
    static unsigned& cursor(handle& h) { return h.pop_cur_; }
    static bool one(Backend& b, std::uint64_t& slot, BackendHandle& bh) {
      return b.try_pop(&slot, bh);
    }
    template <typename B>  // declared only where B has the burst
    static auto burst(B& b, std::uint64_t* slots, std::size_t n,
                      BackendHandle& bh)
        -> decltype(b.try_pop_n(slots, n, bh)) {
      return b.try_pop_n(slots, n, bh);
    }
  };

  // 0 = auto: a power of two derived from the machine — one shard per
  // ~4 cpus, capped at 8 (the topology-aware sweep in the benches
  // picks its own counts; this default just has to be sane anywhere).
  static unsigned resolve_shards(unsigned requested) {
    if (requested == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      if (hw == 0) hw = 1;
      unsigned want = hw / 4;
      if (want == 0) want = 1;
      if (want > 8) want = 8;
      unsigned p = 1;
      while (p * 2 <= want) p *= 2;
      return p;
    }
    if ((requested & (requested - 1)) != 0) {
      throw std::invalid_argument(
          "sharded: shards must be a power of two (the picker masks, "
          "never divides)");
    }
    if (requested > kMaxShards) {
      throw std::invalid_argument("sharded: shards exceeds 256");
    }
    return requested;
  }

  static constexpr unsigned kMaxShards = 256;

  // The picker: try every shard once, starting at the cursor; the
  // shard that takes the op moves the cursor to it plus the stride.
  template <typename Dir>
  bool scan(std::uint64_t& slot, handle& h) {
    unsigned& cur = Dir::cursor(h);
    for (unsigned k = 0; k < nshards_; ++k) {
      const unsigned s = (cur + k) & mask_;
      if (Dir::one(shards_[s], slot, h.subs_[s])) {
        cur = s + stride_;
        return true;
      }
    }
    return false;
  }

  // Up to n slots through shard s alone; returns how many it took.
  template <typename Dir>
  std::size_t shard_run(unsigned s, std::uint64_t* slots, std::size_t n,
                        handle& h) {
    if constexpr (requires { Dir::burst(shards_[s], slots, n, h.subs_[s]); }) {
      return Dir::burst(shards_[s], slots, n, h.subs_[s]);
    } else {
      std::size_t ok = 0;
      while (ok < n && Dir::one(shards_[s], slots[ok], h.subs_[s])) ++ok;
      return ok;
    }
  }

  // Batch of encoded slots: one shard pick per chunk (the cursor's
  // shard, cursor += stride); when the picked shard refuses mid-chunk,
  // the refused slot goes through the scan, which moves the cursor the
  // way a single op would, and the remainder re-picks. Stops only on a
  // global refusal. Returns slots done.
  template <typename Dir>
  std::size_t run_slots(std::uint64_t* slots, std::size_t n, handle& h) {
    unsigned& cur = Dir::cursor(h);
    std::size_t done = 0;
    while (done < n) {
      const unsigned s = cur & mask_;
      cur = s + stride_;
      done += shard_run<Dir>(s, slots + done, n - done, h);
      if (done == n || !scan<Dir>(slots[done], h)) break;
      ++done;
    }
    return done;
  }

  const unsigned nshards_;
  const unsigned mask_;
  const unsigned stride_;  // round_robin 1, sticky 0
  const unsigned batch_limit_;
  Backend* shards_ = nullptr;
  std::atomic<unsigned> next_handle_{0};
};

}  // namespace wcq
