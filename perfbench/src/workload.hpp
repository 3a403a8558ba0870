// Workloads, seeded inputs and the result checker.
//
// Every workload is a closed loop of clients. A client pushes a burst
// of values, then pops until it has taken out as many values as it put
// in, then draws the next burst; pairwise is the burst-of-one case.
// The seed fixes each client's burst lengths and the payload bits of
// every value, so the op sequence a client issues is a function of
// (seed, client id) and of nothing the queue does.
//
// A value is [producer+1 : 16 bits][payload : 48 bits], where the
// payload is a seeded bijection of the producer's sequence number.
// Consumers invert it, which lets them check per-producer FIFO order
// from the value alone; counts plus an order-independent checksum over
// pushed, popped and drained values catch loss and duplication.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

#include "common/rng.hpp"

namespace perfbench {

inline constexpr unsigned kMaxProducers = 8;
inline constexpr unsigned kMaxChains = 8;
inline constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 48) - 1;

struct Workload {
  const char* name;
  unsigned threads;
  unsigned order;     // wcq::options::order of every series
  unsigned burst_lo;  // burst length is uniform in [burst_lo, burst_hi]
  unsigned burst_hi;
  bool empty_is_failure;  // the queue cannot be empty when popped
  bool full_is_failure;   // the queue cannot be full when pushed
};

// pairwise-1t: push one value, pop it back; paper Fig. 11b at 1 thread.
// burst-4t: bursts of ~512 into a 4096-slot ring, so at most 3072 values
// are ever live and a refused push is a false "full".
// backlog-4t: bursts of ~2048, twice the ring's capacity in total; a
// refused push pops one value to make room and retries.
inline constexpr Workload kWorkloads[] = {
    {"pairwise-1t", 1, 16, 1, 1, true, true},
    {"burst-4t", 4, 12, 256, 768, false, true},
    {"backlog-4t", 4, 12, 1024, 3072, false, false},
};

inline const Workload* find_workload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::string_view(w.name) == name) return &w;
  }
  return nullptr;
}

// Order-independent fingerprint of one value for the checksums.
inline std::uint64_t fold(std::uint64_t v) {
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

// Maps (producer, sequence number) to a 64-bit value and back.
class Codec {
 public:
  explicit Codec(std::uint64_t seed) {
    wcq::Xoshiro256 rng(seed ^ 0x243f6a8885a308d3ull);
    for (auto& k : keys_) k = rng.next() & kPayloadMask;
  }

  std::uint64_t value(unsigned producer, std::uint64_t seq) const {
    return (std::uint64_t{producer + 1} << 48) | mix(seq ^ keys_[producer]);
  }

  // False when no producer can have made v.
  bool decode(std::uint64_t v, unsigned& producer, std::uint64_t& seq) const {
    const std::uint64_t tag = v >> 48;
    if (tag == 0 || tag > kMaxProducers) return false;
    producer = static_cast<unsigned>(tag - 1);
    seq = unmix(v & kPayloadMask) ^ keys_[producer];
    return true;
  }

 private:
  static constexpr std::uint64_t kMul1 = 0x9e3779b97f4bull;  // odd
  static constexpr std::uint64_t kMul2 = 0xd6e8feb86659ull;  // odd

  static constexpr std::uint64_t inverse(std::uint64_t a) {
    std::uint64_t x = a;  // Newton: each step doubles the correct bits
    for (int i = 0; i < 6; ++i) x *= 2 - a * x;
    return x & kPayloadMask;
  }

  // A bijection on 48-bit words: odd multiplies and a xorshift by half
  // the width, each invertible modulo 2^48.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x * kMul1) & kPayloadMask;
    x ^= x >> 24;
    x = (x * kMul2) & kPayloadMask;
    return x ^ (x >> 24);
  }

  static std::uint64_t unmix(std::uint64_t x) {
    x ^= x >> 24;
    x = (x * inverse(kMul2)) & kPayloadMask;
    x ^= x >> 24;
    return (x * inverse(kMul1)) & kPayloadMask;
  }

  std::array<std::uint64_t, kMaxProducers> keys_{};
};

// One consumer's view: per producer, the values it pops must split into
// at most `chains` increasing runs. One chain is per-producer FIFO; a
// queue of k FIFO shards promises k (values of one producer that share
// a shard leave it in order). Greedy patience placement needs the
// fewest chains, so a contract-keeping queue is never flagged.
class Consumer {
 public:
  Consumer(const Codec& codec, unsigned chains)
      : codec_(&codec), chains_(std::clamp(chains, 1u, kMaxChains)) {}

  void take(std::uint64_t v) {
    ++taken;
    sum += fold(v);
    unsigned p = 0;
    std::uint64_t seq = 0;
    if (!codec_->decode(v, p, seq)) {
      ++violations;
      return;
    }
    const std::uint64_t x = seq + 1;  // 0 marks an empty chain
    auto& tails = tails_[p];
    int best = -1;
    for (unsigned k = 0; k < chains_; ++k) {
      if (tails[k] < x && (best < 0 || tails[k] > tails[best])) {
        best = static_cast<int>(k);
      }
    }
    if (best < 0) {
      ++violations;
      return;
    }
    tails[best] = x;
  }

  // Highest sequence number + 1 seen from producer p.
  std::uint64_t seen(unsigned p) const {
    return *std::max_element(tails_[p].begin(), tails_[p].end());
  }

  std::uint64_t taken = 0;
  std::uint64_t sum = 0;
  std::uint64_t violations = 0;

 private:
  const Codec* codec_;
  unsigned chains_;
  std::array<std::array<std::uint64_t, kMaxChains>, kMaxProducers> tails_{};
};

struct Tally {
  std::uint64_t push_calls = 0;
  std::uint64_t pop_calls = 0;
  std::uint64_t pushed = 0;   // accepted pushes
  std::uint64_t popped = 0;   // pops that returned a value
  std::uint64_t refused = 0;  // pushes answered "full"
  std::uint64_t empty = 0;    // pops answered "empty"
  std::uint64_t false_full = 0;
  std::uint64_t false_empty = 0;
  std::uint64_t pushed_sum = 0;

  std::uint64_t calls() const { return push_calls + pop_calls; }
  std::uint64_t useful() const { return pushed + popped; }

  Tally& operator+=(const Tally& o) {
    push_calls += o.push_calls;
    pop_calls += o.pop_calls;
    pushed += o.pushed;
    popped += o.popped;
    refused += o.refused;
    empty += o.empty;
    false_full += o.false_full;
    false_empty += o.false_empty;
    pushed_sum += o.pushed_sum;
    return *this;
  }

  Tally operator-(const Tally& o) const {
    Tally d = *this;
    d.push_calls -= o.push_calls;
    d.pop_calls -= o.pop_calls;
    d.pushed -= o.pushed;
    d.popped -= o.popped;
    d.refused -= o.refused;
    d.empty -= o.empty;
    d.false_full -= o.false_full;
    d.false_empty -= o.false_empty;
    d.pushed_sum -= o.pushed_sum;
    return d;
  }
};

// One closed-loop client. step() issues exactly one queue call.
// Adapter A provides push(Local&, v) -> bool and pop(Local&, v&) -> bool.
class Client {
 public:
  Client(const Workload& w, const Codec& codec, std::uint64_t seed,
         unsigned id, unsigned chains)
      : consumer(codec, chains),
        w_(&w),
        codec_(&codec),
        rng_(seed * 0x9e3779b97f4a7c15ull + id + 1),
        id_(id) {
    begin_burst();
  }

  template <typename A, typename L>
  void step(A& a, L& l) {
    if (pushing_ && !room_) {
      ++tally.push_calls;
      const std::uint64_t v = codec_->value(id_, seq_);
      if (a.push(l, v)) {
        ++seq_;
        ++tally.pushed;
        tally.pushed_sum += fold(v);
        ++net_;
        if (--left_ == 0) {
          pushing_ = false;
          if (net_ <= 0) begin_burst();
        }
      } else {
        ++tally.refused;
        if (w_->full_is_failure) {
          ++tally.false_full;
        } else {
          room_ = true;  // pop one to make room, then retry this value
        }
      }
      return;
    }
    ++tally.pop_calls;
    std::uint64_t v = 0;
    if (a.pop(l, v)) {
      ++tally.popped;
      consumer.take(v);
      --net_;
    } else {
      ++tally.empty;
      if (w_->empty_is_failure) ++tally.false_empty;
    }
    if (room_) {
      room_ = false;
    } else if (net_ <= 0) {
      // Balanced: every client ends a burst having taken out at least
      // what it put in, so a popping client always has values owed to
      // it by some client that is still pushing — no client can wait
      // forever on an empty queue.
      begin_burst();
    }
  }

  std::uint64_t pushed_seq() const { return seq_; }

  Tally tally;
  Consumer consumer;

 private:
  void begin_burst() {
    left_ = w_->burst_lo + rng_.next_below(w_->burst_hi - w_->burst_lo + 1);
    pushing_ = true;
  }

  const Workload* w_;
  const Codec* codec_;
  wcq::Xoshiro256 rng_;
  unsigned id_;
  std::uint64_t seq_ = 0;
  std::uint64_t left_ = 0;
  std::int64_t net_ = 0;
  bool pushing_ = true;
  bool room_ = false;
};

}  // namespace perfbench
