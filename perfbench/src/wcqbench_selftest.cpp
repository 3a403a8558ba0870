// Self-test of the benchmark's own machinery:
//  - the checker flags every deliberately faulty queue wrapper below
//    (loss, duplication, reordering, corruption, false empty, false
//    full) and passes the real queues it wraps;
//  - the seed fixes the op sequence: the same seed replays the same
//    calls, another seed gives different ones;
//  - the payload codec round-trips.
// Exit code 0 iff every check holds.
#include <atomic>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "driver.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

enum class Fault { kNone, kLose, kDuplicate, kReorder, kCorrupt, kFalseEmpty,
                   kFalseFull };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kLose: return "lose";
    case Fault::kDuplicate: return "duplicate";
    case Fault::kReorder: return "reorder";
    case Fault::kCorrupt: return "corrupt";
    case Fault::kFalseEmpty: return "false-empty";
    case Fault::kFalseFull: return "false-full";
  }
  return "?";
}

// Wraps a real rung and misbehaves once, on the 1000th matching call
// across all clients. The fault is a template argument so no state is
// shared between test cases.
template <typename Inner, Fault F>
class Faulty {
 public:
  struct Local {
    typename Inner::Local inner;
    bool holding = false;  // kReorder: a popped value held back
    std::uint64_t held = 0;
    std::uint64_t last = 0;  // kDuplicate: the previous pop
  };

  explicit Faulty(const wcq::options& opt) : inner_(opt) {}

  Local local() { return Local{inner_.local()}; }
  unsigned chains() const { return inner_.chains(); }

  bool push(Local& l, std::uint64_t v) {
    if ((F == Fault::kLose || F == Fault::kFalseFull) && fire()) {
      return F == Fault::kLose;  // lose: claim success, keep nothing
    }
    return inner_.push(l.inner, v);
  }

  bool pop(Local& l, std::uint64_t& v) {
    if (F == Fault::kReorder && l.holding) {
      v = l.held;
      l.holding = false;
      return true;
    }
    if (F == Fault::kFalseEmpty && fire()) return false;
    if (F == Fault::kDuplicate && l.last != 0 && fire()) {
      v = l.last;
      return true;
    }
    if (!inner_.pop(l.inner, v)) return false;
    l.last = v;
    if (F == Fault::kCorrupt && fire()) v ^= 1;
    if (F == Fault::kReorder && fire()) {
      // Keep this value and answer the next pop with it instead.
      std::uint64_t newer = 0;
      if (inner_.pop(l.inner, newer)) {
        l.held = v;
        l.holding = true;
        v = newer;
      }
    }
    return true;
  }

  template <typename Fn>
  void drain(Fn&& f) {
    perfbench::drain(inner_, f);
  }

 private:
  bool fire() { return calls_.fetch_add(1, std::memory_order_relaxed) == 1000; }

  Inner inner_;
  std::atomic<std::uint64_t> calls_{0};
};

template <typename A>
RunStats run_ops(const Workload& w, const wcq::options& opt,
                 std::uint64_t seed, std::uint64_t calls) {
  const Codec codec(seed);
  Limits lim;
  lim.op_calls = calls;
  return run<A>(w, opt, codec, seed, lim, nullptr, [](A&) {});
}

template <typename Inner, Fault F>
void check_fault(const Workload& w, const wcq::options& opt,
                 const char* queue) {
  const RunStats r = run_ops<Faulty<Inner, F>>(w, opt, 7, 1u << 16);
  const std::string what = std::string(w.name) + " " + queue + " fault=" +
                           fault_name(F) + ": failed=" +
                           std::to_string(r.failed());
  expect(F == Fault::kNone ? r.failed() == 0 : r.failed() > 0, what);
}

template <typename Inner>
void check_faults(const Workload& w, const wcq::options& opt,
                  const char* queue) {
  check_fault<Inner, Fault::kNone>(w, opt, queue);
  check_fault<Inner, Fault::kLose>(w, opt, queue);
  check_fault<Inner, Fault::kDuplicate>(w, opt, queue);
  check_fault<Inner, Fault::kCorrupt>(w, opt, queue);
  if (w.full_is_failure) check_fault<Inner, Fault::kFalseFull>(w, opt, queue);
  if (w.empty_is_failure) {
    check_fault<Inner, Fault::kFalseEmpty>(w, opt, queue);
  }
}

// A single-threaded reference queue that records every call, so the
// op sequence a client issues can be compared across seeds.
class Recorder {
 public:
  using Local = int;
  explicit Recorder(const wcq::options&) {}
  Local local() { return 0; }
  unsigned chains() const { return 1; }
  bool push(Local&, std::uint64_t v) {
    log.emplace_back('+', v);
    q_.push_back(v);
    return true;
  }
  bool pop(Local&, std::uint64_t& v) {
    if (q_.empty()) return false;
    v = q_.front();
    q_.pop_front();
    log.emplace_back('-', v);
    return true;
  }
  std::vector<std::pair<char, std::uint64_t>> log;

 private:
  std::deque<std::uint64_t> q_;
};

std::vector<std::pair<char, std::uint64_t>> op_sequence(const Workload& w,
                                                        std::uint64_t seed) {
  const Codec codec(seed);
  Recorder rec{wcq::options{}};
  auto l = rec.local();
  Client c(w, codec, seed, 0, 1);
  for (int i = 0; i < 20000; ++i) c.step(rec, l);
  return rec.log;
}

void check_seeds() {
  for (const Workload& w : kWorkloads) {
    const auto a = op_sequence(w, 42);
    const auto b = op_sequence(w, 42);
    const auto c = op_sequence(w, 43);
    expect(a == b, std::string(w.name) + ": same seed, same op sequence");
    expect(a != c, std::string(w.name) + ": other seed, other op sequence");
  }
  // Burst lengths are seeded too, not only payloads: the push/pop
  // pattern itself must differ between seeds on the burst workloads.
  const Workload& burst = *find_workload("burst-4t");
  auto shape = [&](std::uint64_t seed) {
    std::string s;
    for (const auto& [kind, v] : op_sequence(burst, seed)) s += kind;
    return s;
  };
  expect(shape(42) != shape(43), "burst-4t: burst lengths follow the seed");

  const Codec codec(99);
  wcq::Xoshiro256 rng(5);
  bool round_trip = true;
  for (int i = 0; i < 100000; ++i) {
    const unsigned p = static_cast<unsigned>(rng.next_below(kMaxProducers));
    const std::uint64_t seq = rng.next() & kPayloadMask;
    unsigned q = 0;
    std::uint64_t s = 0;
    round_trip &= codec.decode(codec.value(p, seq), q, s) && q == p && s == seq;
  }
  expect(round_trip, "codec: value -> (producer, seq) round-trips");
}

// The per-shard check on its own: one producer's values seen by one
// consumer of a k-shard queue must split into at most k increasing runs.
void check_chains() {
  const Codec codec(1);
  auto violations = [&](unsigned chains, std::vector<std::uint64_t> seqs) {
    Consumer c(codec, chains);
    for (const std::uint64_t seq : seqs) c.take(codec.value(0, seq));
    return c.violations;
  };
  expect(violations(4, {3, 2, 1, 0, 4, 5}) == 0,
         "4 shards: four decreasing values fit four FIFO shards");
  expect(violations(4, {4, 3, 2, 1, 0}) > 0,
         "4 shards: five decreasing values break the per-shard contract");
  expect(violations(1, {0, 2, 1}) > 0, "1 shard: a swap breaks FIFO");
  expect(violations(1, {0, 1, 1}) > 0, "1 shard: a repeat breaks FIFO");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  check_seeds();
  check_chains();
  for (const Workload& w : kWorkloads) {
    const auto opt = wcq::options{}.order(w.order);
    check_faults<ScqFacade>(w, opt, "scq");
    check_faults<WcqFacade>(w, opt, "wcq");
    check_fault<RingRung<true>, Fault::kNone>(w, opt, "ring.noted");
    check_fault<NullRung, Fault::kNone>(w, opt, "harness.loop");
    check_fault<NullRung, Fault::kDuplicate>(w, opt, "harness.loop");
  }
  // wcq-shard is checked against its per-shard contract instead of
  // global FIFO: a correct run passes, loss and duplication are caught.
  const Workload& burst = *find_workload("burst-4t");
  const auto shard4 = wcq::options{}.order(burst.order).shards(4);
  check_fault<ShardedWcq, Fault::kNone>(burst, shard4, "wcq-shard");
  check_fault<ShardedWcq, Fault::kLose>(burst, shard4, "wcq-shard");
  check_fault<ShardedWcq, Fault::kDuplicate>(burst, shard4, "wcq-shard");
  // One client pushing bursts: any two adjacent values share a
  // producer, so swapping them must break per-producer FIFO.
  const Workload solo{"burst-1t", 1, 12, 256, 768, false, true};
  const auto opt = wcq::options{}.order(solo.order);
  check_fault<ScqFacade, Fault::kReorder>(solo, opt, "scq");
  check_fault<WcqFacade, Fault::kReorder>(solo, opt, "wcq");
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
              g_failures);
  return g_failures ? 1 : 0;
}
