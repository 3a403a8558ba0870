// Runs one adapter (a series or a ladder rung) under a workload: set
// up, warm up, run the clients for a window or an op budget, drain,
// and check every value. Times blocks of calls, never single calls:
// one clock read costs about as much as one queue op.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/latency.hpp"
#include "rungs.hpp"
#include "wcq/mem.hpp"
#include "workload.hpp"

namespace perfbench {

using wcq::harness::now_ns;  // steady_clock, in ns

// Calls per timed block; a trace span covers kSpanBlocks blocks.
inline constexpr unsigned kBlockCalls = 64;
inline constexpr unsigned kSpanBlocks = 64;
inline constexpr std::uint64_t kWarmupCalls = 1u << 15;
inline constexpr unsigned kRegisterProbes = 16;

// Name, interval and parent of one traced interval. Block spans carry
// the calls they cover; the others carry 0.
struct Span {
  std::uint32_t id;
  std::uint32_t parent;
  std::uint32_t name;  // index into Trace::names
  std::uint32_t thread;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t calls;
};

// Spans are kept in memory for the whole run and written at its end.
class Trace {
 public:
  std::uint32_t intern(const std::string& n) {
    for (std::uint32_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return i;
    }
    names.push_back(n);
    return static_cast<std::uint32_t>(names.size() - 1);
  }

  std::uint32_t open(const std::string& name, std::uint32_t parent) {
    const auto id = static_cast<std::uint32_t>(spans.size() + 1);
    spans.push_back({id, parent, intern(name), 0, now_ns(), 0, 0});
    return id;
  }

  void close(std::uint32_t id) { spans[id - 1].end = now_ns(); }

  void adopt(const std::vector<Span>& blocks) {
    for (Span s : blocks) {
      s.id = static_cast<std::uint32_t>(spans.size() + 1);
      spans.push_back(s);
    }
  }

  std::vector<std::string> names;
  std::vector<Span> spans;
};

struct Limits {
  double window_s = 0;        // run for this long, or ...
  std::uint64_t op_calls = 0;  // ... make exactly this many calls each
};

// Where a traced run files its block spans (parent = the rung span).
struct SpanSink {
  Trace* trace;
  std::uint32_t parent;
  std::uint32_t name;
};

struct RunStats {
  Tally tally;   // every call since the clients started, warm-up included
  Tally window;  // the timed calls only
  std::uint64_t violations = 0;  // order, decode, count and sum checks
  std::uint64_t drained = 0;
  std::uint64_t wall_ns = 0;
  double setup_s = 0;  // construct + register + warm up
  double ctor_s = 0;
  double register_ns = 0;
  std::uint64_t mem_peak = 0;
  std::uint64_t allocs_after_setup = 0;
  std::uint64_t contended = 0;
  std::vector<float> op_ns;  // per-call time of each block (untraced)

  std::uint64_t failed() const {
    return violations + tally.false_full + tally.false_empty;
  }
  double mops() const {
    return wall_ns ? static_cast<double>(window.useful()) * 1e3 /
                         static_cast<double>(wall_ns)
                   : 0.0;
  }
};

inline std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Clients take the allowed CPUs from the highest down: the lowest one
// usually fields the most device interrupts, so a lone client stays
// off it.
inline void pin_self(unsigned client) {
  static const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[cpus.size() - 1 - client % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// `poll` runs on the calling thread every millisecond of a timed
// window (the traced run samples SMR counters with it). Given nullptr,
// the calling thread sleeps through the window instead, so it never
// wakes on a client's CPU while the clients are timed.
template <typename A, typename Poll>
RunStats run(const Workload& w, const wcq::options& opt, const Codec& codec,
             std::uint64_t seed, const Limits& lim, const SpanSink* sink,
             Poll&& poll) {
  constexpr bool kPolls = !std::is_null_pointer_v<std::decay_t<Poll>>;
  RunStats r;
  wcq::mem::reset();
  const std::uint64_t t0 = now_ns();
  A a(opt);
  const std::uint64_t t1 = now_ns();
  {
    std::vector<typename A::Local> probe;
    probe.reserve(kRegisterProbes);
    for (unsigned i = 0; i < kRegisterProbes; ++i) probe.push_back(a.local());
    r.register_ns = static_cast<double>(now_ns() - t1) / kRegisterProbes;
  }
  r.ctor_s = static_cast<double>(t1 - t0) * 1e-9;

  struct Out {
    Tally warm;
    Tally tally;
    std::uint64_t violations = 0;
    std::uint64_t consumed_sum = 0;
    std::uint64_t consumed = 0;
    std::uint64_t pushed_seq = 0;
    std::array<std::uint64_t, kMaxProducers> seen{};
    std::uint64_t calls = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t contended = 0;
    std::vector<float> op_ns;
    std::vector<Span> spans;
    std::exception_ptr error;
  };
  const unsigned n = w.threads;
  std::vector<Out> outs(n);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  const std::uint64_t expect_blocks =
      lim.op_calls ? lim.op_calls / kBlockCalls + 1
                   : static_cast<std::uint64_t>(lim.window_s * 5e7) /
                             kBlockCalls + 1024;

  auto body = [&](unsigned id) {
    Out& o = outs[id];
    try {
      pin_self(id);
      auto l = a.local();
      Client c(w, codec, seed, id, a.chains());
      for (std::uint64_t k = 0; k < kWarmupCalls; ++k) c.step(a, l);
      o.warm = c.tally;
      if (sink) {
        o.spans.reserve(expect_blocks / kSpanBlocks + 1);
      } else {
        o.op_ns.reserve(expect_blocks);
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t t = now_ns();
      std::uint64_t span_start = t;
      for (std::uint64_t blk = 1;; ++blk) {
        for (unsigned k = 0; k < kBlockCalls; ++k) c.step(a, l);
        const std::uint64_t e = now_ns();
        o.calls += kBlockCalls;
        if (sink) {
          if (blk % kSpanBlocks == 0) {
            o.spans.push_back({0, sink->parent, sink->name, id, span_start,
                               e, std::uint64_t{kBlockCalls} * kSpanBlocks});
            span_start = e;
          }
        } else {
          o.op_ns.push_back(static_cast<float>(e - t) / kBlockCalls);
        }
        t = e;
        if (lim.op_calls ? o.calls >= lim.op_calls
                         : stop.load(std::memory_order_relaxed)) {
          break;
        }
      }
      o.end_ns = t;
      if constexpr (requires { l.contended; }) o.contended = l.contended;
      o.tally = c.tally;
      o.violations = c.consumer.violations;
      o.consumed_sum = c.consumer.sum;
      o.consumed = c.consumer.taken;
      o.pushed_seq = c.pushed_seq();
      for (unsigned p = 0; p < kMaxProducers; ++p) {
        o.seen[p] = c.consumer.seen(p);
      }
    } catch (...) {
      o.error = std::current_exception();
      ready.fetch_add(1, std::memory_order_acq_rel);  // never block main
    }
  };

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(body, i);
  while (ready.load(std::memory_order_acquire) < n) std::this_thread::yield();
  r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const std::uint64_t allocs0 = wcq::mem::stats().total_allocs;
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);
  if (!lim.op_calls) {
    const auto until = start + static_cast<std::uint64_t>(lim.window_s * 1e9);
    for (std::uint64_t t = now_ns(); t < until; t = now_ns()) {
      if constexpr (kPolls) {
        poll(a);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        std::this_thread::sleep_for(std::chrono::nanoseconds(until - t));
      }
    }
    stop.store(true, std::memory_order_relaxed);
  }
  for (auto& t : threads) t.join();
  for (auto& o : outs) {
    if (o.error) std::rethrow_exception(o.error);
  }
  if constexpr (kPolls) poll(a);
  r.allocs_after_setup = wcq::mem::stats().total_allocs - allocs0;

  // Everything still queued must be exactly what was pushed and never
  // popped: per-shard/producer order, counts and checksums.
  Consumer drainer(codec, a.chains());
  drain(a, [&](std::uint64_t v) { drainer.take(v); });
  r.mem_peak = wcq::mem::stats().peak_bytes;

  std::uint64_t consumed = drainer.taken;
  std::uint64_t consumed_sum = drainer.sum;
  std::uint64_t end = start;
  r.violations = drainer.violations;
  for (unsigned i = 0; i < n; ++i) {
    const Out& o = outs[i];
    r.tally += o.tally;
    r.window += o.tally - o.warm;
    r.violations += o.violations;
    consumed += o.consumed;
    consumed_sum += o.consumed_sum;
    r.contended += o.contended;
    end = std::max(end, o.end_ns);
    r.op_ns.insert(r.op_ns.end(), o.op_ns.begin(), o.op_ns.end());
    if (sink) sink->trace->adopt(o.spans);
    // No consumer may see a sequence number its producer never used.
    for (unsigned c = 0; c < n; ++c) {
      if (outs[c].seen[i] > o.pushed_seq) ++r.violations;
    }
    if (drainer.seen(i) > o.pushed_seq) ++r.violations;
  }
  r.drained = drainer.taken;
  r.wall_ns = end - start;
  const std::uint64_t pushed = r.tally.pushed;
  r.violations += pushed > consumed ? pushed - consumed : consumed - pushed;
  if (pushed == consumed && r.tally.pushed_sum != consumed_sum) {
    ++r.violations;
  }
  return r;
}

}  // namespace perfbench
