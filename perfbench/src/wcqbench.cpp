// wcqbench: the repository benchmark.
//
//   wcqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <spans.csv>]
//
// --trace 0 runs the five end-to-end series (wcq, scq, lscq, lcrq,
// wcq-shard) through their public facades in interleaved rounds and
// reports throughput, wCQ's per-call service time and allocator peaks.
// --trace 1 runs the layer ladder instead: the same client op sequence
// at each layer (ring, backend, facade, sharded), with a span around
// every block of calls, and reports per-layer times and counters.
// Every run checks every value. The last line is `RESULT <json>`.
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver.hpp"

namespace perfbench {
namespace {

// Counters read from the queue itself: wCQ's helping stats and the
// SMR domain's, sampled every millisecond for the parked maximum.
struct Probe {
  std::uint64_t queue_ops = 0;
  std::uint64_t slow_ops = 0;
  std::uint64_t helps = 0;
  std::uint64_t retire_calls = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t scans = 0;
  std::uint64_t parked_max = 0;
};

struct Ctx {
  const Workload* w;
  const Codec* codec;
  std::uint64_t seed;
  Limits lim;
};

using Runner = RunStats (*)(const Ctx&, const wcq::options&, const SpanSink*,
                            Probe*);

template <typename A>
RunStats run_entry(const Ctx& ctx, const wcq::options& opt,
                   const SpanSink* sink, Probe* probe) {
  if (probe == nullptr) {
    return run<A>(*ctx.w, opt, *ctx.codec, ctx.seed, ctx.lim, sink, nullptr);
  }
  auto poll = [probe](A& a) {
    if constexpr (requires { a.queue().smr_stats(); }) {
      const auto s = a.queue().smr_stats();
      probe->retire_calls = s.retire_calls;
      probe->reclaimed = s.reclaimed_nodes;
      probe->scans = s.scans;
      probe->parked_max = std::max(probe->parked_max, s.retired_nodes);
    }
    if constexpr (requires { a.queue().stats().helps; }) {
      const auto s = a.queue().stats();
      probe->queue_ops = s.fast_enqueues + s.slow_enqueues + s.fast_dequeues +
                         s.slow_dequeues;
      probe->slow_ops = s.slow_enqueues + s.slow_dequeues;
      probe->helps = s.helps;
    }
  };
  return run<A>(*ctx.w, opt, *ctx.codec, ctx.seed, ctx.lim, sink, poll);
}

struct Entry {
  std::string series;
  std::string rung;
  Runner fn;
  wcq::options opt;
};

// The five end-to-end series, each through the public face a user
// holds. Options are the library defaults except the workload's order
// and, for wcq-shard, 4 shards under the default picker.
std::vector<Entry> end_to_end_series(const Workload& w) {
  const auto base = wcq::options{}.order(w.order);
  auto shard4 = base;
  shard4.shards(4);
  return {
      {"wcq", "facade.wcq", &run_entry<WcqFacade>, base},
      {"scq", "facade.scq", &run_entry<ScqFacade>, base},
      {"lscq", "facade.lscq", &run_entry<LscqFacade>, base},
      {"lcrq", "facade.lcrq", &run_entry<LcrqFacade>, base},
      {"wcq-shard", "sharded.s4", &run_entry<ShardedWcq>, shard4},
  };
}

// The ladder, grouped by series; within a group the rungs go from the
// lowest layer up. "untraced.*" repeats the series' facade without
// spans, for trace.overhead_pct.
std::vector<std::vector<Entry>> ladder(const Workload& w) {
  const auto base = wcq::options{}.order(w.order);
  auto noremap = base;
  noremap.remap(false);
  auto shard1 = base;
  shard1.shards(1);
  auto shard4 = base;
  shard4.shards(4);
  return {
      {{"wcq", "ring.noted", &run_entry<RingRung<true>>, base},
       {"wcq", "ring.noted.noremap", &run_entry<RingRung<true>>, noremap},
       {"wcq", "backend.wcq", &run_entry<BackendRung<wcq::WcqQueue>>, base},
       {"wcq", "facade.wcq", &run_entry<WcqFacade>, base},
       {"wcq", "untraced.wcq", &run_entry<WcqFacade>, base}},
      {{"scq", "ring.plain", &run_entry<RingRung<false>>, base},
       {"scq", "backend.scq", &run_entry<BackendRung<wcq::ScqQueue>>, base},
       {"scq", "facade.scq", &run_entry<ScqFacade>, base},
       {"scq", "untraced.scq", &run_entry<ScqFacade>, base}},
      {{"lscq", "backend.lscq", &run_entry<BackendRung<wcq::LscqQueue>>,
        base},
       {"lscq", "facade.lscq", &run_entry<LscqFacade>, base},
       {"lscq", "untraced.lscq", &run_entry<LscqFacade>, base}},
      {{"lcrq", "backend.lcrq", &run_entry<BackendRung<wcq::LcrqQueue>>,
        base},
       {"lcrq", "facade.lcrq", &run_entry<LcrqFacade>, base},
       {"lcrq", "untraced.lcrq", &run_entry<LcrqFacade>, base}},
      {{"wcq-shard", "sharded.s1", &run_entry<ShardedWcq>, shard1},
       {"wcq-shard", "sharded.s4", &run_entry<ShardedWcq>, shard4},
       {"wcq-shard", "untraced.wcq-shard", &run_entry<ShardedWcq>, shard4}},
      {{"harness", "harness.loop", &run_entry<NullRung>, base}},
  };
}

std::string options_json(const wcq::options& o) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"order\": %u, \"max_threads\": %u, \"enqueue_patience\": "
                "%u, \"dequeue_patience\": %u, \"help_delay\": %u, "
                "\"remap\": %s, \"seg_order\": %u, \"retire_threshold\": %u, "
                "\"shards\": %u, \"shard_policy\": %u, \"batch_limit\": %u}",
                o.order(), o.max_threads(), o.enqueue_patience(),
                o.dequeue_patience(), o.help_delay(),
                o.remap() ? "true" : "false", o.seg_order(),
                o.retire_threshold(), o.shards(),
                static_cast<unsigned>(o.shard_policy()), o.batch_limit());
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Metrics in the order they were set.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  std::string json() const {
    std::string s = "{";
    for (const Metric& m : metrics_) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    s.size() > 1 ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
      s += buf;
    }
    return s + "}";
  }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const RunStats& r) {
    attempted += r.tally.calls() + r.drained;
    failed += r.failed();
  }
};

void print_run(const std::string& what, unsigned round, const RunStats& r) {
  std::printf(
      "run %-20s round %u: %.3f Mops/s  setup %.4f s  useful %llu  "
      "refused %llu  empty %llu  drained %llu  failed %llu\n",
      what.c_str(), round, r.mops(), r.setup_s,
      static_cast<unsigned long long>(r.window.useful()),
      static_cast<unsigned long long>(r.window.refused),
      static_cast<unsigned long long>(r.window.empty),
      static_cast<unsigned long long>(r.drained),
      static_cast<unsigned long long>(r.failed()));
}

// Percentile by rank over exact samples; omitted (false) unless at
// least ten samples lie beyond it.
bool percentile(std::vector<float>& v, double q, double* out,
                std::size_t* beyond) {
  if (v.empty()) return false;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  const std::size_t idx = std::min(k, v.size() - 1);
  *beyond = v.size() - idx - 1;
  if (*beyond < 10) return false;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  *out = v[idx];
  return true;
}

constexpr unsigned kRounds = 40;
constexpr unsigned kTracedRounds = 4;

// The untraced run: every series once per round, rotating which goes
// first, and each metric the median over rounds. wCQ's percentiles are
// taken per round, over that round's block samples, so a burst of host
// noise in one round moves one of forty values, not the pooled tail.
void run_untraced(const Ctx& base_ctx, double seconds, Report& rep,
                  Totals& tot, std::string& extra) {
  const auto series = end_to_end_series(*base_ctx.w);
  Ctx ctx = base_ctx;
  ctx.lim.window_s = seconds / (kRounds * series.size());
  std::map<std::string, std::vector<double>> mops, mem;
  std::vector<double> setup;
  const std::pair<const char*, double> kPercentiles[] = {{"wcq.p50_ns", 0.50},
                                                         {"wcq.p99_ns", 0.99}};
  std::vector<double> pct[2];
  std::size_t min_samples = SIZE_MAX, min_beyond[2] = {SIZE_MAX, SIZE_MAX};
  for (unsigned round = 0; round < kRounds; ++round) {
    double setup_round = 0;
    for (std::size_t k = 0; k < series.size(); ++k) {
      const Entry& e = series[(round + k) % series.size()];
      RunStats r = e.fn(ctx, e.opt, nullptr, nullptr);
      print_run(e.series, round, r);
      tot.add(r);
      setup_round += r.setup_s;
      mops[e.series].push_back(r.mops());
      mem[e.series].push_back(static_cast<double>(r.mem_peak) / 1e6);
      if (e.series != "wcq") continue;
      min_samples = std::min(min_samples, r.op_ns.size());
      for (int i = 0; i < 2; ++i) {
        double v = 0;
        std::size_t beyond = 0;
        if (percentile(r.op_ns, kPercentiles[i].second, &v, &beyond)) {
          pct[i].push_back(v);
        }
        min_beyond[i] = std::min(min_beyond[i], beyond);
      }
    }
    setup.push_back(setup_round);
  }
  rep.set("setup_s", median(setup), "s");
  for (const auto& e : series) {
    rep.set(e.series + ".mops", median(mops[e.series]), "Mops/s");
  }
  std::string samples;
  for (int i = 0; i < 2; ++i) {
    const char* name = kPercentiles[i].first;
    if (pct[i].size() == kRounds) {
      rep.set(name, median(pct[i]), "ns");
    } else {
      std::printf("omitted %s: a round had fewer than ten samples beyond it\n",
                  name);
    }
    std::printf(
        "%s: median of %u rounds, each over >= %zu samples of %u calls "
        "with >= %zu beyond\n",
        name, kRounds, min_samples, kBlockCalls, min_beyond[i]);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"rounds\": %u, \"min_samples_per_round\": "
                  "%zu, \"min_beyond_per_round\": %zu}",
                  samples.empty() ? "" : ", ", name, kRounds, min_samples,
                  min_beyond[i]);
    samples += buf;
  }
  for (const char* s : {"wcq", "lscq", "lcrq"}) {
    rep.set(std::string(s) + ".mem_peak_mb", median(mem[s]), "MB");
  }
  extra += ", \"percentile_samples\": {" + samples + "}";
}

double clock_cost_ns() {
  constexpr int kReads = 1 << 20;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReads; ++i) sink += now_ns();
  const std::uint64_t t1 = now_ns();
  if (sink == 0) std::printf("\n");  // keeps the reads
  return static_cast<double>(t1 - t0) / kReads;
}

void run_traced(const Ctx& base_ctx, double seconds, Report& rep, Totals& tot,
                Trace& trace, std::string& extra) {
  const auto groups = ladder(*base_ctx.w);
  std::size_t entries = 0;
  for (const auto& g : groups) entries += g.size();
  Ctx ctx = base_ctx;
  ctx.lim.window_s = seconds / (kTracedRounds * entries);

  const double clock_ns = clock_cost_ns();
  const std::uint32_t root = trace.open(base_ctx.w->name, 0);
  std::map<std::string, std::vector<RunStats>> runs;
  std::map<std::string, Probe> probes;
  for (unsigned round = 0; round < kTracedRounds; ++round) {
    for (std::size_t k = 0; k < groups.size(); ++k) {
      const auto& group = groups[(round + k) % groups.size()];
      const std::uint32_t series_span = trace.open(group[0].series, root);
      // Odd rounds climb the ladder top-down, so no rung always runs
      // first and the traced/untraced pair alternates its order.
      for (std::size_t j = 0; j < group.size(); ++j) {
        const Entry& e = group[round % 2 ? group.size() - 1 - j : j];
        const bool traced = e.rung.rfind("untraced.", 0) != 0;
        const std::uint32_t rung_span = trace.open(e.rung, series_span);
        const SpanSink sink{&trace, rung_span, trace.intern(e.rung)};
        RunStats r =
            e.fn(ctx, e.opt, traced ? &sink : nullptr, &probes[e.rung]);
        trace.close(rung_span);
        print_run(e.rung, round, r);
        tot.add(r);
        runs[e.rung].push_back(std::move(r));
      }
      trace.close(series_span);
    }
  }
  trace.close(root);

  // Per-rung service time from the block spans: summed span time over
  // the calls they cover, pooled over rounds.
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> by_name;
  for (const Span& s : trace.spans) {
    if (s.calls == 0) continue;
    by_name[s.name].first += s.end - s.start;
    by_name[s.name].second += s.calls;
  }
  auto ns_per_op = [&](const std::string& rung) {
    const auto& [ns, calls] = by_name[trace.intern(rung)];
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  };
  auto sum = [&](const std::string& rung, auto field) {
    double s = 0;
    for (const RunStats& r : runs[rung]) s += static_cast<double>(field(r));
    return s;
  };
  auto per_1k = [](double num, double den) {
    return den > 0 ? num * 1e3 / den : 0.0;
  };
  auto mops = [&](const std::string& rung) {
    std::vector<double> v;
    for (const RunStats& r : runs[rung]) v.push_back(r.mops());
    return median(v);
  };
  auto calls = [](const RunStats& r) { return r.tally.calls(); };

  const double ring_plain = ns_per_op("ring.plain");
  const double ring_noted = ns_per_op("ring.noted");
  rep.set("ring.plain.ns_per_op", ring_plain, "ns");
  rep.set("ring.noted.ns_per_op", ring_noted, "ns");
  rep.set("ring.noted.noremap.ns_per_op", ns_per_op("ring.noted.noremap"),
          "ns");
  rep.set("ring.noted.contended_per_1k",
          per_1k(sum("ring.noted", [](const RunStats& r) { return r.contended; }),
                 sum("ring.noted", calls)),
          "count");

  const char* kBackends[] = {"wcq", "scq", "lscq", "lcrq"};
  for (const char* s : kBackends) {
    rep.set(std::string("backend.") + s + ".ns_per_op",
            ns_per_op(std::string("backend.") + s), "ns");
  }
  rep.set("backend.wcq.self_ns", ns_per_op("backend.wcq") - ring_noted, "ns");
  const Probe& wp = probes["facade.wcq"];
  rep.set("helping.wcq.slow_per_1k",
          per_1k(static_cast<double>(wp.slow_ops),
                 static_cast<double>(wp.queue_ops)),
          "count");
  rep.set("helping.wcq.helps_per_1k",
          per_1k(static_cast<double>(wp.helps),
                 static_cast<double>(wp.queue_ops)),
          "count");
  for (const char* s : kBackends) {
    const std::string f = std::string("facade.") + s;
    rep.set(f + ".ns_per_op", ns_per_op(f), "ns");
  }
  for (const char* s : kBackends) {
    const std::string f = std::string("facade.") + s;
    rep.set(f + ".self_ns",
            ns_per_op(f) - ns_per_op(std::string("backend.") + s), "ns");
  }
  rep.set("sharded.s1.ns_per_op", ns_per_op("sharded.s1"), "ns");
  rep.set("sharded.s4.ns_per_op", ns_per_op("sharded.s4"), "ns");
  rep.set("sharded.self_ns",
          ns_per_op("sharded.s1") - ns_per_op("facade.wcq"), "ns");

  // The user-facing rung of each series.
  const std::pair<const char*, const char*> kFace[] = {
      {"wcq", "facade.wcq"},   {"scq", "facade.scq"},
      {"lscq", "facade.lscq"}, {"lcrq", "facade.lcrq"},
      {"wcq-shard", "sharded.s4"}};
  for (const auto& [s, rung] : kFace) {
    rep.set(std::string(s) + ".refused_push_per_1k",
            per_1k(sum(rung, [](const RunStats& r) { return r.tally.refused; }),
                   sum(rung,
                       [](const RunStats& r) { return r.tally.push_calls; })),
            "count");
    rep.set(std::string(s) + ".empty_pop_per_1k",
            per_1k(sum(rung, [](const RunStats& r) { return r.tally.empty; }),
                   sum(rung,
                       [](const RunStats& r) { return r.tally.pop_calls; })),
            "count");
  }
  for (const char* s : {"lscq", "lcrq"}) {
    const std::string rung = std::string("facade.") + s;
    const Probe& p = probes[rung];
    // The probe holds the last round's cumulative counters, so rate
    // them against that round's calls.
    const double useful =
        static_cast<double>(runs[rung].back().tally.useful());
    const std::string m = std::string("smr.") + s;
    rep.set(m + ".retire_per_1k",
            per_1k(static_cast<double>(p.retire_calls), useful), "count");
    rep.set(m + ".reclaim_per_1k",
            per_1k(static_cast<double>(p.reclaimed), useful), "count");
    rep.set(m + ".scans_per_1k", per_1k(static_cast<double>(p.scans), useful),
            "count");
    rep.set(m + ".parked_max", static_cast<double>(p.parked_max), "count");
  }
  for (const auto& [s, rung] : kFace) {
    rep.set(std::string("mem.") + s + ".allocs_per_1k",
            per_1k(sum(rung,
                       [](const RunStats& r) { return r.allocs_after_setup; }),
                   sum(rung,
                       [](const RunStats& r) { return r.window.useful(); })),
            "count");
  }
  for (const auto& [s, rung] : kFace) {
    std::vector<double> reg, ctor;
    for (const RunStats& r : runs[rung]) {
      reg.push_back(r.register_ns);
      ctor.push_back(r.ctor_s);
    }
    rep.set(std::string("handle.") + s + ".register_ns", median(reg), "ns");
    rep.set(std::string("setup.") + s + ".ctor_s", median(ctor), "s");
  }
  rep.set("harness.clock_ns", clock_ns, "ns");
  rep.set("harness.loop_ns", ns_per_op("harness.loop"), "ns");
  double overhead = 0;
  for (const auto& [s, rung] : kFace) {
    const double plain = mops(std::string("untraced.") + s);
    overhead += plain > 0 ? (plain - mops(rung)) / plain * 100.0 : 0.0;
  }
  rep.set("trace.overhead_pct", overhead / std::size(kFace), "%");

  // Where the wCQ/SCQ gap sits, by layer (ns per call).
  const double ring_gap = ring_noted - ring_plain;
  const double backend_gap = (ns_per_op("backend.wcq") - ring_noted) -
                             (ns_per_op("backend.scq") - ring_plain);
  const double facade_gap =
      (ns_per_op("facade.wcq") - ns_per_op("backend.wcq")) -
      (ns_per_op("facade.scq") - ns_per_op("backend.scq"));
  const double total_gap = ns_per_op("facade.wcq") - ns_per_op("facade.scq");
  std::printf(
      "wcq-scq gap %.2f ns/call = ring entries %.2f + backend bookkeeping "
      "%.2f + facade %.2f\n",
      total_gap, ring_gap, backend_gap, facade_gap);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ", \"wcq_scq_gap_ns\": {\"total\": %.17g, \"ring_entries\": "
                "%.17g, \"backend\": %.17g, \"facade\": %.17g}",
                total_gap, ring_gap, backend_gap, facade_gap);
  extra += buf;
}

void write_spans(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,parent,name,thread,start_ns,end_ns,calls\n";
  for (const Span& s : trace.spans) {
    out << s.id << ',' << s.parent << ',' << trace.names[s.name] << ','
        << s.thread << ',' << s.start << ',' << s.end << ',' << s.calls
        << '\n';
  }
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

int usage() {
  std::fprintf(stderr,
               "usage: wcqbench --workload <pairwise-1t|burst-4t|backlog-4t> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <csv>]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  const char* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int traced = -1;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      traced = std::atoi(v);
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  const Workload* w = workload ? find_workload(workload) : nullptr;
  if (w == nullptr || !(seconds > 0) || (traced != 0 && traced != 1) ||
      argc % 2 == 0) {
    return usage();
  }

  const Codec codec(seed);
  const Ctx ctx{w, &codec, seed, Limits{}};
  std::string extra;
  {
    std::string opts;
    for (const auto& e : end_to_end_series(*w)) {
      opts += (opts.empty() ? "\"" : ", \"") + e.series +
              "\": " + options_json(e.opt);
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ", \"provenance\": {\"compiler\": \"%s\", \"build_type\": "
                  "\"%s\", \"nproc\": %u, \"allowed_cpus\": %zu, \"seed\": "
                  "%llu, \"threads\": %u, \"seconds\": %.17g, \"trace\": %d, ",
                  kCompiler, PERFBENCH_BUILD_TYPE,
                  std::thread::hardware_concurrency(), allowed_cpus().size(),
                  static_cast<unsigned long long>(seed), w->threads, seconds,
                  traced);
    extra += buf + std::string("\"options\": {") + opts + "}}";
  }
  std::printf("workload %s  seed %llu  threads %u  seconds %g  trace %d\n",
              w->name, static_cast<unsigned long long>(seed), w->threads,
              seconds, traced);

  Report rep;
  Totals tot;
  if (traced) {
    Trace trace;
    run_traced(ctx, seconds, rep, tot, trace, extra);
    if (!trace_out.empty()) write_spans(trace, trace_out);
  } else {
    run_untraced(ctx, seconds, rep, tot, extra);
  }
  rep.print();
  std::printf("attempted %llu  failed %llu (%.3g of attempted)\n",
              static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.failed),
              tot.attempted ? static_cast<double>(tot.failed) /
                                  static_cast<double>(tot.attempted)
                            : 0.0);
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
              "%llu, \"metrics\": %s%s}\n",
              tot.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tot.attempted),
              static_cast<unsigned long long>(tot.failed), rep.json().c_str(),
              extra.c_str());
  return tot.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A fixed threshold keeps glibc from raising it after the first large
  // free, so every round's rings are fresh mappings rather than the same
  // recycled heap pages: page placement then varies from round to round,
  // where the median absorbs it, not from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wcqbench: %s\n", e.what());
    return 3;
  }
}
