// Checkpoint/recovery cost (ISSUE 4): what does arming epoch-based
// checkpointing cost a healthy run, and how long does a kill -> rewind ->
// replay -> resume cycle take?
//
// Scenarios (shared pipeline: src -> select -> sliding-window aggregate ->
// counting sink; the aggregate emits one output per input and its window
// keeps state bounded, so per-epoch snapshot cost reflects steady-state
// operator state, not an artificially unbounded accumulation):
//   checkpoint_off : baseline run, checkpoint_epoch_interval = 0.
//   checkpoint_on  : identical run with epoch barriers every 100 and every
//                    1000 elements (snapshots + replay-buffer recording
//                    on) — the overhead/recovery-granularity trade-off.
//   kill_recover   : checkpointing on, the selection operator is killed
//                    mid-run by the chaos injector; the engine recovers
//                    from the last committed epoch and the run completes.
// The two healthy scenarios run on three delivery axes — per-tuple, row
// batch64 and columnar batch64 — because checkpointing must not switch the
// batch paths off: its overhead is reported per axis, against that axis's
// own checkpoint_off baseline.
//
// Reported: per axis, median wall time over the reps (with min and max)
// for the healthy scenarios and overhead_pct = on vs off; for the kill run
// (per-tuple) the engine's measured pause->restore->replay->resume latency
// plus replay accounting. Results go to stdout and BENCH_recovery.json
// (override with --out <path>) together with their provenance: git sha,
// core count, compiler and build type. It writes one "runs" row per axis
// and interval (seconds with min/max, tuples/s, overhead), the layout
// bench/ab_pairs.py compares across builds.

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/aggregate.h"
#include "recovery/recovery_manager.h"
#include "testing/chaos.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/table.h"

#include "bench_smoke.h"
#include "provenance.h"

namespace flexstream {
namespace {

const int64_t kFeedPerSource = bench::SmokeScaled<int64_t>(50'000, 10'000);
constexpr uint64_t kEpochInterval = 100;
const int kReps = bench::SmokeScaled(11, 2);
constexpr auto kWait = std::chrono::seconds(120);

struct Pipeline {
  std::unique_ptr<QueryGraph> graph;
  Source* source = nullptr;
  CountingSink* sink = nullptr;
};

Pipeline BuildPipeline() {
  Pipeline p;
  p.graph = std::make_unique<QueryGraph>();
  QueryBuilder qb(p.graph.get());
  p.source = qb.AddSource("src");
  Selection* sel =
      qb.Select(p.source, "sel", [](const Tuple&) { return true; });
  WindowedAggregate::Options agg;
  agg.kind = AggregateKind::kSum;
  agg.value_attr = 0;
  agg.window_micros = 1'000;  // ~1000 elements of state at 1 us spacing
  p.sink = qb.CountSink(qb.Aggregate(sel, "agg", agg), "sink");
  return p;
}

void Feed(const Pipeline& p) {
  for (int64_t i = 0; i < kFeedPerSource; ++i) {
    p.source->Push(Tuple::OfInt(i % 97, i + 1));
  }
  p.source->Close(kFeedPerSource);
}

struct HealthyResult {
  double seconds = 0.0;
  uint64_t epochs_committed = 0;
};

/// One delivery configuration of the healthy scenarios.
struct Axis {
  const char* name;
  size_t emit_batch_size;
  bool columnar;
};

constexpr std::array<Axis, 3> kAxes = {{
    {"per_tuple", 1, false},
    {"batch64", 64, false},
    {"columnar", 64, true},
}};

HealthyResult RunHealthy(const Axis& axis, uint64_t epoch_interval) {
  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.emit_batch_size = axis.emit_batch_size;
  options.columnar = axis.columnar;
  options.checkpoint_epoch_interval = epoch_interval;
  CHECK_OK(engine.Configure(options));

  Stopwatch sw;
  CHECK_OK(engine.Start());
  Feed(p);
  CHECK(engine.WaitUntilFinishedFor(kWait));
  const double seconds = sw.ElapsedSeconds();
  CHECK_OK(engine.RunResult());
  CHECK(p.sink->count() == kFeedPerSource);

  HealthyResult r;
  r.seconds = seconds;
  if (engine.recovery() != nullptr) {
    r.epochs_committed =
        static_cast<uint64_t>(engine.recovery()->coordinator().epochs_committed());
  }
  return r;
}

struct KillResult {
  double seconds = 0.0;
  int64_t recovery_latency_micros = 0;
  int64_t replayed_elements = 0;
  uint64_t committed_epoch_end_of_run = 0;
};

KillResult RunKill() {
  Pipeline p = BuildPipeline();
  StreamEngine engine(p.graph.get());
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = kEpochInterval;
  CHECK_OK(engine.Configure(options));

  ChaosOptions chaos_options;
  chaos_options.kill_operator = "sel";
  chaos_options.kill_after = kFeedPerSource / 2;
  ChaosInjector chaos(chaos_options);
  chaos.Arm(p.graph.get(), engine.queues());

  Stopwatch sw;
  CHECK_OK(engine.Start());
  Feed(p);
  CHECK(engine.WaitUntilFinishedFor(kWait));
  const double seconds = sw.ElapsedSeconds();
  CHECK_OK(engine.RunResult());
  CHECK(chaos.permanent_injections() == 1);
  CHECK(engine.recovery() != nullptr);
  CHECK(engine.recovery()->completed_recoveries() == 1);
  CHECK(p.sink->count() == kFeedPerSource);

  KillResult r;
  r.seconds = seconds;
  r.recovery_latency_micros = engine.recovery()->last_recovery_latency_micros();
  r.replayed_elements = engine.recovery()->replayed_elements();
  r.committed_epoch_end_of_run = engine.recovery()->coordinator().committed_epoch();
  return r;
}

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Median with the spread of the reps it summarizes.
struct Summary {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Summary Summarize(const std::vector<double>& xs) {
  return {Median(xs), *std::min_element(xs.begin(), xs.end()),
          *std::max_element(xs.begin(), xs.end())};
}

/// The seconds summary as row fields: the median, then its range.
std::string JsonSeconds(const Summary& s) {
  return "\"seconds\": " + std::to_string(s.median) +
         ", \"seconds_min\": " + std::to_string(s.min) +
         ", \"seconds_max\": " + std::to_string(s.max);
}

}  // namespace
}  // namespace flexstream

int main(int argc, char** argv) {
  using namespace flexstream;

  std::string out_path = "BENCH_recovery.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }

  const std::vector<uint64_t> intervals = {kEpochInterval, 10 * kEpochInterval};
  struct AxisResult {
    std::vector<double> off_secs;
    std::vector<std::vector<double>> on_secs;
    std::vector<uint64_t> epochs_committed;
    Summary off;
    std::vector<Summary> on;
    std::vector<double> overhead_pct;
  };
  std::vector<AxisResult> results(kAxes.size());
  for (AxisResult& r : results) {
    r.on_secs.resize(intervals.size());
    r.epochs_committed.assign(intervals.size(), 0);
  }
  // Interleaved: every rep runs every axis and interval once, so a noisy
  // stretch on a shared host lands on all scenarios alike.
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t a = 0; a < kAxes.size(); ++a) {
      AxisResult& r = results[a];
      r.off_secs.push_back(RunHealthy(kAxes[a], 0).seconds);
      for (size_t k = 0; k < intervals.size(); ++k) {
        const HealthyResult on = RunHealthy(kAxes[a], intervals[k]);
        r.on_secs[k].push_back(on.seconds);
        r.epochs_committed[k] = on.epochs_committed;
      }
    }
  }
  for (AxisResult& r : results) {
    r.off = Summarize(r.off_secs);
    for (size_t k = 0; k < intervals.size(); ++k) {
      r.on.push_back(Summarize(r.on_secs[k]));
      r.overhead_pct.push_back(100.0 * (r.on[k].median - r.off.median) /
                               r.off.median);
    }
  }

  const KillResult kill = RunKill();

  Table table({"scenario", "seconds", "tuples_per_sec", "notes"});
  const double tuples = static_cast<double>(kFeedPerSource);
  for (size_t a = 0; a < kAxes.size(); ++a) {
    const AxisResult& r = results[a];
    const std::string axis = kAxes[a].name;
    table.AddRow({axis + " checkpoint_off", Table::Num(r.off.median, 4),
                  Table::Num(tuples / r.off.median, 0), "epoch interval 0"});
    for (size_t k = 0; k < intervals.size(); ++k) {
      table.AddRow({axis + " checkpoint_on_" + std::to_string(intervals[k]),
                    Table::Num(r.on[k].median, 4),
                    Table::Num(tuples / r.on[k].median, 0),
                    "interval " + std::to_string(intervals[k]) + ", " +
                        std::to_string(r.epochs_committed[k]) +
                        " epochs committed, overhead " +
                        Table::Num(r.overhead_pct[k], 1) + "%"});
    }
  }
  table.AddRow({"kill_recover", Table::Num(kill.seconds, 4),
                Table::Num(tuples / kill.seconds, 0),
                "recovery " +
                    std::to_string(kill.recovery_latency_micros) + " us, " +
                    std::to_string(kill.replayed_elements) + " replayed"});
  table.Print(std::cout);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"recovery\",\n"
      << "  \"provenance\": " << bench::ProvenanceJson() << ",\n"
      << "  \"feed_per_source\": " << kFeedPerSource << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"runs\": [\n";
  // One flat row per axis and variant: what bench/ab_pairs.py compares
  // across two builds (rows match by their string fields).
  for (size_t a = 0; a < kAxes.size(); ++a) {
    const AxisResult& r = results[a];
    out << "    {\"axis\": \"" << kAxes[a].name
        << "\", \"variant\": \"checkpoint_off\", " << JsonSeconds(r.off)
        << ", \"tuples_per_sec\": " << tuples / r.off.median << "},\n";
    for (size_t k = 0; k < intervals.size(); ++k) {
      out << "    {\"axis\": \"" << kAxes[a].name
          << "\", \"variant\": \"checkpoint_on_" << intervals[k] << "\", "
          << JsonSeconds(r.on[k])
          << ", \"tuples_per_sec\": " << tuples / r.on[k].median
          << ", \"overhead_pct\": " << r.overhead_pct[k]
          << ", \"epochs_committed\": " << r.epochs_committed[k] << "}"
          << (a + 1 < kAxes.size() || k + 1 < intervals.size() ? "," : "")
          << "\n";
    }
  }
  out << "  ],\n"
      << "  \"kill_recover\": {\n"
      << "    \"total_seconds\": " << kill.seconds << ",\n"
      << "    \"recovery_latency_micros\": " << kill.recovery_latency_micros
      << ",\n"
      << "    \"replayed_elements\": " << kill.replayed_elements << ",\n"
      << "    \"committed_epoch_end_of_run\": "
      << kill.committed_epoch_end_of_run << "\n"
      << "  }\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
