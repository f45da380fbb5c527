// End-to-end pipeline throughput: the batch execution path (DESIGN.md §11)
// against per-tuple delivery on a realistic operator chain.
//
//   source -> selection (keep half) -> projection (identity)
//          -> map (rewrite attr 0)
//          -> tumbling aggregate (sum, 10 ms windows) -> counting sink
//
// Under kGts every non-sink operator sits behind a decoupling queue, so
// one element crosses four queues; kOts runs the same queues with one
// worker thread each (4 threads). Scenarios cross {gts_1t, ots_4t} x {small, string
// payloads} x {per-tuple, emit_batch_size 1, emit_batch_size 64}:
//
//   per_tuple : default EngineOptions — every hop is one virtual
//               Receive + one queue element + one notify check.
//   batch1    : emit_batch_size = 1. Must be indistinguishable from
//               per_tuple (the engine keeps the per-tuple path), guarding
//               against the batch plumbing taxing the default path.
//   batch64   : sources bundle 64 elements per TupleBatch and queues
//               deliver each drained run as one ReceiveBatch call.
//   batch64_col : EngineOptions::columnar (DESIGN.md §17) — sources
//               scatter 64 elements into typed ColumnarBatches, the
//               selection/map run as typed column kernels, and queues box
//               whole batches; no per-tuple Value vectors on the hot path.
//
// Input tuples are materialized before the clock starts; the stopwatch
// covers feeding through WaitUntilFinished, so it measures transfer +
// operator work, not tuple construction. One sample of a variant is as
// many back-to-back runs as it takes for the timed parts to add up to
// 250 ms, so the fast columnar variants are measured over as much wall
// time as the slow per-tuple ones without holding millions of input
// tuples in memory. Reported per variant: the median tuples/s over the
// reps, with min and max. Results go to stdout and BENCH_pipeline.json
// (override with --out <path>) with a provenance block.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "bench_smoke.h"
#include "graph/query_graph.h"
#include "operators/map_op.h"
#include "operators/projection.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/tumbling_aggregate.h"
#include "provenance.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/table.h"

namespace flexstream {
namespace {

struct Pipeline {
  QueryGraph graph;
  Source* src = nullptr;
  CountingSink* sink = nullptr;
};

void BuildPipeline(Pipeline* p, bool string_payload) {
  QueryBuilder qb(&p->graph);
  p->src = qb.AddSource("src");
  // Typed-column forms: identical answers on the row path (synthesized
  // row wrappers), vectorized kernels when the engine runs columnar.
  p->src->DeclareOutputSchema(
      string_payload ? MakeSchema({Value::Type::kInt64, Value::Type::kString})
                     : MakeSchema({Value::Type::kInt64}));
  Node* sel = qb.Select(p->src, "sel",
                        Int64ColumnPredicate{
                            0, [](int64_t v) { return v % 2 == 0; }});
  Node* proj = qb.Project(sel, "proj", {});
  Node* map = qb.Map(proj, "map",
                     Int64ColumnMap{0, [](int64_t v) { return v + 1; }});
  TumblingAggregate::Options agg;
  agg.kind = AggregateKind::kSum;
  agg.value_attr = 0;
  agg.window_micros = 10'000;
  Node* sum = qb.Tumbling(map, "agg", agg);
  p->sink = qb.CountSink(sum, "out");
}

std::vector<Tuple> MakeInput(bool string_payload, int64_t total) {
  std::vector<Tuple> input;
  input.reserve(total);
  for (int64_t i = 0; i < total; ++i) {
    if (string_payload) {
      input.push_back(Tuple({Value(i), Value(std::string("payload-") +
                                            std::to_string(i % 97) +
                                            "-0123456789abcdef")},
                            i));
    } else {
      input.push_back(Tuple::OfInt(i, i));
    }
  }
  return input;
}

struct RunResult {
  std::string scenario;
  std::string mode;
  std::string payload;
  size_t emit_batch_size = 0;  // 0 = per-tuple baseline (default options)
  bool columnar = false;
  size_t threads = 0;
  int64_t tuples = 0;      // fed per run
  int64_t sink_count = 0;  // per run
  double seconds = 0.0;    // timed, summed over a sample's runs
  double tuples_per_sec = 0.0;
};

RunResult RunOnce(ExecutionMode mode, bool string_payload,
                  size_t emit_batch_size, bool columnar, int64_t total) {
  Pipeline p;
  BuildPipeline(&p, string_payload);
  std::vector<Tuple> input = MakeInput(string_payload, total);

  StreamEngine engine(&p.graph);
  EngineOptions options;
  options.mode = mode;
  if (emit_batch_size > 0) options.emit_batch_size = emit_batch_size;
  options.columnar = columnar;
  CHECK_OK(engine.Configure(options));

  Stopwatch sw;
  CHECK_OK(engine.Start());
  for (Tuple& tuple : input) p.src->Push(std::move(tuple));
  p.src->Close(total);
  CHECK(engine.WaitUntilFinishedFor(std::chrono::seconds(300)));
  CHECK_OK(engine.RunResult());
  const double seconds = sw.ElapsedSeconds();
  const size_t threads = engine.WorkerThreadCount();
  engine.Stop();

  RunResult r;
  r.mode = ExecutionModeToString(mode);
  r.payload = string_payload ? "string" : "small";
  r.emit_batch_size = emit_batch_size;
  r.columnar = columnar;
  r.scenario = r.mode + "_" + std::to_string(threads) + "t_" + r.payload +
               (emit_batch_size == 0
                    ? "_per_tuple"
                    : "_batch" + std::to_string(emit_batch_size)) +
               (columnar ? "_col" : "");
  r.threads = threads;
  r.tuples = total;
  r.sink_count = p.sink->count();
  r.seconds = seconds;
  r.tuples_per_sec = static_cast<double>(total) / seconds;
  return r;
}

/// One sample: back-to-back runs until their timed parts add up to
/// `min_seconds`; the rate is every fed tuple over the summed time.
RunResult Sample(ExecutionMode mode, bool string_payload,
                 size_t emit_batch_size, bool columnar, int64_t total,
                 double min_seconds) {
  RunResult sample =
      RunOnce(mode, string_payload, emit_batch_size, columnar, total);
  int64_t fed = total;
  while (sample.seconds < min_seconds) {
    const RunResult r =
        RunOnce(mode, string_payload, emit_batch_size, columnar, total);
    CHECK(r.sink_count == sample.sink_count)
        << r.scenario << ": nondeterministic sink count";
    fed += total;
    sample.seconds += r.seconds;
  }
  sample.tuples_per_sec = static_cast<double>(fed) / sample.seconds;
  return sample;
}

/// A variant's samples: the median one (its row in the report) and the
/// spread of their rates.
struct Summary {
  RunResult median;
  double min_tuples_per_sec = 0.0;
  double max_tuples_per_sec = 0.0;
};

Summary Summarize(std::vector<RunResult> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.tuples_per_sec < b.tuples_per_sec;
            });
  return {samples[samples.size() / 2], samples.front().tuples_per_sec,
          samples.back().tuples_per_sec};
}

void WriteJson(const std::vector<Summary>& results, int reps,
               double min_seconds,
               const std::vector<std::pair<std::string, double>>& ratios,
               const std::string& path) {
  std::ofstream out(path);
  CHECK(out.good()) << "cannot write " << path;
  out << "{\n  \"bench\": \"pipeline_throughput\",\n"
      << "  \"provenance\": " << bench::ProvenanceJson() << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"min_sample_seconds\": " << min_seconds << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i].median;
    out << "    {\"scenario\": \"" << r.scenario << "\", \"mode\": \""
        << r.mode << "\", \"payload\": \"" << r.payload
        << "\", \"emit_batch_size\": " << r.emit_batch_size
        << ", \"columnar\": " << (r.columnar ? 1 : 0)
        << ", \"threads\": " << r.threads << ", \"tuples\": " << r.tuples
        << ", \"sink_count\": " << r.sink_count
        << ", \"seconds\": " << r.seconds << ", \"tuples_per_sec\": "
        << static_cast<int64_t>(r.tuples_per_sec)
        << ", \"tuples_per_sec_min\": "
        << static_cast<int64_t>(results[i].min_tuples_per_sec)
        << ", \"tuples_per_sec_max\": "
        << static_cast<int64_t>(results[i].max_tuples_per_sec) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ratios\": {\n";
  for (size_t i = 0; i < ratios.size(); ++i) {
    out << "    \"" << ratios[i].first << "\": "
        << Table::Num(ratios[i].second, 2)
        << (i + 1 < ratios.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::cout << "wrote " << path << "\n";
}

int Main(int argc, char** argv) {
  int64_t small_count = bench::SmokeScaled<int64_t>(1'000'000, 40'000);
  int64_t string_count = bench::SmokeScaled<int64_t>(300'000, 20'000);
  int reps = bench::SmokeScaled(5, 1);
  double min_seconds = bench::SmokeScaled(0.25, 0.0);
  std::string out_path = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      small_count = 40'000;
      string_count = 20'000;
      reps = 1;
      min_seconds = 0.0;
    } else if (arg == "--count" && i + 1 < argc) {
      small_count = std::stoll(argv[++i]);
      string_count = small_count / 3;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick] [--count <n>] [--reps <n>] [--out <path>]\n";
      return 1;
    }
  }

  // The bench measures the delivery path, not the stats clock.
  SetStatsCollectionEnabled(false);

  // The delivery variants of one scenario are interleaved rep by rep, so
  // drifting background load on a shared box hits all variants alike.
  std::vector<Summary> results;
  auto run_scenario = [&](ExecutionMode mode, bool string_payload,
                          int64_t total) {
    struct Variant {
      size_t batch;
      bool columnar;
    };
    const std::vector<Variant> variants = {
        {0, false}, {1, false}, {64, false}, {64, true}};
    std::vector<std::vector<RunResult>> samples(variants.size());
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t v = 0; v < variants.size(); ++v) {
        samples[v].push_back(Sample(mode, string_payload, variants[v].batch,
                                    variants[v].columnar, total,
                                    min_seconds));
      }
    }
    // Identical input through identical windows: every sample of every
    // variant must agree on the aggregate count (batching never changes
    // semantics).
    for (const std::vector<RunResult>& variant : samples) {
      for (const RunResult& r : variant) {
        CHECK(r.sink_count == samples[0][0].sink_count)
            << r.scenario << " vs " << samples[0][0].scenario;
      }
      results.push_back(Summarize(variant));
    }
  };

  for (const bool string_payload : {false, true}) {
    const int64_t total = string_payload ? string_count : small_count;
    run_scenario(ExecutionMode::kGts, string_payload, total);
    run_scenario(ExecutionMode::kOts, string_payload, total);
  }

  Table t({"scenario", "payload", "batch", "col", "threads", "tuples/run",
           "sample_s", "tuples_per_sec", "min", "max"});
  for (const Summary& summary : results) {
    const RunResult& r = summary.median;
    t.AddRow({r.scenario, r.payload, Table::Int(r.emit_batch_size),
              r.columnar ? "yes" : "no",
              Table::Int(r.threads), Table::Int(r.tuples),
              Table::Num(r.seconds, 3),
              Table::Int(static_cast<int64_t>(r.tuples_per_sec)),
              Table::Int(static_cast<int64_t>(summary.min_tuples_per_sec)),
              Table::Int(static_cast<int64_t>(summary.max_tuples_per_sec))});
  }
  t.Print(std::cout);

  auto rate_of = [&](const std::string& scenario) {
    for (const Summary& summary : results) {
      if (summary.median.scenario == scenario) {
        return summary.median.tuples_per_sec;
      }
    }
    CHECK(false) << "missing scenario " << scenario;
    return 0.0;
  };
  const std::vector<std::pair<std::string, double>> ratios = {
      {"batch64_vs_per_tuple_small_1t",
       rate_of("gts_1t_small_batch64") / rate_of("gts_1t_small_per_tuple")},
      {"batch1_vs_per_tuple_small_1t",
       rate_of("gts_1t_small_batch1") / rate_of("gts_1t_small_per_tuple")},
      {"batch64_vs_per_tuple_string_1t",
       rate_of("gts_1t_string_batch64") / rate_of("gts_1t_string_per_tuple")},
      {"batch64_vs_per_tuple_small_4t",
       rate_of("ots_4t_small_batch64") / rate_of("ots_4t_small_per_tuple")},
      {"batch64_vs_per_tuple_string_4t",
       rate_of("ots_4t_string_batch64") / rate_of("ots_4t_string_per_tuple")},
      // Columnar vs the row-wise batch path at the same batch size — the
      // representation win alone (DESIGN.md §17 targets: >= 2x small,
      // >= 1.5x string on the 1-thread chain).
      {"columnar64_vs_batch64_small_1t",
       rate_of("gts_1t_small_batch64_col") / rate_of("gts_1t_small_batch64")},
      {"columnar64_vs_batch64_string_1t",
       rate_of("gts_1t_string_batch64_col") /
           rate_of("gts_1t_string_batch64")},
      {"columnar64_vs_batch64_small_4t",
       rate_of("ots_4t_small_batch64_col") / rate_of("ots_4t_small_batch64")},
      {"columnar64_vs_batch64_string_4t",
       rate_of("ots_4t_string_batch64_col") /
           rate_of("ots_4t_string_batch64")},
      {"columnar64_vs_per_tuple_small_1t",
       rate_of("gts_1t_small_batch64_col") /
           rate_of("gts_1t_small_per_tuple")},
  };
  std::cout << "\n-- throughput ratios --\n";
  for (const auto& [name, value] : ratios) {
    std::cout << "  " << name << ": " << Table::Num(value, 2) << "x\n";
  }

  WriteJson(results, reps, min_seconds, ratios, out_path);
  return 0;
}

}  // namespace
}  // namespace flexstream

int main(int argc, char** argv) { return flexstream::Main(argc, argv); }
