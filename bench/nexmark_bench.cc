// NEXMark-style macro benchmark — production-shaped queries with
// tail-latency truth (ROADMAP item 5, DESIGN.md §14).
//
// Runs the four canonical auction queries of src/workload/nexmark.h
// (currency map, filtered selection, hot-items grouped aggregate,
// auction×bid windowed join) against live Poisson-paced sources across
// the scheduling architectures (GTS / OTS / HMTS), the batch execution
// path (emit_batch_size 1 vs 64), and — for the stateful queries — the
// key-partitioned shard axis (1 vs 4 replicas). Every run measures
// end-to-end latency through a LatencySink reading the source's emit
// stamp, and reports p50/p95/p99/p999/max, not means: tail percentiles
// are where head-of-line blocking (GTS) and queue buildup actually show.
//
// A final section replays the filter query on the virtual-time simulator
// (src/sim) at paper scale: the filter node's selectivity is set to the
// *measured* survivor fraction of a pregenerated bid stream, which makes
// the simulator's fractional-credit result count agree exactly with the
// real engine's — checked here, asserted in tests/harness/.
//
// A batching-latency summary sets batch 64 against batch 1 (ots-b64 vs
// ots-b1 p50, per query) against ROADMAP item 5's "within 2x" target: the
// sources' kBatchLinger bound is what keeps a 64-element batch from
// waiting for 63 more elements at 20k bids/s.
//
// Results go to stdout and BENCH_nexmark.json (override: --out <path>).

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/query_builder.h"
#include "api/shard.h"
#include "api/stream_engine.h"
#include "sim/simulator.h"
#include "stats/report.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/table.h"
#include "workload/nexmark.h"
#include "workload/rate_source.h"

#include "bench_smoke.h"

namespace flexstream {
namespace {

const int64_t kBids = bench::SmokeScaled<int64_t>(40'000, 2'000);
const double kBidRate = bench::SmokeScaled(20'000.0, 10'000.0);
// Auctions arrive at a tenth of the bid rate; the round-robin id
// assignment covers the whole auction domain within the run.
const int64_t kAuctions = kBids / 10;
const double kAuctionRate = kBidRate / 10.0;
// Join window in application time: bids match auctions opened within the
// preceding 50 ms of stream time.
constexpr AppTime kJoinWindowMicros = 50'000;
constexpr auto kWait = std::chrono::minutes(5);

enum class Query { kCurrency, kFilter, kHotItems, kJoin };

const char* QueryName(Query q) {
  switch (q) {
    case Query::kCurrency: return "currency";
    case Query::kFilter: return "filter";
    case Query::kHotItems: return "hot_items";
    case Query::kJoin: return "join";
  }
  return "?";
}

struct BenchRow {
  std::string query;
  std::string config;
  size_t batch = 1;
  size_t shards = 1;
  bool columnar = false;
  double seconds = 0.0;
  int64_t results = 0;
  Histogram lat;
};

BenchRow RunOne(Query query, const std::string& config_name,
                ExecutionMode mode, StrategyKind strategy, size_t batch,
                size_t shards, bool columnar) {
  QueryGraph graph;
  const TimePoint epoch = Now();
  nexmark::NexmarkConfig cfg;
  nexmark::QueryOptions qopt;
  qopt.epoch = epoch;
  nexmark::QueryHandle h;
  switch (query) {
    case Query::kCurrency:
      h = nexmark::BuildCurrencyQuery(&graph, cfg, qopt);
      break;
    case Query::kFilter:
      h = nexmark::BuildFilterQuery(&graph, cfg, qopt);
      break;
    case Query::kHotItems:
      h = nexmark::BuildHotItemsQuery(&graph, cfg, qopt);
      break;
    case Query::kJoin:
      h = nexmark::BuildAuctionJoinQuery(&graph, cfg, qopt,
                                         kJoinWindowMicros);
      break;
  }
  h.bids->SetInterarrivalMicros(1e6 / kBidRate);
  if (h.auctions != nullptr) {
    h.auctions->SetInterarrivalMicros(1e6 / kAuctionRate);
  }
  if (shards > 1) {
    CHECK(h.shardable != nullptr) << "query has no shardable operator";
    ShardOptions so;
    so.shards = shards;
    // Multi-input operators (the join) cannot use the ordered merge.
    so.ordered = (query != Query::kJoin);
    CHECK_OK(ShardOperator(&graph, h.shardable, so).status());
  }

  StreamEngine engine(&graph);
  EngineOptions opt;
  opt.mode = mode;
  opt.strategy = strategy;
  opt.emit_batch_size = batch;
  opt.columnar = columnar;
  CHECK_OK(engine.Configure(opt));
  CHECK_OK(engine.Start());

  RateSource::Options bid_opt;
  bid_opt.phases = {{kBids, kBidRate}};
  bid_opt.pacing = RateSource::Pacing::kPoisson;
  bid_opt.stamp_emit_offset = true;
  bid_opt.stamp_epoch = epoch;
  bid_opt.seed = 7;
  RateSource bid_driver(h.bids, bid_opt, nexmark::BidGenerator(cfg));
  std::unique_ptr<RateSource> auction_driver;
  if (h.auctions != nullptr) {
    RateSource::Options auc_opt;
    auc_opt.phases = {{kAuctions, kAuctionRate}};
    auc_opt.pacing = RateSource::Pacing::kPoisson;
    auc_opt.seed = 8;  // unstamped: the latency attr rides the bid side
    auction_driver = std::make_unique<RateSource>(
        h.auctions, auc_opt, nexmark::AuctionGenerator(cfg));
  }

  Stopwatch sw;
  if (auction_driver != nullptr) auction_driver->Start();
  bid_driver.Start();
  bid_driver.Join();
  if (auction_driver != nullptr) auction_driver->Join();
  CHECK(engine.WaitUntilFinishedFor(kWait));
  const double seconds = sw.ElapsedSeconds();
  CHECK_OK(engine.RunResult());

  BenchRow row;
  row.query = QueryName(query);
  row.config = config_name;
  row.batch = batch;
  row.shards = shards;
  row.columnar = columnar;
  row.seconds = seconds;
  row.results = h.results->count();
  row.lat = h.latency->SnapshotHistogram();
  CHECK(row.lat.count() > 0) << "latency sink saw no stamped elements";
  return row;
}

struct SimRow {
  std::string config;
  double completion = 0.0;
  int64_t results = 0;
  int64_t expected = 0;
};

/// Paper-scale virtual replay of the filter query: selectivity measured on
/// a pregenerated stream, then the simulator must produce exactly
/// floor(n * s) = survivors results.
std::vector<SimRow> RunSimSection(int64_t* survivors_out, int64_t* n_out) {
  nexmark::NexmarkConfig cfg;
  const int64_t n = bench::SmokeScaled<int64_t>(200'000, 20'000);
  const std::vector<Tuple> bids = nexmark::GenerateBids(cfg, /*seed=*/42, n);
  const double selectivity = nexmark::MeasuredFilterSelectivity(cfg, bids);
  const int64_t survivors =
      static_cast<int64_t>(static_cast<double>(n) * selectivity + 0.5);
  *survivors_out = survivors;
  *n_out = n;

  QueryGraph graph;
  nexmark::QueryHandle h =
      nexmark::BuildFilterQuery(&graph, cfg, nexmark::QueryOptions{});
  for (Node* node : graph.nodes()) {
    if (node == h.bids) continue;
    node->SetCostMicros(node->name() == "q2_filter" ? 2.0 : 0.5);
    node->SetSelectivity(node->name() == "q2_filter" ? selectivity : 1.0);
  }

  std::unordered_map<const Node*, std::vector<SimPhase>> schedules;
  schedules[h.bids] = {{n, 50'000.0}};

  std::vector<SimRow> rows;
  const struct {
    const char* name;
    std::vector<SimThread> threads;
    int cpus;
  } configs[] = {
      {"sim-gts-1cpu", MakeGtsConfig(graph), 1},
      {"sim-ots-1cpu", MakeOtsConfig(graph), 1},
      {"sim-ots-2cpu", MakeOtsConfig(graph), 2},
  };
  for (const auto& config : configs) {
    SimOptions so;
    so.cpus = config.cpus;
    Result<SimResult> r = Simulate(graph, schedules, config.threads, so);
    CHECK_OK(r.status());
    SimRow row;
    row.config = config.name;
    row.completion = r->completion_time;
    row.results = r->results;
    row.expected = survivors;
    CHECK(row.results == survivors)
        << config.name << " produced " << row.results << ", expected "
        << survivors;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace
}  // namespace flexstream

int main(int argc, char** argv) {
  using namespace flexstream;

  std::string out_path = "BENCH_nexmark.json";
  for (int i = 1; i < argc - 1; ++i) {
    if (std::string(argv[i]) == "--out") out_path = argv[i + 1];
  }

  std::cout << "=== NEXMark-style macro benchmark ===\n"
            << kBids << " bids at " << kBidRate << "/s (Poisson), "
            << kAuctions << " auctions at " << kAuctionRate
            << "/s; latencies in microseconds\n\n";

  struct Config {
    const char* name;
    ExecutionMode mode;
    StrategyKind strategy;
    size_t batch;
    size_t shards;
    bool needs_shardable;
    bool columnar;
  };
  // ots-b64-col is ots-b64 with the columnar batch layer on top
  // (EngineOptions::columnar, DESIGN.md §17): typed ColumnarBatches from
  // the sources, the vectorized q2 filter kernel and the typed-key join
  // probe, boxed batches through the queues.
  const std::vector<Config> configs = {
      {"gts-b1", ExecutionMode::kGts, StrategyKind::kFifo, 1, 1, false,
       false},
      {"ots-b1", ExecutionMode::kOts, StrategyKind::kFifo, 1, 1, false,
       false},
      {"hmts-b1", ExecutionMode::kHmts, StrategyKind::kFifo, 1, 1, false,
       false},
      {"ots-b64", ExecutionMode::kOts, StrategyKind::kFifo, 64, 1, false,
       false},
      {"ots-b64-col", ExecutionMode::kOts, StrategyKind::kFifo, 64, 1, false,
       true},
      {"ots-b1-s4", ExecutionMode::kOts, StrategyKind::kFifo, 1, 4, true,
       false},
  };
  const Query queries[] = {Query::kCurrency, Query::kFilter,
                           Query::kHotItems, Query::kJoin};

  std::vector<BenchRow> rows;
  for (Query q : queries) {
    const bool shardable = (q == Query::kHotItems || q == Query::kJoin);
    for (const Config& c : configs) {
      if (c.needs_shardable && !shardable) continue;
      rows.push_back(RunOne(q, c.name, c.mode, c.strategy, c.batch, c.shards,
                            c.columnar));
      std::cout << QueryName(q) << "/" << c.name << " done\n";
    }
  }

  int64_t sim_survivors = 0;
  int64_t sim_n = 0;
  const std::vector<SimRow> sim_rows = RunSimSection(&sim_survivors, &sim_n);

  Table t({"query", "config", "seconds", "results", "lat_count", "p50_us",
           "p95_us", "p99_us", "p999_us", "max_us"});
  for (const BenchRow& r : rows) {
    t.AddRow({r.query, r.config, Table::Num(r.seconds, 3),
              Table::Int(r.results), Table::Int(r.lat.count()),
              Table::Num(r.lat.Percentile(0.50), 0),
              Table::Num(r.lat.Percentile(0.95), 0),
              Table::Num(r.lat.Percentile(0.99), 0),
              Table::Num(r.lat.Percentile(0.999), 0),
              Table::Num(r.lat.max(), 0)});
  }
  std::cout << "\n";
  t.Print(std::cout);

  struct BatchLatencyRow {
    std::string query;
    double b1_p50 = 0.0;
    double b64_p50 = 0.0;
    double ratio() const { return b64_p50 / b1_p50; }
  };
  std::vector<BatchLatencyRow> batch_rows;
  for (Query q : queries) {
    BatchLatencyRow row;
    row.query = QueryName(q);
    for (const BenchRow& r : rows) {
      if (r.query != row.query) continue;
      if (r.config == "ots-b1") row.b1_p50 = r.lat.Percentile(0.50);
      if (r.config == "ots-b64") row.b64_p50 = r.lat.Percentile(0.50);
    }
    batch_rows.push_back(row);
  }
  std::cout << "\nbatching latency (ots-b64 p50 vs ots-b1 p50; target "
               "within 2x):\n";
  Table bt({"query", "b1_p50_us", "b64_p50_us", "ratio", "within_2x"});
  for (const BatchLatencyRow& r : batch_rows) {
    bt.AddRow({r.query, Table::Num(r.b1_p50, 0), Table::Num(r.b64_p50, 0),
               Table::Num(r.ratio(), 2), r.ratio() <= 2.0 ? "yes" : "no"});
  }
  bt.Print(std::cout);

  std::cout << "\nsimulator (filter query, " << sim_n
            << " bids, measured selectivity -> exact survivor count "
            << sim_survivors << "):\n";
  Table st({"config", "virtual_seconds", "results", "expected"});
  for (const SimRow& r : sim_rows) {
    st.AddRow({r.config, Table::Num(r.completion, 3), Table::Int(r.results),
               Table::Int(r.expected)});
  }
  st.Print(std::cout);

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"nexmark\",\n"
      << "  \"bids\": " << kBids << ",\n"
      << "  \"bid_rate\": " << kBidRate << ",\n"
      << "  \"auctions\": " << kAuctions << ",\n"
      << "  \"join_window_micros\": " << kJoinWindowMicros << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"query\": \"" << r.query << "\", \"config\": \""
        << r.config << "\", \"batch\": " << r.batch
        << ", \"shards\": " << r.shards
        << ", \"columnar\": " << (r.columnar ? 1 : 0)
        << ", \"seconds\": " << r.seconds
        << ", \"results\": " << r.results
        << ", \"lat_count\": " << r.lat.count()
        << ", \"p50_us\": " << r.lat.Percentile(0.50)
        << ", \"p95_us\": " << r.lat.Percentile(0.95)
        << ", \"p99_us\": " << r.lat.Percentile(0.99)
        << ", \"p999_us\": " << r.lat.Percentile(0.999)
        << ", \"max_us\": " << r.lat.max() << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"batch_latency\": [\n";
  for (size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchLatencyRow& r = batch_rows[i];
    out << "    {\"query\": \"" << r.query << "\", \"b1_p50_us\": "
        << r.b1_p50 << ", \"b64_p50_us\": " << r.b64_p50
        << ", \"ratio\": " << r.ratio() << "}"
        << (i + 1 < batch_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"simulator\": [\n";
  for (size_t i = 0; i < sim_rows.size(); ++i) {
    const SimRow& r = sim_rows[i];
    out << "    {\"config\": \"" << r.config
        << "\", \"virtual_seconds\": " << r.completion
        << ", \"results\": " << r.results << ", \"expected\": " << r.expected
        << "}" << (i + 1 < sim_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
