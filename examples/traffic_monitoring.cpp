// Traffic monitoring — the kind of application the paper's introduction
// motivates. A stream of (segment_id, speed_kmh) readings feeds two
// continuous queries that *share* a subquery (the plausibility filter),
// exactly the sharing pattern of the paper's Figure 1:
//
//                      +--> avg speed per segment (1 s window) --> sink A
//   cars --> filter --+
//                      +--> congestion alarm (speed < 25) ---------> sink B
//
// The query graph is executed with HMTS: Algorithm 1 places queues from
// the operators' cost/selectivity metadata, and every resulting partition
// runs under the level-3 thread scheduler. The windowed aggregation is
// deliberately made expensive so the placement isolates it — the Figure 5
// scenario — which the example prints.

#include <iostream>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/table.h"
#include "workload/rate_source.h"

namespace {

using namespace flexstream;  // NOLINT: example brevity

constexpr int kSegments = 16;
constexpr int64_t kReadings = 50'000;

}  // namespace

int main() {
  QueryGraph graph;
  QueryBuilder qb(&graph);

  Source* cars = qb.AddSource("cars");
  cars->SetInterarrivalMicros(20.0);  // 50k readings/second

  // Shared plausibility filter: drop speeds outside [0, 250] km/h.
  Node* plausible = qb.Select(cars, "plausible", [](const Tuple& t) {
    const int64_t v = t.IntAt(1);
    return v >= 0 && v <= 250;
  });
  plausible->SetSelectivity(0.98);
  plausible->SetCostMicros(0.2);

  // Query 1: per-segment average speed over a 1-second sliding window.
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kAvg;
  agg_options.value_attr = 1;
  agg_options.group_attr = 0;
  agg_options.window_micros = kMicrosPerSecond;
  WindowedAggregate* avg_speed =
      qb.Aggregate(plausible, "avg_speed", agg_options);
  avg_speed->SetSimulatedCostMicros(60.0);  // "the aggregation is expensive"
  avg_speed->SetSelectivity(1.0);
  avg_speed->SetCostMicros(60.0);
  CollectingSink* averages = qb.CollectSink(avg_speed, "averages");

  // Query 2: congestion alarms for crawling traffic.
  Node* congested =
      qb.Select(plausible, "congested",
                [](const Tuple& t) { return t.IntAt(1) < 25; });
  congested->SetSelectivity(0.1);
  congested->SetCostMicros(0.2);
  CountingSink* alarms = qb.CountSink(congested, "alarms");

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  options.placement = PlacementKind::kStallAvoiding;
  options.strategy = StrategyKind::kChain;
  CHECK_OK(engine.Configure(options));

  std::cout << "Stall-avoiding placement decided on "
            << engine.partitioning()->group_count() << " partitions and "
            << engine.queues().size() << " decoupling queues:\n"
            << engine.partitioning()->DebugString() << "\n\n";

  CHECK_OK(engine.Start());

  RateSource::Options ropt;
  ropt.phases = {{kReadings, 50'000.0}};
  ropt.pacing = RateSource::Pacing::kPoisson;
  ropt.seed = 5;
  RateSource driver(cars, ropt, [](int64_t, AppTime ts, Rng* rng) {
    // Mostly free-flowing traffic with occasional crawls and one noisy
    // sensor emitting impossible speeds.
    const int64_t segment = rng->UniformInt(0, kSegments - 1);
    int64_t speed = rng->Bernoulli(0.1) ? rng->UniformInt(0, 24)
                                        : rng->UniformInt(40, 130);
    if (rng->Bernoulli(0.02)) speed = 999;  // broken sensor
    return Tuple({Value(segment), Value(speed)}, ts);
  });
  Stopwatch sw;
  driver.Start();
  driver.Join();
  engine.WaitUntilFinished();

  std::cout << "processed " << kReadings << " readings in "
            << Table::Num(sw.ElapsedSeconds(), 2) << " s\n"
            << "congestion alarms: " << alarms->count() << "\n\n";

  // Print the last reported average per segment.
  std::vector<double> last(kSegments, 0.0);
  std::vector<bool> seen(kSegments, false);
  for (const Tuple& t : averages->Results()) {
    last[static_cast<size_t>(t.IntAt(0))] = t.DoubleAt(1);
    seen[static_cast<size_t>(t.IntAt(0))] = true;
  }
  Table table({"segment", "last_avg_speed_kmh"});
  for (int s = 0; s < kSegments; ++s) {
    if (seen[s]) {
      table.AddRow({Table::Int(s), Table::Num(last[static_cast<size_t>(s)], 1)});
    }
  }
  table.Print(std::cout);
  return 0;
}
