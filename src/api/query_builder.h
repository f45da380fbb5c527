// Fluent construction of query graphs.
//
// QueryBuilder wraps a QueryGraph with typed add-and-connect helpers so
// examples and tests read like the queries they build:
//
//   QueryGraph graph;
//   QueryBuilder qb(&graph);
//   Source* src = qb.AddSource("sensor");
//   Node* sel = qb.Select(src, "hot", Selection::IntAttrLessThan(100));
//   CountingSink* out = qb.CountSink(sel, "out");
//
// Topology errors (bad ports, cycles) are programming errors here and
// crash via CHECK; use QueryGraph::Connect directly for recoverable
// Status handling.

#ifndef FLEXSTREAM_API_QUERY_BUILDER_H_
#define FLEXSTREAM_API_QUERY_BUILDER_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/count_window_aggregate.h"
#include "operators/distinct.h"
#include "operators/latency_sink.h"
#include "operators/map_op.h"
#include "operators/multiway_join.h"
#include "operators/projection.h"
#include "operators/router.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "operators/symmetric_nl_join.h"
#include "operators/tumbling_aggregate.h"
#include "operators/union_op.h"

namespace flexstream {

class QueryBuilder {
 public:
  explicit QueryBuilder(QueryGraph* graph);

  QueryGraph* graph() { return graph_; }

  Source* AddSource(std::string name);

  Selection* Select(Node* input, std::string name,
                    Selection::Predicate predicate,
                    double simulated_cost_micros = 0.0);

  /// Typed-column form (has a columnar kernel; DESIGN.md §17).
  Selection* Select(Node* input, std::string name, Int64ColumnPredicate pred,
                    double simulated_cost_micros = 0.0);

  Projection* Project(Node* input, std::string name,
                      std::vector<size_t> attrs,
                      double simulated_cost_micros = 0.0);

  MapOp* Map(Node* input, std::string name, MapOp::MapFn fn,
             double simulated_cost_micros = 0.0);

  /// Typed-column form (has a columnar kernel; DESIGN.md §17).
  MapOp* Map(Node* input, std::string name, Int64ColumnMap map,
             double simulated_cost_micros = 0.0);

  UnionOp* Union(std::vector<Node*> inputs, std::string name);

  WindowedAggregate* Aggregate(Node* input, std::string name,
                               WindowedAggregate::Options options);

  SymmetricHashJoin* HashJoin(Node* left, Node* right, std::string name,
                              AppTime window_micros, size_t left_key_attr = 0,
                              size_t right_key_attr = 0);

  SymmetricNlJoin* NlJoin(Node* left, Node* right, std::string name,
                          AppTime window_micros,
                          SymmetricNlJoin::Predicate predicate);

  MultiwayJoin* MJoin(std::vector<Node*> inputs, std::string name,
                      AppTime window_micros, std::vector<size_t> key_attrs);

  TumblingAggregate* Tumbling(Node* input, std::string name,
                              TumblingAggregate::Options options);

  CountWindowAggregate* CountWindow(Node* input, std::string name,
                                    CountWindowAggregate::Options options);

  Distinct* Dedup(Node* input, std::string name, AppTime window_micros,
                  std::vector<size_t> key_attrs = {});

  /// Router with its destinations; destination order defines the route
  /// index space.
  Router* Route(Node* input, std::string name, Router::RouteFn route,
                std::vector<Operator*> destinations);

  CountingSink* CountSink(Node* input, std::string name);
  CollectingSink* CollectSink(Node* input, std::string name);
  CallbackSink* Callback(Node* input, std::string name,
                         std::function<void(const Tuple&, int)> fn);
  LatencySink* Latency(Node* input, std::string name, size_t offset_attr,
                       TimePoint epoch,
                       std::optional<size_t> phase_attr = std::nullopt);

 private:
  void MustConnect(Node* from, Operator* to, int port);

  QueryGraph* graph_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_API_QUERY_BUILDER_H_
