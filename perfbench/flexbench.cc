// flexbench: the repository benchmark's program (see perfbench/README.md).
//
// One invocation runs one workload for a fixed time budget and prints
// `name value unit` lines followed by a single JSON line with the metrics.
// It drives the engine only through its public API (StreamEngine,
// QueryBuilder, ShardOperator, Source::Push) from one generator thread.
// The base engine configuration is HMTS with Algorithm 1 placement,
// emit_batch_size 64, columnar batches, and one fewer level-3 slot than
// there are cores; the generator takes that core. hotitems-ckpt-kill adds
// checkpointing and bounded queues to it.
//
// A workload runs its query in up to two segments:
//   closed loop  the generator pushes a pre-generated stream as fast as
//                Push returns. This is repeated over several engine runs
//                ("reps"), pooled into tuples_per_s. join-open has none.
//   open loop    the generator pushes a Poisson schedule: a low-rate phase,
//                then a high-rate phase, both below saturation. Each push
//                busy-waits for its due time. A result's latency runs from
//                the due time of the input whose arrival makes the result
//                due, to the result's arrival at the sink. So a generator
//                stall is charged to later results.
// All inputs come from --seed and are generated before any clock starts.
// Outputs are checked against oracles, and the process exits non-zero on
// any mismatch.
//
// --trace 1 alternates untraced and traced closed-loop reps. Traced runs
// turn on engine statistics, time sampled pushes, count allocations and
// sample queue/scheduler/recovery counters from a low-rate thread. It
// prints the per-layer metrics, including trace.overhead_frac: the gap
// between traced and untraced closed-loop throughput (for join-open, the
// gap in high-phase median latency).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/query_builder.h"
#include "api/shard.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/merge.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/tumbling_aggregate.h"
#include "tuple/batch_pool.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/nexmark.h"

// -- Allocation counting (traced reps only) --------------------------------
//
// tuple.allocs_per_tuple counts operator new calls in this binary while a
// traced rep runs. Untraced reps pay one relaxed load of a flag per
// allocation.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flexstream {
namespace bench {
namespace {

using std::chrono::nanoseconds;

int64_t NsBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration_cast<nanoseconds>(b - a).count();
}
double SecondsBetween(TimePoint a, TimePoint b) {
  return static_cast<double>(NsBetween(a, b)) * 1e-9;
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty set.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The q-quantile of a latency series, robust to short stalls: the median
/// of the q-quantiles of up to 50 consecutive slices of the series (in due
/// order), each at least 1000 samples long. On a shared host a few
/// milliseconds of descheduling every few seconds would otherwise decide
/// the p99 of a whole run; here it moves the slices it hits, not the median.
double SlicedQuantile(const std::vector<double>& v, double q) {
  const size_t kSlices = std::min<size_t>(50, v.size() / 1000);
  if (kSlices <= 1) return Quantile(v, q);
  std::vector<double> per_slice;
  for (size_t i = 0; i < kSlices; ++i) {
    per_slice.push_back(Quantile(
        std::vector<double>(v.begin() + i * v.size() / kSlices,
                            v.begin() + (i + 1) * v.size() / kSlices),
        q));
  }
  return Median(per_slice);
}

/// Input tuples over engine-run time, summed over closed-loop reps. Reps
/// differ mostly by where the OS places the generator and the partition
/// threads, so the pooled rate is steadier than the median rep.
struct Throughput {
  double tuples = 0.0;
  double seconds = 0.0;
  int reps = 0;
  void Add(double t, double s) {
    tuples += t;
    seconds += s;
    ++reps;
  }
  double rate() const { return seconds > 0 ? tuples / seconds : 0.0; }
};

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Every `kPushSampleStride`-th push of a traced rep is timed. The stride
/// is prime so the samples cover every position in a 64-element batch.
constexpr size_t kPushSampleStride = 61;
/// Engine runs that only configure and start, for a steadier setup_s.
constexpr int kSetupOnlyRuns = 32;
constexpr auto kRunTimeout = std::chrono::seconds(120);

// -- Inputs -------------------------------------------------------------------

/// One segment's input. Element i is pushed to source `src[i]` (source 0
/// when `src` is empty) as tuple i mod pool size of that source's pool,
/// with timestamp due_ns[i] / 1000 (application time in microseconds equals
/// the schedule offset), after patching attribute 0 with key[i] and
/// attribute 1 with serial[i] when those are present.
struct Stream {
  std::vector<int64_t> due_ns;
  std::vector<uint8_t> src;
  std::vector<int64_t> key;
  std::vector<int64_t> serial;  // -1: leave attribute 1 alone
  int64_t low_end_ns = 0;       // open loop: low phase is [0, low_end_ns)

  size_t size() const { return due_ns.size(); }
  AppTime ts(size_t i) const { return due_ns[i] / 1000; }
  int source(size_t i) const { return src.empty() ? 0 : src[i]; }
  /// First element with ts >= t (size() when none).
  size_t FirstAtOrAfter(AppTime t) const {
    return static_cast<size_t>(
        std::lower_bound(due_ns.begin(), due_ns.end(), t * 1000) -
        due_ns.begin());
  }
};

/// Poisson arrival offsets at `rate` per second over [start_ns, end_ns).
void AppendPoisson(Rng* rng, double rate, int64_t start_ns, int64_t end_ns,
                   std::vector<int64_t>* out) {
  const double mean_gap_ns = 1e9 / rate;
  double t = static_cast<double>(start_ns);
  while (true) {
    t += rng->Exponential(mean_gap_ns);
    if (t >= static_cast<double>(end_ns)) return;
    out->push_back(static_cast<int64_t>(t));
  }
}

/// `n` Poisson arrivals at `rate` per second from offset 0.
std::vector<int64_t> PoissonCount(Rng* rng, double rate, size_t n) {
  std::vector<int64_t> out;
  out.reserve(n);
  const double mean_gap_ns = 1e9 / rate;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += rng->Exponential(mean_gap_ns);
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

/// Low phase then high phase, `seconds_each` long.
std::vector<int64_t> TwoPhase(Rng* rng, double low_rate, double high_rate,
                              double seconds_each, int64_t* low_end_ns) {
  std::vector<int64_t> out;
  *low_end_ns = static_cast<int64_t>(seconds_each * 1e9);
  AppendPoisson(rng, low_rate, 0, *low_end_ns, &out);
  AppendPoisson(rng, high_rate, *low_end_ns, 2 * *low_end_ns, &out);
  return out;
}

// -- Queries ------------------------------------------------------------------

enum class Segment { kClosed, kOpen };
const char* SegmentName(Segment s) {
  return s == Segment::kClosed ? "closed" : "open";
}

/// A result in compact form: timestamp, key and value. Each workload says
/// what key and value mean for its results.
struct Row {
  AppTime ts = 0;
  int64_t key = 0;
  double value = 0.0;
  friend bool operator<(const Row& a, const Row& b) {
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.key != b.key) return a.key < b.key;
    return a.value < b.value;
  }
  friend bool operator==(const Row& a, const Row& b) {
    return a.ts == b.ts && a.key == b.key && a.value == b.value;
  }
};

/// A result and when it reached the sink.
struct TimedRow {
  Row row;
  TimePoint arrival;
};

/// One freshly built query graph. Heap-allocated and never moved: the
/// timed sink's callback holds a pointer to `timed`.
struct Query {
  QueryGraph graph;
  std::vector<Source*> sources;
  CountingSink* count = nullptr;
  CollectingSink* collect = nullptr;
  std::vector<TimedRow> timed;
  std::vector<Operator*> replicas;  // sharded workloads
  MergeOperator* merge = nullptr;
};

/// How the emitted results compare with the oracle's.
struct Verdict {
  int64_t expected = 0;
  int64_t matched = 0;
  int64_t spurious = 0;
  std::string error;  // first spurious result, for the log
};

std::string RowString(const Row& r) {
  std::ostringstream os;
  os << "(ts " << r.ts << ", key " << r.key << ", value " << r.value << ")";
  return os.str();
}

/// Multiset comparison of sorted result rows.
Verdict CompareSorted(const std::vector<Row>& expected,
                      const std::vector<Row>& actual) {
  Verdict v;
  v.expected = static_cast<int64_t>(expected.size());
  size_t i = 0, j = 0;
  while (i < expected.size() || j < actual.size()) {
    if (j == actual.size() ||
        (i < expected.size() && expected[i] < actual[j])) {
      ++i;  // missing
    } else if (i == expected.size() || actual[j] < expected[i]) {
      if (v.error.empty()) v.error = "spurious " + RowString(actual[j]);
      ++v.spurious;
      ++j;
    } else {
      ++v.matched;
      ++i;
      ++j;
    }
  }
  return v;
}

std::vector<Row> SortedRows(const std::vector<TimedRow>& timed) {
  std::vector<Row> out;
  out.reserve(timed.size());
  for (const TimedRow& r : timed) out.push_back(r.row);
  std::sort(out.begin(), out.end());
  return out;
}

EngineOptions BaseOptions() {
  EngineOptions o;
  o.mode = ExecutionMode::kHmts;
  o.placement = PlacementKind::kStallAvoiding;
  o.emit_batch_size = 64;
  o.columnar = true;
  // Engine slots plus the one generator thread fit the cores.
  o.ts.max_running = std::max(1, Nproc() - 1);
  o.ts.watchdog_interval = std::chrono::seconds(1);
  return o;
}

/// One benchmark workload: its query, its generated inputs and its oracle.
class Workload {
 public:
  /// `closed_share` is the share of the time budget given to closed-loop
  /// reps (0: none); the rest is split evenly between the open-loop phases.
  explicit Workload(double closed_share) : closed_share_(closed_share) {}
  virtual ~Workload() = default;

  virtual EngineOptions Options() const { return BaseOptions(); }
  /// Builds a fresh query. The open-loop segment always ends in the timed
  /// sink; the closed-loop sink is the workload's choice.
  virtual std::unique_ptr<Query> Build(Segment seg) const = 0;
  /// Checks one engine run's results against the oracle.
  virtual Verdict Check(Segment seg, const Query& q) const = 0;
  /// Index into `s` of the input element whose arrival makes `result` due;
  /// -1 when no element does (results flushed by end of stream).
  virtual int64_t Trigger(const Stream& s, const Row& result) const = 0;
  /// Replica deliveries after which the closed-loop reps kill replica 0
  /// (0 = no kill).
  virtual int64_t kill_after() const { return 0; }
  /// True when every expected result must appear. Otherwise missing
  /// results only count as failed operations.
  virtual bool exact() const { return true; }
  /// True when results are per-window aggregates: latency is then taken
  /// once per window, at the arrival of its last result.
  virtual bool windowed() const { return true; }

  double closed_share() const { return closed_share_; }
  const Stream& stream(Segment seg) const {
    return seg == Segment::kClosed ? closed_ : open_;
  }
  std::vector<std::vector<Tuple>>& pools() { return pools_; }

 protected:
  /// A result as the timed sink records it (runs in the sink's thread).
  virtual Row Observe(const Tuple& result) const = 0;

  /// The open-loop sink: records each result with its arrival time. One
  /// consumer thread at a time writes; the log is read after the run.
  void AddTimedSink(QueryBuilder* qb, Node* input, Query* q) const {
    std::vector<TimedRow>* log = &q->timed;
    // Reserved up front: growing the log mid-run would stall the sink.
    log->reserve(open_results_ + open_results_ / 8 + 1024);
    qb->Callback(input, "out", [this, log](const Tuple& t, int) {
      log->push_back({Observe(t), Now()});
    });
  }

  double open_phase_seconds(double seconds) const {
    return seconds * (1 - closed_share_) / 2;
  }

  std::vector<std::vector<Tuple>> pools_;  // per source, power-of-two sizes
  Stream closed_;
  Stream open_;
  size_t open_results_ = 0;  // expected open-loop result count

 private:
  const double closed_share_;
};

// -- chain-saturate -------------------------------------------------------------
//
// source -> typed select (half) -> project -> typed map -> tumbling sum ->
// sink, over {int64, 26-byte string} tuples. No checkpointing, no sharding.
// Rows: key 0, value = the window's sum.

class ChainWorkload : public Workload {
 public:
  static constexpr size_t kPool = 4096;
  static constexpr AppTime kWindowMicros = 500;

  ChainWorkload(uint64_t seed, double seconds, size_t closed_n)
      : Workload(0.5) {
    Rng rng(seed);
    pools_.resize(1);
    static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
    for (size_t i = 0; i < kPool; ++i) {
      std::string s(26, 'x');
      for (char& c : s) c = kAlphabet[rng.NextU64(sizeof(kAlphabet) - 1)];
      pools_[0].push_back(
          Tuple({Value(rng.UniformInt(0, 1'000'000)), Value(std::move(s))}, 0));
    }
    closed_.due_ns = PoissonCount(&rng, 1e6, closed_n);
    open_.due_ns = TwoPhase(&rng, 20'000, 1'000'000,
                            open_phase_seconds(seconds), &open_.low_end_ns);
    closed_windows_ = static_cast<int64_t>(ExpectedWindows(closed_).size());
    open_expected_ = ExpectedWindows(open_);
    open_results_ = open_expected_.size();
  }

  std::unique_ptr<Query> Build(Segment seg) const override {
    auto q = std::make_unique<Query>();
    QueryBuilder qb(&q->graph);
    Source* src = qb.AddSource("src");
    src->DeclareOutputSchema(
        MakeSchema({Value::Type::kInt64, Value::Type::kString}));
    q->sources.push_back(src);
    Node* sel = qb.Select(src, "sel", Int64ColumnPredicate{0, Selected});
    Node* proj = qb.Project(sel, "proj", {0});
    Node* map =
        qb.Map(proj, "map", Int64ColumnMap{0, [](int64_t v) { return v + 1; }});
    TumblingAggregate::Options agg;
    agg.kind = AggregateKind::kSum;
    agg.value_attr = 0;
    agg.window_micros = kWindowMicros;
    Node* sum = qb.Tumbling(map, "agg", agg);
    if (seg == Segment::kClosed) {
      q->count = qb.CountSink(sum, "out");
    } else {
      AddTimedSink(&qb, sum, q.get());
    }
    return q;
  }

  Verdict Check(Segment seg, const Query& q) const override {
    if (seg == Segment::kOpen) {
      return CompareSorted(open_expected_, SortedRows(q.timed));
    }
    // Closed form: one result per window holding a selected element.
    Verdict v;
    v.expected = closed_windows_;
    v.matched = std::min(v.expected, q.count->count());
    v.spurious = std::max<int64_t>(0, q.count->count() - v.expected);
    if (v.spurious > 0) v.error = "sink count above the closed form";
    return v;
  }

  int64_t Trigger(const Stream& s, const Row& result) const override {
    // The window closes at the first selected element at or past its end.
    for (size_t i = s.FirstAtOrAfter(result.ts); i < s.size(); ++i) {
      if (Selected(pools_[0][i & (kPool - 1)].IntAt(0))) {
        return static_cast<int64_t>(i);
      }
    }
    return -1;
  }

 protected:
  Row Observe(const Tuple& result) const override {
    return {result.timestamp(), 0, result.DoubleAt(0)};
  }

 private:
  static bool Selected(int64_t v) { return v % 2 == 0; }

  /// The sink's expected output: one sum of (v + 1) over the selected
  /// elements of every non-empty window, stamped with the window end.
  std::vector<Row> ExpectedWindows(const Stream& s) const {
    std::vector<Row> out;
    bool open = false;
    AppTime window = 0;
    double sum = 0.0;
    for (size_t i = 0; i < s.size(); ++i) {
      const int64_t v = pools_[0][i & (kPool - 1)].IntAt(0);
      if (!Selected(v)) continue;
      const AppTime w = s.ts(i) / kWindowMicros;
      if (open && w != window) {
        out.push_back({(window + 1) * kWindowMicros, 0, sum});
        sum = 0.0;
      }
      open = true;
      window = w;
      sum += static_cast<double>(v + 1);
    }
    if (open) out.push_back({(window + 1) * kWindowMicros, 0, sum});
    std::sort(out.begin(), out.end());
    return out;
  }

  int64_t closed_windows_ = 0;
  std::vector<Row> open_expected_;
};

// -- hotitems-ckpt-kill -----------------------------------------------------------
//
// NEXMark bids (Zipf auction keys) -> tumbling per-auction count, sharded
// two ways with the ordered merge -> sink. Checkpointing every 1000
// elements, queues bounded at 4096 with kBlock. Every closed-loop rep
// kills replica 0 once, mid-run. Oracle: exact multiset equality with an
// unsharded single-threaded kSourceDriven run of the same input.
// Rows: key = auction id, value = bid count.

class HotItemsWorkload : public Workload {
 public:
  static constexpr size_t kPool = 65536;
  static constexpr AppTime kWindowMicros = 10'000;

  HotItemsWorkload(uint64_t seed, double seconds, size_t closed_n)
      : Workload(0.5) {
    Rng rng(seed);
    nexmark::NexmarkConfig cfg;
    pools_.resize(1);
    for (size_t i = 0; i < kPool; ++i) {
      pools_[0].push_back(
          nexmark::MakeBid(cfg, static_cast<int64_t>(i), 0, &rng));
    }
    closed_.due_ns = PoissonCount(&rng, 1e6, closed_n);
    open_.due_ns = TwoPhase(&rng, 20'000, 50'000, open_phase_seconds(seconds),
                            &open_.low_end_ns);
    closed_golden_ = Golden(closed_);
    open_golden_ = Golden(open_);
    open_results_ = open_golden_.size();
  }

  EngineOptions Options() const override {
    EngineOptions o = BaseOptions();
    o.checkpoint_epoch_interval = 1000;
    o.queue_max_elements = 4096;
    o.overload_policy = OverloadPolicy::kBlock;
    // Row batches, not columnar: with columnar batches, a kill under CPU
    // load sometimes makes the restored replica emit the windows around
    // the kill point in several partial counts (see perfbench/README.md).
    o.columnar = false;
    return o;
  }

  std::unique_ptr<Query> Build(Segment seg) const override {
    auto q = std::make_unique<Query>();
    QueryBuilder qb(&q->graph);
    Source* bids = qb.AddSource("bids");
    bids->DeclareOutputSchema(MakeSchema(
        {Value::Type::kInt64, Value::Type::kInt64, Value::Type::kInt64}));
    q->sources.push_back(bids);
    TumblingAggregate* hot = qb.Tumbling(bids, "hot", AggOptions());
    if (seg == Segment::kClosed) {
      q->collect = qb.CollectSink(hot, "out");
    } else {
      AddTimedSink(&qb, hot, q.get());
    }
    ShardOptions shard;
    shard.shards = 2;
    shard.key_attrs = {nexmark::kBidAuction};
    shard.ordered = true;
    Result<ShardHandle> handle = ShardOperator(&q->graph, hot, shard);
    CHECK(handle.ok()) << handle.status().message();
    q->replicas = handle.value().replicas;
    q->merge = handle.value().merge;
    return q;
  }

  Verdict Check(Segment seg, const Query& q) const override {
    if (seg == Segment::kOpen) {
      return CompareSorted(open_golden_, SortedRows(q.timed));
    }
    return CompareSorted(closed_golden_, ToRows(q.collect->Results()));
  }

  int64_t Trigger(const Stream& s, const Row& result) const override {
    // A window closes at the first bid at or past its end.
    const size_t i = s.FirstAtOrAfter(result.ts);
    return i < s.size() ? static_cast<int64_t>(i) : -1;
  }

  int64_t kill_after() const override {
    // Replica 0 sees roughly half the bids, so this lands mid-run.
    return static_cast<int64_t>(closed_.size() / 5);
  }

 protected:
  Row Observe(const Tuple& result) const override {
    return {result.timestamp(), result.IntAt(0), result.DoubleAt(1)};
  }

 private:
  static TumblingAggregate::Options AggOptions() {
    TumblingAggregate::Options agg;
    agg.kind = AggregateKind::kCount;
    agg.group_attr = nexmark::kBidAuction;
    agg.window_micros = kWindowMicros;
    return agg;
  }

  std::vector<Row> ToRows(const std::vector<Tuple>& results) const {
    std::vector<Row> rows;
    rows.reserve(results.size());
    for (const Tuple& t : results) rows.push_back(Observe(t));
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// The unsharded query run single-threaded with the source driving it.
  std::vector<Row> Golden(const Stream& s) {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* bids = qb.AddSource("bids");
    CollectingSink* out =
        qb.CollectSink(qb.Tumbling(bids, "hot", AggOptions()), "out");
    StreamEngine engine(&graph);
    EngineOptions o;
    o.mode = ExecutionMode::kSourceDriven;
    CHECK_OK(engine.Configure(o));
    CHECK_OK(engine.Start());
    std::vector<Tuple>& pool = pools_[0];
    for (size_t i = 0; i < s.size(); ++i) {
      Tuple& t = pool[i & (kPool - 1)];
      t.set_timestamp(s.ts(i));
      bids->Push(std::as_const(t));
    }
    bids->Close(s.size() == 0 ? 0 : s.ts(s.size() - 1));
    CHECK(engine.WaitUntilFinishedFor(kRunTimeout));
    CHECK_OK(engine.RunResult());
    return ToRows(out->TakeResults());
  }

  std::vector<Row> closed_golden_;
  std::vector<Row> open_golden_;
};

// -- join-open -----------------------------------------------------------------
//
// Poisson auctions and bids (10 bids per auction) -> symmetric hash join on
// the auction id over a 50 ms window -> sink. Open loop only: a saturated
// closed loop lets one input run ahead of the other, and the join's
// arrival-driven expiry then drops matches. Every bid names one auction
// opened 10 to 30 ms before it, so each bid has exactly one partner within
// the window. Oracle: brute force over the inputs; a result must be a real
// pair within the window, attribute for attribute, and appear at most once.
// Rows: key = bid serial (-1 when the result is no such pair), value =
// auction id.

class JoinWorkload : public Workload {
 public:
  static constexpr size_t kPool = 1024;
  static constexpr AppTime kWindowMicros = 50'000;
  static constexpr int kAuctions = 0;  // source index
  static constexpr int kBids = 1;

  JoinWorkload(uint64_t seed, double seconds) : Workload(0.0) {
    Rng rng(seed);
    nexmark::NexmarkConfig cfg;
    pools_.resize(2);
    for (size_t i = 0; i < kPool; ++i) {
      pools_[kAuctions].push_back(
          nexmark::MakeAuction(cfg, static_cast<int64_t>(i), 0, &rng));
      pools_[kBids].push_back(
          nexmark::MakeBid(cfg, static_cast<int64_t>(i), 0, &rng));
    }
    // Bid rates 20k/s and 200k/s; auctions add a tenth on top.
    open_.due_ns = TwoPhase(&rng, 22'000, 220'000, open_phase_seconds(seconds),
                            &open_.low_end_ns);
    AssignEvents(&rng);
    Oracle();
    open_results_ = static_cast<size_t>(expected_);
  }

  std::unique_ptr<Query> Build(Segment) const override {
    auto q = std::make_unique<Query>();
    QueryBuilder qb(&q->graph);
    Source* auctions = qb.AddSource("auctions");
    auctions->DeclareOutputSchema(
        MakeSchema({Value::Type::kInt64, Value::Type::kInt64,
                    Value::Type::kInt64, Value::Type::kInt64}));
    Source* bids = qb.AddSource("bids");
    bids->DeclareOutputSchema(MakeSchema(
        {Value::Type::kInt64, Value::Type::kInt64, Value::Type::kInt64}));
    q->sources = {auctions, bids};
    Node* join = qb.HashJoin(auctions, bids, "join", kWindowMicros,
                             nexmark::kAuctionId, nexmark::kBidAuction);
    AddTimedSink(&qb, join, q.get());
    return q;
  }

  Verdict Check(Segment, const Query& q) const override {
    Verdict v;
    v.expected = expected_;
    std::vector<bool> seen(bid_event_.size(), false);
    for (const TimedRow& r : q.timed) {
      const int64_t serial = r.row.key;
      if (serial < 0 || seen[static_cast<size_t>(serial)]) {
        if (v.error.empty()) v.error = "spurious " + RowString(r.row);
        ++v.spurious;
        continue;
      }
      seen[static_cast<size_t>(serial)] = true;
      ++v.matched;
    }
    return v;
  }

  bool exact() const override { return false; }
  bool windowed() const override { return false; }

  int64_t Trigger(const Stream&, const Row& result) const override {
    // The later of the two inputs makes the pair due.
    if (result.key < 0) return -1;
    return std::max(bid_event_[static_cast<size_t>(result.key)],
                    auction_event_[static_cast<size_t>(result.value)]);
  }

 protected:
  Row Observe(const Tuple& r) const override {
    return {r.timestamp(), PairSerial(r),
            static_cast<double>(r.IntAt(nexmark::kAuctionId))};
  }

 private:
  /// Marks every open-loop element as an auction (1 in 11) or a bid, gives
  /// auctions consecutive ids and bids consecutive serials, and points
  /// every bid at an auction opened 10 to 30 ms before it (an element with
  /// no such auction yet becomes an auction).
  ///
  /// The join expires stored input by the newest timestamp it has seen, so
  /// a pair is lost when the later-processed side arrives after input 50 ms
  /// newer than the earlier side. The age range keeps a margin on both
  /// sides: an auction may wait the ~32 ms a 64-row batch takes to fill at
  /// 2k auctions/s (bid at least 10 ms younger), and a bid the ~3 ms of its
  /// own batch (auction at most 30 ms older).
  void AssignEvents(Rng* rng) {
    constexpr int64_t kMinAgeNs = 10'000'000;
    constexpr int64_t kMaxAgeNs = 30'000'000;
    Stream& s = open_;
    const size_t n = s.size();
    s.src.resize(n);
    s.key.resize(n);
    s.serial.resize(n);
    int64_t bids = 0;
    size_t oldest = 0;  // first auction young enough to be named
    size_t newest = 0;  // one past the last auction old enough
    for (size_t i = 0; i < n; ++i) {
      const int64_t t = s.due_ns[i];
      while (oldest < auction_event_.size() &&
             s.due_ns[auction_event_[oldest]] < t - kMaxAgeNs) {
        ++oldest;
      }
      newest = std::max(newest, oldest);
      while (newest < auction_event_.size() &&
             s.due_ns[auction_event_[newest]] <= t - kMinAgeNs) {
        ++newest;
      }
      if (newest == oldest || rng->NextU64(11) == 0) {
        s.src[i] = kAuctions;
        s.key[i] = static_cast<int64_t>(auction_event_.size());
        s.serial[i] = -1;
        auction_event_.push_back(static_cast<int64_t>(i));
      } else {
        s.src[i] = kBids;
        s.key[i] = rng->UniformInt(static_cast<int64_t>(oldest),
                                   static_cast<int64_t>(newest) - 1);
        s.serial[i] = bids++;
        bid_event_.push_back(static_cast<int64_t>(i));
      }
    }
  }

  /// Expected match count by brute force: pairs with equal keys whose
  /// timestamps differ by at most the window.
  void Oracle() {
    const Stream& s = open_;
    std::map<int64_t, std::vector<int64_t>> by_key;
    for (int64_t a : auction_event_) by_key[s.key[a]].push_back(a);
    for (int64_t b : bid_event_) {
      auto it = by_key.find(s.key[b]);
      if (it == by_key.end()) continue;
      for (int64_t a : it->second) {
        if (std::llabs(s.ts(a) - s.ts(b)) <= kWindowMicros) ++expected_;
      }
    }
  }

  /// The bid serial of a result that is an input pair within the window,
  /// reproduced attribute for attribute; -1 otherwise.
  int64_t PairSerial(const Tuple& r) const {
    constexpr size_t kA = nexmark::kAuctionArity;
    if (r.arity() != kA + nexmark::kBidArity) return -1;
    const Stream& s = open_;
    const int64_t id = r.IntAt(nexmark::kAuctionId);
    const int64_t serial = r.IntAt(kA + nexmark::kBidBidder);
    if (id < 0 || id >= static_cast<int64_t>(auction_event_.size()) ||
        serial < 0 || serial >= static_cast<int64_t>(bid_event_.size())) {
      return -1;
    }
    const size_t a = static_cast<size_t>(auction_event_[static_cast<size_t>(id)]);
    const size_t b = static_cast<size_t>(bid_event_[static_cast<size_t>(serial)]);
    const Tuple& at = pools_[kAuctions][a & (kPool - 1)];
    const Tuple& bt = pools_[kBids][b & (kPool - 1)];
    const bool same =
        r.IntAt(kA + nexmark::kBidAuction) == id && s.key[b] == id &&
        r.IntAt(nexmark::kAuctionSeller) == at.IntAt(nexmark::kAuctionSeller) &&
        r.IntAt(nexmark::kAuctionCategory) ==
            at.IntAt(nexmark::kAuctionCategory) &&
        r.IntAt(nexmark::kAuctionReserve) ==
            at.IntAt(nexmark::kAuctionReserve) &&
        r.IntAt(kA + nexmark::kBidPrice) == bt.IntAt(nexmark::kBidPrice) &&
        r.timestamp() == std::max(s.ts(a), s.ts(b)) &&
        std::llabs(s.ts(a) - s.ts(b)) <= kWindowMicros;
    return same ? serial : -1;
  }

  int64_t expected_ = 0;
  std::vector<int64_t> auction_event_;  // element index by auction id
  std::vector<int64_t> bid_event_;      // element index by bid serial
};

// -- Tracing ----------------------------------------------------------------------

/// A span: a named interval on the process clock, with the span that
/// caused it (-1 for none).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(TimePoint origin) : origin_(origin) {}
  int Add(std::string name, TimePoint start, TimePoint end, int parent) {
    spans_.push_back({std::move(name), NsBetween(origin_, start),
                      NsBetween(origin_, end), parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  TimePoint origin_;
  std::vector<Span> spans_;  // main thread only
};

/// Counters of one traced engine run, or summed over several.
struct Layers {
  int64_t input = 0;
  double wall_s = 0.0;
  // source
  std::vector<double> push_ns;
  double push_busy_s = 0.0;
  std::vector<double> drain_tail_ms;
  // queue
  int64_t backlog_max = 0;
  int64_t peak_size_max = 0;
  int64_t notifications = 0;
  int64_t ring_pushes = 0;
  int64_t locked_pushes = 0;
  int64_t block_waits = 0;
  int64_t dropped = 0;
  // sched / core
  int64_t partitions = 0;
  int64_t wakeups = 0;
  int64_t drained = 0;
  double running_sum = 0.0;
  int64_t running_samples = 0;
  int64_t stall_events = 0;
  // recovery
  int64_t epochs_committed = 0;
  int64_t snapshots_taken = 0;
  int64_t state_elements = 0;
  int64_t commit_lag_max = 0;
  int64_t replay_peak_depth = 0;
  int64_t replayed_elements = 0;
  std::vector<double> recovery_ms;
  // shard
  std::vector<int64_t> replica_processed;
  double merge_busy_s = 0.0;
  // tuple
  int64_t allocs = 0;
  uint64_t pool_acquires = 0;
  uint64_t pool_hits = 0;
  // operators, by node name: busy seconds, processed, emitted
  struct Op {
    double busy_s = 0.0;
    int64_t processed = 0;
    int64_t emitted = 0;
  };
  std::map<std::string, Op> ops;
};

/// Low-rate counter sampler for one traced engine run. Reads only atomics
/// and, when no kill is armed, the level-3 scheduler (a recovery rebuilds
/// the executors, so the scheduler is not read while one can happen).
class Sampler {
 public:
  Sampler(StreamEngine* engine, bool read_scheduler, Layers* out)
      : engine_(engine), read_scheduler_(read_scheduler), out_(out),
        thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stops and joins the sampling thread. Idempotent.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// When the first completed recovery was seen (to within one sampling
  /// period); unset when there was none. Read after Stop.
  TimePoint resumed() const { return resumed_; }

 private:
  void Loop() {
    while (!stop_.load()) {
      out_->backlog_max = std::max<int64_t>(
          out_->backlog_max, static_cast<int64_t>(engine_->QueuedElements()));
      if (const RecoveryManager* r = engine_->recovery()) {
        uint64_t newest = 0;
        for (const QueueOp* q : engine_->queues()) {
          newest = std::max(newest, q->last_barrier_epoch());
        }
        const uint64_t committed = r->coordinator().committed_epoch();
        if (newest > committed) {
          out_->commit_lag_max = std::max<int64_t>(
              out_->commit_lag_max, static_cast<int64_t>(newest - committed));
        }
        if (resumed_ == TimePoint{} && r->completed_recoveries() > 0) {
          resumed_ = Now();
        }
      }
      if (read_scheduler_ && engine_->hmts() != nullptr) {
        out_->running_sum += engine_->hmts()->thread_scheduler().running_count();
        ++out_->running_samples;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  StreamEngine* engine_;
  const bool read_scheduler_;
  Layers* out_;
  TimePoint resumed_{};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it reads
};

// -- Engine runs --------------------------------------------------------------------

/// What one engine run measured.
struct RunRecord {
  Segment segment = Segment::kClosed;
  bool traced = false;
  double configure_s = 0.0;
  double start_s = 0.0;
  double seconds = 0.0;  // first push -> WaitUntilFinished returned
  int64_t pushed = 0;
  Verdict verdict;
  int64_t dropped = 0;
  int kills = 0;
  int recoveries = 0;
  double recovery_ms = 0.0;
  bool ok = true;
  std::string error;
  // open loop
  std::vector<double> lat_low_us, lat_high_us, lag_us;
};

/// What the generator measured while feeding.
struct FeedResult {
  TimePoint first{};   // first push
  TimePoint closed{};  // last push returned, before Close
  std::vector<double> push_ns;
  std::vector<double> lag_us;
};

/// Pushes `s` into the query's sources from the calling thread, then closes
/// them: as fast as Push returns, or each element at its due time after
/// `t0` when `paced`. With `sample`, times every kPushSampleStride-th push
/// and records how late each paced push ran.
void Feed(const Stream& s, std::vector<std::vector<Tuple>>& pools, Query* q,
          bool paced, bool sample, TimePoint t0, FeedResult* out) {
  const bool has_key = !s.key.empty();
  const bool has_serial = !s.serial.empty();
  if (paced && sample) out->lag_us.reserve(s.size());
  if (sample) out->push_ns.reserve(s.size() / kPushSampleStride + 1);
  out->first = Now();
  for (size_t i = 0; i < s.size(); ++i) {
    if (paced) {
      const TimePoint due = t0 + nanoseconds(s.due_ns[i]);
      TimePoint now = Now();
      while (now < due) now = Now();
      if (sample) {
        out->lag_us.push_back(static_cast<double>(NsBetween(due, now)) * 1e-3);
      }
    }
    const int si = s.source(i);
    std::vector<Tuple>& pool = pools[si];
    Tuple& t = pool[i & (pool.size() - 1)];
    t.set_timestamp(s.ts(i));
    if (has_key) t.at(0) = Value(s.key[i]);
    if (has_serial && s.serial[i] >= 0) t.at(1) = Value(s.serial[i]);
    if (sample && i % kPushSampleStride == 0) {
      const TimePoint a = Now();
      q->sources[si]->Push(std::as_const(t));
      out->push_ns.push_back(static_cast<double>(NsBetween(a, Now())));
    } else {
      q->sources[si]->Push(std::as_const(t));
    }
  }
  out->closed = Now();
  const AppTime end = s.size() == 0 ? 0 : s.ts(s.size() - 1);
  for (Source* src : q->sources) src->Close(end);
}

void CollectLayers(StreamEngine& engine, const Query& q, double wall_s,
                   Layers* L) {
  L->wall_s += wall_s;
  for (const QueueOp* qu : engine.queues()) {
    L->peak_size_max =
        std::max<int64_t>(L->peak_size_max, static_cast<int64_t>(qu->PeakSize()));
    L->notifications += qu->notifications();
    L->ring_pushes += qu->ring_pushes();
    L->locked_pushes += qu->locked_pushes();
    L->block_waits += qu->block_waits();
    L->dropped += qu->dropped();
  }
  if (HmtsExecutor* h = engine.hmts()) {
    const std::vector<Partition*> parts = h->Partitions();
    L->partitions = std::max<int64_t>(L->partitions,
                                      static_cast<int64_t>(parts.size()));
    for (const Partition* p : parts) {
      L->wakeups += p->wakeups();
      L->drained += p->drained();
    }
    L->stall_events += h->thread_scheduler().stall_events();
  }
  if (const RecoveryManager* r = engine.recovery()) {
    L->epochs_committed += r->coordinator().epochs_committed();
    L->snapshots_taken += r->coordinator().snapshots_taken();
    L->state_elements =
        std::max(L->state_elements, r->coordinator().committed_state_elements());
    L->replay_peak_depth = std::max<int64_t>(
        L->replay_peak_depth, static_cast<int64_t>(r->replay_peak_depth()));
    L->replayed_elements += r->replayed_elements();
  }
  if (!q.replicas.empty()) {
    L->replica_processed.resize(q.replicas.size(), 0);
    for (size_t i = 0; i < q.replicas.size(); ++i) {
      L->replica_processed[i] += q.replicas[i]->stats().processed();
    }
    L->merge_busy_s += q.merge->stats().BusyMicros() * 1e-6;
  }
  for (const Node* n : q.graph.nodes()) {
    if (n->kind() == Node::Kind::kQueue) continue;
    if (n->stats().processed() == 0 && n->stats().emitted() == 0) continue;
    Layers::Op& op = L->ops[n->name()];
    op.busy_s += n->stats().BusyMicros() * 1e-6;
    op.processed += n->stats().processed();
    op.emitted += n->stats().emitted();
  }
}

/// One engine run of `seg`. `layers` is non-null for traced runs.
RunRecord RunEngine(Workload& w, Segment seg, bool kill, Layers* layers,
                    Tracer* tracer) {
  RunRecord rec;
  rec.segment = seg;
  rec.traced = layers != nullptr;
  const Stream& s = w.stream(seg);
  std::unique_ptr<Query> q = w.Build(seg);
  StreamEngine engine(&q->graph);

  SetStatsCollectionEnabled(rec.traced);
  const TimePoint c0 = Now();
  Status st = engine.Configure(w.Options());
  const TimePoint c1 = Now();
  if (!st.ok()) {
    rec.ok = false;
    rec.error = "Configure: " + st.message();
    return rec;
  }

  // The kill: replica 0 fails permanently once, at a fixed delivery count
  // (replayed deliveries included). The hook survives the recovery reset.
  struct KillState {
    int64_t after = 0;
    int64_t deliveries = 0;
    bool fired = false;
    TimePoint at{};
  };
  auto ks = std::make_shared<KillState>();
  if (kill) {
    ks->after = w.kill_after();
    q->replicas[0]->SetFaultHook(
        [ks](const Operator&, const Tuple&, int, int attempt) {
          if (attempt > 0 || ks->fired) return FaultAction::kProceed;
          if (ks->deliveries++ < ks->after) return FaultAction::kProceed;
          ks->fired = true;
          ks->at = Now();
          return FaultAction::kPermanentFailure;
        });
  }

  const columnar::PoolStats pool0 = columnar::GetPoolStats();
  if (rec.traced) {
    g_allocs.store(0);
    g_count_allocs.store(true);
  }
  const TimePoint s0 = Now();
  st = engine.Start();
  const TimePoint s1 = Now();
  rec.configure_s = SecondsBetween(c0, c1);
  rec.start_s = SecondsBetween(s0, s1);
  if (!st.ok()) {
    g_count_allocs.store(false);
    rec.ok = false;
    rec.error = "Start: " + st.message();
    return rec;
  }

  std::unique_ptr<Sampler> sampler;
  if (rec.traced) sampler = std::make_unique<Sampler>(&engine, !kill, layers);

  // The generator thread feeds; this thread waits, so it also drives any
  // recovery (StreamEngine recovers from within the wait).
  const bool paced = seg == Segment::kOpen;
  const TimePoint t0 = Now() + std::chrono::milliseconds(paced ? 5 : 0);
  FeedResult feed;
  std::thread generator(
      [&] { Feed(s, w.pools(), q.get(), paced, rec.traced, t0, &feed); });
  const bool finished = engine.WaitUntilFinishedFor(kRunTimeout);
  const TimePoint done = Now();
  generator.join();
  TimePoint resumed{};
  if (sampler != nullptr) {
    sampler->Stop();
    resumed = sampler->resumed();
    sampler.reset();
  }
  g_count_allocs.store(false);

  rec.pushed = static_cast<int64_t>(s.size());
  rec.seconds = SecondsBetween(feed.first, done);
  if (!finished) {
    engine.Stop();
    rec.ok = false;
    rec.error = "run did not finish within the timeout";
    return rec;
  }
  if (!engine.RunResult().ok()) {
    rec.ok = false;
    rec.error = "run failed: " + engine.RunResult().message();
  }
  rec.dropped = engine.DroppedElements();
  if (const RecoveryManager* r = engine.recovery()) {
    rec.recoveries = r->completed_recoveries();
    rec.recovery_ms = static_cast<double>(r->last_recovery_latency_micros()) * 1e-3;
  }
  rec.kills = ks->fired ? 1 : 0;
  if (kill && (rec.kills != 1 || rec.recoveries != 1)) {
    rec.ok = false;
    rec.error = "expected one kill and one recovery, got " +
                std::to_string(rec.kills) + " and " +
                std::to_string(rec.recoveries);
  }
  rec.verdict = w.Check(seg, *q);

  if (paced) {
    rec.lag_us = std::move(feed.lag_us);
    auto sample = [&](int64_t trigger, TimePoint arrival) {
      const int64_t due_ns = s.due_ns[static_cast<size_t>(trigger)];
      const double us =
          static_cast<double>(NsBetween(t0 + nanoseconds(due_ns), arrival)) *
          1e-3;
      (due_ns < s.low_end_ns ? rec.lat_low_us : rec.lat_high_us).push_back(us);
    };
    if (w.windowed()) {
      // A window's answer is complete when its last group arrives.
      std::map<AppTime, std::pair<int64_t, TimePoint>> windows;
      for (const TimedRow& r : q->timed) {
        const int64_t i = w.Trigger(s, r.row);
        if (i < 0) continue;
        auto [it, fresh] = windows.try_emplace(r.row.ts, i, r.arrival);
        if (!fresh) it->second.second = std::max(it->second.second, r.arrival);
      }
      for (const auto& [end, w_answer] : windows) {
        sample(w_answer.first, w_answer.second);
      }
    } else {
      for (const TimedRow& r : q->timed) {
        const int64_t i = w.Trigger(s, r.row);
        if (i >= 0) sample(i, r.arrival);
      }
    }
  }

  if (rec.traced) {
    CollectLayers(engine, *q, rec.seconds, layers);
    layers->input += rec.pushed;
    layers->allocs += g_allocs.load();
    const columnar::PoolStats pool1 = columnar::GetPoolStats();
    layers->pool_acquires += pool1.acquires - pool0.acquires;
    layers->pool_hits += pool1.pool_hits - pool0.pool_hits;
    if (!feed.push_ns.empty()) {
      double sum = 0.0;
      for (double ns : feed.push_ns) sum += ns;
      const double mean_ns = sum / static_cast<double>(feed.push_ns.size());
      layers->push_busy_s += mean_ns * 1e-9 * static_cast<double>(rec.pushed);
      layers->push_ns.insert(layers->push_ns.end(), feed.push_ns.begin(),
                             feed.push_ns.end());
    }
    layers->drain_tail_ms.push_back(SecondsBetween(feed.closed, done) * 1e3);
    if (kill) layers->recovery_ms.push_back(rec.recovery_ms);

    const int run = tracer->Add(std::string("run.") + SegmentName(seg), c0,
                                done, -1);
    tracer->Add("api.configure", c0, c1, run);
    tracer->Add("api.start", s0, s1, run);
    tracer->Add("source.feed", feed.first, feed.closed, run);
    tracer->Add("engine.wait_after_close", feed.closed, done, run);
    if (ks->fired && resumed != TimePoint{}) {
      tracer->Add("recovery.kill_to_resumed", ks->at, resumed, run);
    }
  }
  return rec;
}

/// Configure + Start only, then an immediate close (setup_s samples).
double SetupOnly(Workload& w) {
  std::unique_ptr<Query> q = w.Build(Segment::kClosed);
  StreamEngine engine(&q->graph);
  SetStatsCollectionEnabled(false);
  const TimePoint a = Now();
  CHECK_OK(engine.Configure(w.Options()));
  CHECK_OK(engine.Start());
  const TimePoint b = Now();
  for (Source* src : q->sources) src->Close(0);
  CHECK(engine.WaitUntilFinishedFor(kRunTimeout));
  return SecondsBetween(a, b);
}

// -- Output ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> LayerMetrics(const Layers& L, const RunRecord& open,
                                 double overhead_frac,
                                 const std::vector<double>& configure_ms,
                                 const std::vector<double>& start_ms,
                                 std::vector<Metric>* per_node) {
  const double input = static_cast<double>(L.input);
  double imbalance = 0.0;
  if (!L.replica_processed.empty()) {
    double sum = 0.0, max = 0.0;
    for (int64_t p : L.replica_processed) {
      sum += static_cast<double>(p);
      max = std::max(max, static_cast<double>(p));
    }
    imbalance = Ratio(max, sum / static_cast<double>(L.replica_processed.size()));
  }
  std::string bottleneck;
  double bottleneck_busy = -1.0;
  for (const auto& [name, op] : L.ops) {
    const double busy = Ratio(op.busy_s, L.wall_s);
    per_node->push_back({"op." + name + ".busy_frac", busy, "fraction"});
    per_node->push_back({"op." + name + ".processed",
                         Ratio(static_cast<double>(op.processed) * 1e3, input),
                         "count/ktuple"});
    per_node->push_back({"op." + name + ".selectivity",
                         Ratio(static_cast<double>(op.emitted),
                               static_cast<double>(op.processed)),
                         "ratio"});
    if (busy > bottleneck_busy) {
      bottleneck_busy = busy;
      bottleneck = name;
    }
  }
  const Layers::Op top = bottleneck.empty() ? Layers::Op{} : L.ops.at(bottleneck);
  return {
      {"lat_p99_us.low", SlicedQuantile(open.lat_low_us, 0.99), "us"},
      {"lat_p99_us.high", SlicedQuantile(open.lat_high_us, 0.99), "us"},
      {"gen.lag_p99_us", Quantile(open.lag_us, 0.99), "us"},
      {"source.push_ns_p50", Quantile(L.push_ns, 0.5), "ns"},
      {"source.push_ns_p99", Quantile(L.push_ns, 0.99), "ns"},
      {"source.push_busy_frac", Ratio(L.push_busy_s, L.wall_s), "fraction"},
      {"source.drain_tail_ms", Median(L.drain_tail_ms), "ms"},
      {"queue.backlog_max", static_cast<double>(L.backlog_max), "count"},
      {"queue.peak_size_max", static_cast<double>(L.peak_size_max), "count"},
      {"queue.notify_per_ktuple",
       Ratio(static_cast<double>(L.notifications) * 1e3, input), "count/ktuple"},
      {"queue.ring_push_frac",
       Ratio(static_cast<double>(L.ring_pushes),
             static_cast<double>(L.ring_pushes + L.locked_pushes)),
       "fraction"},
      {"queue.block_waits",
       Ratio(static_cast<double>(L.block_waits) * 1e3, input), "count/ktuple"},
      {"queue.dropped", static_cast<double>(L.dropped), "count"},
      {"sched.partitions", static_cast<double>(L.partitions), "count"},
      {"sched.wakeups_per_ktuple",
       Ratio(static_cast<double>(L.wakeups) * 1e3, input), "count/ktuple"},
      {"sched.drained", Ratio(static_cast<double>(L.drained) * 1e3, input),
       "count/ktuple"},
      {"core.running_mean",
       Ratio(L.running_sum, static_cast<double>(L.running_samples)), "count"},
      {"core.stall_events", static_cast<double>(L.stall_events), "count"},
      {"op.bottleneck.busy_frac", std::max(0.0, bottleneck_busy), "fraction"},
      {"op.bottleneck.processed",
       Ratio(static_cast<double>(top.processed) * 1e3, input), "count/ktuple"},
      {"op.bottleneck.selectivity",
       Ratio(static_cast<double>(top.emitted), static_cast<double>(top.processed)),
       "ratio"},
      {"tuple.allocs_per_tuple", Ratio(static_cast<double>(L.allocs), input),
       "count"},
      {"tuple.pool_hit_frac",
       Ratio(static_cast<double>(L.pool_hits),
             static_cast<double>(L.pool_acquires)),
       "fraction"},
      {"recovery.epochs_committed",
       Ratio(static_cast<double>(L.epochs_committed) * 1e3, input),
       "count/ktuple"},
      {"recovery.snapshots_taken",
       Ratio(static_cast<double>(L.snapshots_taken) * 1e3, input),
       "count/ktuple"},
      {"recovery.state_elements", static_cast<double>(L.state_elements), "count"},
      {"recovery.commit_lag_epochs_max", static_cast<double>(L.commit_lag_max),
       "count"},
      {"recovery.replay_peak_depth", static_cast<double>(L.replay_peak_depth),
       "count"},
      {"recovery.replayed_elements",
       Ratio(static_cast<double>(L.replayed_elements) * 1e3, input),
       "count/ktuple"},
      {"recovery.recovery_ms", Median(L.recovery_ms), "ms"},
      {"shard.imbalance", imbalance, "ratio"},
      {"shard.merge_busy_frac", Ratio(L.merge_busy_s, L.wall_s), "fraction"},
      {"api.configure_ms", Median(configure_ms), "ms"},
      {"api.start_ms", Median(start_ms), "ms"},
      {"trace.overhead_frac", overhead_frac, "fraction"},
  };
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-sha") {
      a->source_sha = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Closed-loop elements per rep, sized so a rep lasts about a second or
/// less on a few cores.
std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "chain-saturate") {
    return std::make_unique<ChainWorkload>(a.seed, a.seconds, 4'000'000);
  }
  if (a.workload == "hotitems-ckpt-kill") {
    return std::make_unique<HotItemsWorkload>(a.seed, a.seconds, 400'000);
  }
  if (a.workload == "join-open") {
    // Traced, it runs its open loop twice (see Main), each half as long.
    return std::make_unique<JoinWorkload>(a.seed,
                                          a.trace ? a.seconds / 2 : a.seconds);
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: flexbench --workload "
                 "<chain-saturate|hotitems-ckpt-kill|join-open> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-sha <sha>] [--source-sha <sha>]\n";
    return 2;
  }
  const TimePoint origin = Now();
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (w == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  Tracer tracer(origin);
  Layers layers;
  std::vector<RunRecord> runs;
  std::vector<double> setup_s, configure_ms, start_ms;
  auto note_setup = [&](const RunRecord& r) {
    setup_s.push_back(r.configure_s + r.start_s);
    configure_ms.push_back(r.configure_s * 1e3);
    start_ms.push_back(r.start_s * 1e3);
  };

  // Closed-loop reps until their share of the budget is used (at least
  // three of each kind). With --trace 1, reps alternate untraced/traced.
  const bool kill = w->kill_after() > 0;
  const double closed_budget = args.seconds * w->closed_share();
  const TimePoint closed_start = Now();
  Throughput tput, tput_traced;
  bool ok = true;
  for (int rep = 0; w->closed_share() > 0; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    RunRecord r = RunEngine(*w, Segment::kClosed, kill,
                            traced ? &layers : nullptr, &tracer);
    (traced ? tput_traced : tput)
        .Add(static_cast<double>(r.pushed), r.seconds);
    if (!traced) note_setup(r);
    ok = r.ok;
    runs.push_back(std::move(r));
    if (!ok) break;
    const int min_each = 3;
    if (tput.reps >= min_each &&
        (!args.trace || tput_traced.reps >= min_each) &&
        SecondsBetween(closed_start, Now()) >= closed_budget) {
      break;
    }
  }
  for (int i = 0; i < kSetupOnlyRuns && ok; ++i) {
    setup_s.push_back(SetupOnly(*w));
  }
  // The open-loop run: low phase, then high phase. A traced workload
  // without closed-loop reps runs it twice, untraced first, so the trace
  // overhead has a baseline.
  double untraced_p50_us = 0.0;
  if (ok && args.trace && w->closed_share() == 0) {
    RunRecord r = RunEngine(*w, Segment::kOpen, false, nullptr, &tracer);
    note_setup(r);
    untraced_p50_us = SlicedQuantile(r.lat_high_us, 0.5);
    ok = r.ok;
    runs.push_back(std::move(r));
  }
  if (ok) {
    RunRecord r = RunEngine(*w, Segment::kOpen, false,
                            args.trace ? &layers : nullptr, &tracer);
    if (!args.trace) note_setup(r);
    runs.push_back(std::move(r));
  }
  const RunRecord& open = runs.back();

  bool correct = true;
  int64_t attempted = 0, failed = 0, expected = 0, matched = 0;
  for (const RunRecord& r : runs) {
    attempted += r.pushed;
    failed += r.dropped + (r.verdict.expected - r.verdict.matched);
    expected += r.verdict.expected;
    matched += r.verdict.matched;
    const bool wrong = !r.ok || r.verdict.spurious > 0 ||
                       (w->exact() && r.verdict.matched != r.verdict.expected) ||
                       r.dropped != 0;
    if (wrong) {
      correct = false;
      std::cerr << "FAILED " << SegmentName(r.segment) << " run: "
                << (r.ok ? "" : r.error + "; ") << "expected "
                << r.verdict.expected << ", matched " << r.verdict.matched
                << ", spurious " << r.verdict.spurious << ", dropped "
                << r.dropped << (r.verdict.error.empty() ? "" : "; ")
                << r.verdict.error << "\n";
    }
  }
  if (open.segment != Segment::kOpen) correct = false;

  std::vector<Metric> metrics;
  std::vector<Metric> per_node;
  // The gated end-to-end metrics go into the JSON line. The tails and the
  // recovery time are printed too, but not gated: on a shared host they
  // spread more from run to run than any bound a regression check can use.
  std::vector<Metric> ungated;
  if (!args.trace) {
    metrics = {
        {"tuples_per_s",
         tput.reps == 0 ? static_cast<double>(open.pushed) / open.seconds
                        : tput.rate(),
         "1/s"},
        {"lat_p50_us.low", SlicedQuantile(open.lat_low_us, 0.5), "us"},
        {"lat_p50_us.high", SlicedQuantile(open.lat_high_us, 0.5), "us"},
        {"recall", Ratio(static_cast<double>(matched),
                         static_cast<double>(expected)),
         "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    ungated = {
        {"lat_p99_us.low", SlicedQuantile(open.lat_low_us, 0.99), "us"},
        {"lat_p99_us.high", SlicedQuantile(open.lat_high_us, 0.99), "us"},
    };
    if (kill) {
      std::vector<double> recovery_ms;
      for (const RunRecord& r : runs) {
        if (r.kills > 0) recovery_ms.push_back(r.recovery_ms);
      }
      ungated.push_back({"recovery_ms", Median(recovery_ms), "ms"});
    }
  } else {
    const double overhead =
        tput_traced.reps == 0
            ? Ratio(SlicedQuantile(open.lat_high_us, 0.5), untraced_p50_us) -
                  1.0
            : 1.0 - Ratio(tput_traced.rate(), tput.rate());
    metrics = LayerMetrics(layers, open, overhead, configure_ms, start_ms,
                           &per_node);
  }

  for (const std::vector<Metric>* list : {&metrics, &ungated}) {
    for (const Metric& m : *list) {
      std::cout << m.name << " " << JsonNumber(m.value) << " " << m.unit
                << "\n";
    }
  }
  for (const Metric& m : per_node) {
    std::cout << "  " << m.name << " " << JsonNumber(m.value) << " " << m.unit
              << "\n";
  }

  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\n  \"provenance\": {\"git_sha\": " << JsonString(args.git_sha)
        << ", \"source_sha256\": " << JsonString(args.source_sha)
        << ", \"nproc\": " << Nproc()
        << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
        << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
        << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
        << ", \"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"run_seconds\": " << JsonNumber(args.seconds)
        << ", \"engine_runs\": " << runs.size()
        << ", \"setup_samples\": " << setup_s.size() << "},\n";
    out << "  \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ",\n  \"metrics\": " << MetricsJson(metrics)
        << ",\n  \"ungated\": " << MetricsJson(ungated)
        << ",\n  \"per_node\": " << MetricsJson(per_node) << ",\n  \"runs\": [";
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunRecord& r = runs[i];
      out << (i ? "," : "") << "\n    {\"segment\": \""
          << SegmentName(r.segment) << "\", \"traced\": "
          << (r.traced ? "true" : "false") << ", \"seconds\": "
          << JsonNumber(r.seconds) << ", \"pushed\": " << r.pushed
          << ", \"setup_s\": " << JsonNumber(r.configure_s + r.start_s)
          << ", \"expected\": " << r.verdict.expected
          << ", \"matched\": " << r.verdict.matched
          << ", \"kills\": " << r.kills << ", \"recovery_ms\": "
          << JsonNumber(r.recovery_ms) << ", \"latency_samples\": "
          << r.lat_low_us.size() + r.lat_high_us.size() << "}";
    }
    out << "\n  ],\n  \"spans\": [";
    const std::vector<Span>& spans = tracer.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      out << (i ? "," : "") << "\n    {\"id\": " << i
          << ", \"name\": " << JsonString(spans[i].name)
          << ", \"start_ns\": " << spans[i].start_ns
          << ", \"end_ns\": " << spans[i].end_ns
          << ", \"parent\": " << spans[i].parent << "}";
    }
    out << "\n  ]\n}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace flexstream

int main(int argc, char** argv) { return flexstream::bench::Main(argc, argv); }
