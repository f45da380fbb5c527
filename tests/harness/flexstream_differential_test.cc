// The differential correctness tier (see src/testing/differential.h).
//
// Every test here compares scheduled executions against the
// single-threaded source-driven golden run. The matrix tests cover
// (graph seed) x (scheduler architecture) x (level-2 strategy) x
// (queue path) — well over 50 seeded combinations under plain ctest.
//
// Opt-in modes:
//   FLEXSTREAM_DIFF_SOAK=<n>     run n extra random graph seeds through
//                                the full matrix (soak; minutes, not ms).
//   FLEXSTREAM_DIFF_REPLAY=<f>   re-run exactly the scenario recorded in
//                                replay file f (written by the harness
//                                into its artifact dir on any failure).

#include "testing/differential.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dot_export.h"
#include "test_util.h"

namespace flexstream {
namespace {

/// Runs the full default matrix for one spec and expects agreement.
void ExpectMatrixAgrees(const DiffSpec& spec, size_t* combos_run) {
  DiffRunOptions options;
  options.shrink = false;  // agreement expected; shrinking never triggers
  const DiffReport report =
      RunDifferential(spec, DefaultConfigMatrix(), options);
  if (combos_run != nullptr) *combos_run += report.configs_run;
  EXPECT_TRUE(report.ok);
  for (const DiffFailure& failure : report.failures) {
    ADD_FAILURE() << failure.config.Name() << ": " << failure.message
                  << (failure.replay_path.empty()
                          ? ""
                          : " (replay: " + failure.replay_path + ")");
  }
}

// -- The seeded matrix ------------------------------------------------------

class DifferentialMatrixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialMatrixTest, AllConfigsMatchGolden) {
  DiffSpec spec;
  spec.seed = GetParam();
  size_t combos = 0;
  ExpectMatrixAgrees(spec, &combos);
  EXPECT_GE(combos, 25u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialMatrixTest,
                         ::testing::Values(101u, 202u));

TEST(DifferentialMatrixTest, MatrixCoversAtLeastFiftyCombos) {
  // Two seeded instantiations x the default matrix: the tier's coverage
  // contract. Guards against the matrix silently shrinking.
  EXPECT_GE(2 * DefaultConfigMatrix().size(), 50u);
}

TEST(DifferentialMatrixTest, TreeGraphIsFullySequenceChecked) {
  // One source and no second inputs: every sink hangs off a pure chain, so
  // the harness applies the exact-sequence oracle everywhere.
  DiffSpec spec;
  spec.seed = 303;
  spec.source_count = 1;
  spec.second_input_probability = 0.0;
  spec.node_count = 10;
  const ExecutableDag dag = BuildDagForSpec(spec);
  ASSERT_FALSE(dag.order_checked.empty());
  for (bool ordered : dag.order_checked) EXPECT_TRUE(ordered);
  ExpectMatrixAgrees(spec, nullptr);
}

// -- Determinism ------------------------------------------------------------

TEST(DifferentialHarnessTest, DagAndGoldenAreDeterministic) {
  DiffSpec spec;
  spec.seed = 404;
  const ExecutableDag a = BuildDagForSpec(spec);
  const ExecutableDag b = BuildDagForSpec(spec);
  EXPECT_EQ(ToDot(*a.graph), ToDot(*b.graph));
  EXPECT_EQ(a.order_checked, b.order_checked);

  const SinkOutputs g1 = RunUnderConfig(spec, GoldenConfig());
  const SinkOutputs g2 = RunUnderConfig(spec, GoldenConfig());
  ASSERT_EQ(g1.per_sink.size(), g2.per_sink.size());
  for (size_t i = 0; i < g1.per_sink.size(); ++i) {
    EXPECT_EQ(g1.per_sink[i], g2.per_sink[i]) << "sink " << i;
  }
}

// -- Mutation test: the oracle must catch an injected reordering ------------

DiffConfig ReorderFaultConfig() {
  DiffConfig config;
  config.mode = ExecutionMode::kGts;
  config.strategy = StrategyKind::kFifo;
  // No rings: every drain takes the locked path the fault hooks, and burst
  // arrival guarantees multi-element batches to reverse.
  config.ring_capacity = 0;
  config.feed_before_start = true;
  config.fault = QueueOp::TestFault::kReorderDrainBatch;
  return config;
}

/// A tree spec (every sink sequence-checked): reversing a drained batch
/// keeps the multiset intact, so only the exact-sequence oracle can see it.
DiffSpec TreeSpec() {
  DiffSpec spec;
  spec.seed = 505;
  spec.source_count = 1;
  spec.second_input_probability = 0.0;
  spec.node_count = 8;
  return spec;
}

TEST(DifferentialMutationTest, InjectedReorderingIsCaught) {
  const DiffSpec spec = TreeSpec();
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());
  const SinkOutputs mutated = RunUnderConfig(spec, ReorderFaultConfig());
  const std::string mismatch = CompareOutputs(golden, mutated);
  ASSERT_FALSE(mismatch.empty())
      << "the sequence oracle must catch a pure reordering";
  EXPECT_NE(mismatch.find("sequence mismatch"), std::string::npos) << mismatch;
}

TEST(DifferentialMutationTest, ReportShrinksAndDumpsArtifacts) {
  const DiffSpec spec = TreeSpec();
  DiffRunOptions options;
  options.shrink = true;
  options.shrink_retries = 1;  // the fault is deterministic; one run suffices
  options.artifact_dir = ::testing::TempDir() + "/flexstream_diff_artifacts";
  const DiffReport report =
      RunDifferential(spec, {ReorderFaultConfig()}, options);
  ASSERT_FALSE(report.ok);
  ASSERT_EQ(report.failures.size(), 1u);
  const DiffFailure& failure = report.failures[0];
  // Shrinking must have made progress on at least one axis.
  EXPECT_LT(failure.spec.node_count * failure.spec.feed_count,
            spec.node_count * spec.feed_count);
  // The shrunk scenario still fails.
  const SinkOutputs golden = RunUnderConfig(failure.spec, GoldenConfig());
  const SinkOutputs mutated =
      RunUnderConfig(failure.spec, ReorderFaultConfig());
  EXPECT_FALSE(CompareOutputs(golden, mutated).empty());
  // Artifacts: a DOT dump and a replay file that parses back to the
  // failing scenario.
  ASSERT_FALSE(failure.dot_path.empty());
  ASSERT_FALSE(failure.replay_path.empty());
  std::ifstream dot(failure.dot_path);
  ASSERT_TRUE(dot.good());
  std::ifstream replay_in(failure.replay_path);
  ASSERT_TRUE(replay_in.good());
  std::stringstream buffer;
  buffer << replay_in.rdbuf();
  DiffSpec replay_spec;
  DiffConfig replay_config;
  std::string error;
  ASSERT_TRUE(ParseReplay(buffer.str(), &replay_spec, &replay_config, &error))
      << error;
  EXPECT_EQ(replay_spec.seed, failure.spec.seed);
  EXPECT_EQ(replay_spec.node_count, failure.spec.node_count);
  EXPECT_EQ(replay_spec.feed_count, failure.spec.feed_count);
  EXPECT_EQ(replay_config.Name(), failure.config.Name());
}

// -- Ragged batches ---------------------------------------------------------

// The ragged-batch axis must actually cut batches on the linger bound —
// a fake clock that never fires would make its identity check vacuous.
TEST(DifferentialRaggedTest, LingerFlushesCutBatchesAndResultsHold) {
  DiffSpec spec;
  spec.seed = 11;
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());
  int ragged = 0;
  for (const DiffConfig& config : DefaultConfigMatrix()) {
    if (!config.ragged_batches) continue;
    SCOPED_TRACE(config.Name());
    ++ragged;
    const SinkOutputs out = RunUnderConfig(spec, config);
    EXPECT_GT(out.linger_flushes, 0);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
  EXPECT_EQ(ragged, 6) << "{GTS, OTS, HMTS} x {row, columnar}";
}

// -- Replay files -----------------------------------------------------------

TEST(DifferentialReplayTest, FormatParseRoundTrip) {
  DiffSpec spec;
  spec.seed = 987;
  spec.node_count = 11;
  spec.source_count = 3;
  spec.second_input_probability = 0.25;
  spec.feed_count = 123;
  spec.max_burn_micros = 1.5;
  DiffConfig config;
  config.mode = ExecutionMode::kHmts;
  config.strategy = StrategyKind::kSegment;
  config.placement = PlacementKind::kChain;
  config.ring_capacity = 0;
  config.feed_before_start = true;
  config.fault = QueueOp::TestFault::kReorderDrainBatch;
  config.emit_batch_size = 64;
  config.ragged_batches = true;

  DiffSpec parsed_spec;
  DiffConfig parsed_config;
  std::string error;
  ASSERT_TRUE(ParseReplay(FormatReplay(spec, config), &parsed_spec,
                          &parsed_config, &error))
      << error;
  EXPECT_EQ(parsed_spec.seed, spec.seed);
  EXPECT_EQ(parsed_spec.node_count, spec.node_count);
  EXPECT_EQ(parsed_spec.source_count, spec.source_count);
  EXPECT_DOUBLE_EQ(parsed_spec.second_input_probability,
                   spec.second_input_probability);
  EXPECT_EQ(parsed_spec.feed_count, spec.feed_count);
  EXPECT_DOUBLE_EQ(parsed_spec.max_burn_micros, spec.max_burn_micros);
  EXPECT_EQ(parsed_config.mode, config.mode);
  EXPECT_EQ(parsed_config.strategy, config.strategy);
  EXPECT_EQ(parsed_config.placement, config.placement);
  EXPECT_EQ(parsed_config.ring_capacity, config.ring_capacity);
  EXPECT_EQ(parsed_config.feed_before_start, config.feed_before_start);
  EXPECT_EQ(parsed_config.fault, config.fault);
  EXPECT_EQ(parsed_config.emit_batch_size, config.emit_batch_size);
  EXPECT_EQ(parsed_config.ragged_batches, config.ragged_batches);
  EXPECT_EQ(parsed_config.Name(), config.Name());
}

TEST(DifferentialReplayTest, RejectsMalformedInput) {
  DiffSpec spec;
  DiffConfig config;
  std::string error;
  EXPECT_FALSE(ParseReplay("no_equals_sign", &spec, &config, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseReplay("mode=warp-drive\n", &spec, &config, &error));
  EXPECT_FALSE(ParseReplay("unknown_key=1\n", &spec, &config, &error));
  EXPECT_FALSE(ParseReplay("seed=not-a-number\n", &spec, &config, &error));
  EXPECT_FALSE(ParseReplay("source_count=0\n", &spec, &config, &error));
}

TEST(DifferentialReplayTest, ReplayFromEnvironment) {
  const char* path = std::getenv("FLEXSTREAM_DIFF_REPLAY");
  if (path == nullptr || *path == '\0') {
    GTEST_SKIP() << "set FLEXSTREAM_DIFF_REPLAY=<file> to replay a failure";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open replay file " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  DiffSpec spec;
  DiffConfig config;
  std::string error;
  ASSERT_TRUE(ParseReplay(buffer.str(), &spec, &config, &error)) << error;
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());
  const SinkOutputs candidate = RunUnderConfig(spec, config);
  EXPECT_EQ(CompareOutputs(golden, candidate), "")
      << "replayed scenario [" << config.Name() << "] still mismatches";
}

// -- Soak mode --------------------------------------------------------------

TEST(DifferentialSoakTest, RandomSeedsThroughFullMatrix) {
  const char* env = std::getenv("FLEXSTREAM_DIFF_SOAK");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "set FLEXSTREAM_DIFF_SOAK=<n> to soak n random seeds";
  }
  const int rounds = std::max(1, std::atoi(env));
  for (int round = 0; round < rounds; ++round) {
    DiffSpec spec;
    spec.seed = 1000 + static_cast<uint64_t>(round) * 7919;
    // Vary the shape across rounds too.
    spec.node_count = 10 + round % 12;
    spec.source_count = 1 + round % 3;
    SCOPED_TRACE("soak round " + std::to_string(round) + " seed " +
                 std::to_string(spec.seed));
    ExpectMatrixAgrees(spec, nullptr);
  }
}

}  // namespace
}  // namespace flexstream
