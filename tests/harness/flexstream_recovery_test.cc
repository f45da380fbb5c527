// Recovery tier: the differential harness run under kill/revive chaos
// with checkpointing armed (testing/chaos.h + src/recovery/). A mid-graph
// operator dies mid-run; the engine must rewind to the last committed
// epoch, replay the retained source suffix, and finish with output that
// matches the undisturbed golden run *exactly* — the CollectingSink
// truncate-on-restore gives exact epoch + arrival-sequence dedup, so no
// relaxed compare applies (exact accounting, not sub-multiset).
//
// Runs under the `check-recovery` CMake target (ctest -R "Recovery").

#include <string>

#include <gtest/gtest.h>

#include "testing/differential.h"

namespace flexstream {
namespace {

DiffSpec RecoverySpec() {
  DiffSpec spec;
  spec.seed = 202;
  spec.node_count = 12;
  spec.feed_count = 400;
  return spec;
}

/// Picks a kill target that is guaranteed a full stream of deliveries: an
/// operator fed directly by a source in the logical (queue-free) graph.
/// The same spec rebuilds the same dag, so the name is stable across runs.
std::string PickKillTarget(const DiffSpec& spec) {
  const ExecutableDag dag = BuildDagForSpec(spec);
  for (Source* src : dag.sources) {
    for (const auto& edge : static_cast<const Node*>(src)->outputs()) {
      const Node* target = edge.target;
      if (!target->is_sink() && !target->is_queue()) return target->name();
    }
  }
  return "";
}

TEST(RecoverySweepTest, KillReviveMatrixMatchesGoldenExactly) {
  const DiffSpec spec = RecoverySpec();
  const std::string kill_target = PickKillTarget(spec);
  ASSERT_FALSE(kill_target.empty())
      << "generated dag has no source-fed operator to kill";
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  for (const DiffConfig& config : RecoveryConfigMatrix(kill_target, 120)) {
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    // The kill was absorbed: the run ends healthy, having actually
    // recovered (a sweep that never killed proves nothing).
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    EXPECT_GE(out.recoveries, 1);
    EXPECT_EQ(out.recoveries, config.chaos_kills);
    EXPECT_GT(out.replayed_elements, 0);
    // The ragged axis actually cut batches on the linger bound.
    if (config.ragged_batches) EXPECT_GT(out.linger_flushes, 0);
    // Exact accounting: nothing shed, nothing dropped, output identical.
    EXPECT_EQ(out.dropped, 0);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

// Checkpointing without failures must be output-invisible across the
// standard architectures.
TEST(RecoverySweepTest, CheckpointingAloneChangesNothing) {
  const DiffSpec spec = RecoverySpec();
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  for (ExecutionMode mode :
       {ExecutionMode::kGts, ExecutionMode::kOts, ExecutionMode::kHmts}) {
    DiffConfig config;
    config.mode = mode;
    config.checkpoint_epoch_interval = 50;
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    EXPECT_EQ(out.recoveries, 0);
    EXPECT_GT(out.committed_epoch, 0u);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

// Replay files round-trip the recovery dimensions so a failing kill
// scenario can be re-run exactly.
TEST(RecoveryReplayTest, RoundTripsRecoveryFields) {
  const DiffSpec spec = RecoverySpec();
  DiffConfig config;
  config.mode = ExecutionMode::kHmts;
  config.strategy = StrategyKind::kChain;
  config.checkpoint_epoch_interval = 50;
  config.chaos_kill_operator = "n3";
  config.chaos_kill_after = 120;
  config.chaos_kills = 2;

  DiffSpec parsed_spec;
  DiffConfig parsed;
  std::string error;
  ASSERT_TRUE(
      ParseReplay(FormatReplay(spec, config), &parsed_spec, &parsed, &error))
      << error;
  EXPECT_EQ(parsed_spec.seed, spec.seed);
  EXPECT_EQ(parsed.checkpoint_epoch_interval, config.checkpoint_epoch_interval);
  EXPECT_EQ(parsed.chaos_kill_operator, config.chaos_kill_operator);
  EXPECT_EQ(parsed.chaos_kill_after, config.chaos_kill_after);
  EXPECT_EQ(parsed.chaos_kills, config.chaos_kills);
  EXPECT_EQ(parsed.Name(), config.Name());
}

}  // namespace
}  // namespace flexstream
