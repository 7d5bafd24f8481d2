// Long-stream metamorphic drift soak (ctest label "soak"; excluded from the
// fast PR suite, run nightly — see .github/workflows/nightly.yml).
//
// Millions of steps per spatial distribution through the full
// operator+window+audit pipeline in repair mode, with corruption injected
// periodically to prove the auditor keeps a drifting, occasionally damaged
// operator convergent with ground truth: every sampled shadow-oracle replay
// must agree on q-skyline membership exactly — zero band
// misclassifications — and the run must end with zero unrepaired
// violations.

#include <cinttypes>
#include <cstdio>

#include <gtest/gtest.h>

#include "core/audit.h"
#include "core/ssky_operator.h"
#include "stream/generator.h"
#include "stream/window.h"

namespace psky {
namespace {

constexpr int kDims = 3;
constexpr double kQ = 0.3;
constexpr size_t kWindow = 500;
constexpr uint64_t kSteps = 2'000'000;
constexpr uint64_t kOracleEvery = 200'000;
// Injection sites sit far from oracle sample points: the rotating slice
// audits the full window every (window / elements_per_audit) * audit_every
// = 1000 steps, so every injection is found and repaired long before the
// next oracle replay can see it.
constexpr uint64_t kInjectEvery = 500'000;
constexpr uint64_t kInjectPhase = 250'000;

class AuditSoakTest : public ::testing::TestWithParam<SpatialDistribution> {};

TEST_P(AuditSoakTest, MillionsOfStepsZeroBandMismatches) {
  StreamConfig cfg;
  cfg.dims = kDims;
  cfg.spatial = GetParam();
  cfg.seed = 0x50A4u ^ static_cast<uint64_t>(GetParam());

  SskyOperator op(kDims, kQ);
  CountWindow window(kWindow);
  StreamGenerator gen(cfg);

  AuditOptions options;
  options.mode = AuditMode::kRepair;
  options.audit_every = 8;
  options.elements_per_audit = 4;
  options.oracle_every = kOracleEvery;
  AuditManager audit(&op, options, AuditManager::WindowStream::Of(&window));

  uint64_t injected = 0;
  for (uint64_t step = 1; step <= kSteps; ++step) {
    const UncertainElement e = gen.Next();
    if (auto expired = window.Push(e)) op.Expire(*expired);
    op.Insert(e);

    if (step % kInjectEvery == kInjectPhase && op.skyline_count() > 0) {
      // Corrupt P_old only: P_new also drives candidate retention, so
      // damaging it can trigger an (unrepairable) eviction before the
      // auditor's next pass. P_old corruption flips the band — the failure
      // mode users observe — yet stays repairable. The immediate full
      // sweep makes detection deterministic: depending on distribution,
      // the victim can be dominated out of the candidate set (taking its
      // corruption with it) before the rotating cursor would come around.
      const SkylineMember victim = op.Skyline().back();
      const SkyTree::AuditView view =
          op.tree().LookupForAudit(victim.element.pos, victim.element.seq);
      ASSERT_TRUE(view.found);
      op.mutable_tree()->RepairElement(victim.element.pos, victim.element.seq,
                                       view.pnew_log, view.pold_log - 3.0);
      ++injected;
      EXPECT_EQ(audit.AuditAll(), 0u) << "injected corruption not repaired";
    }

    audit.Step();
  }

  EXPECT_TRUE(audit.RunOracleCheck());
  op.tree().CheckInvariants(/*deep=*/true);

  const AuditReport& r = audit.report();
  std::printf(
      "soak[%s]: steps=%" PRIu64 " audited=%" PRIu64 " injected=%" PRIu64
      " max_drift=%.3g beyond_tolerance=%" PRIu64 " repairs=%" PRIu64
      " band_flips_prevented=%" PRIu64 " false_evictions=%" PRIu64
      " oracle_replays=%" PRIu64 " oracle_mismatches=%" PRIu64
      " unrepaired=%" PRIu64 "\n",
      SpatialDistributionName(GetParam()), r.steps_seen, r.elements_audited,
      injected, r.max_drift, r.drift_beyond_tolerance, r.repairs_applied,
      r.band_flips_prevented, r.false_evictions, r.oracle_replays,
      r.oracle_mismatches, r.violations_unrepaired);

  EXPECT_EQ(r.steps_seen, kSteps);
  EXPECT_GT(injected, 0u);
  EXPECT_GE(r.drift_beyond_tolerance, injected);
  EXPECT_GE(r.repairs_applied, injected);
  EXPECT_GE(r.band_flips_prevented, injected);
  EXPECT_EQ(r.oracle_replays, kSteps / kOracleEvery + 1);
  EXPECT_EQ(r.oracle_mismatches, 0u) << "q-band misclassification vs oracle";
  EXPECT_EQ(r.false_evictions, 0u);
  EXPECT_EQ(r.violations_unrepaired, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, AuditSoakTest,
                         ::testing::Values(
                             SpatialDistribution::kAntiCorrelated,
                             SpatialDistribution::kIndependent,
                             SpatialDistribution::kCorrelated),
                         [](const auto& param_info) {
                           return std::string(
                               SpatialDistributionName(param_info.param));
                         });

}  // namespace
}  // namespace psky
