// The calibration subsystem: cost-profile JSON round-trips, planner kernel
// choices flipping under synthetic profiles, EWMA refinement from measured
// stats, corrupt/missing-file fallback, and plan-cache interaction
// (fingerprint invalidation on a materially changed profile).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/calibration.h"
#include "core/exec_context.h"
#include "core/planner.h"
#include "core/query_cache.h"
#include "core/rma.h"
#include "sql/database.h"
#include "test_util.h"

namespace rma {
namespace {

using testing::RandomKeyedRelation;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ArgShape Shape(int64_t rows, int64_t cols) {
  ArgShape s;
  s.rows = rows;
  s.cols = cols;
  return s;
}

/// A profile that inverts the analytic ordering: the BAT families are nearly
/// free while the contiguous path (gather/flop/scatter) is exorbitant.
CostProfilePtr BatAlwaysWinsProfile() {
  auto p = std::make_shared<CostProfile>(CostProfile::Analytic());
  for (CostKernel k : {CostKernel::kBatStream, CostKernel::kBatAxpy,
                       CostKernel::kBatDecomp, CostKernel::kBatTranspose,
                       CostKernel::kBatFetch}) {
    p->Set(k, {1e-6, 0.0, CostSource::kProbed, 0});
  }
  for (CostKernel k :
       {CostKernel::kDenseFlop, CostKernel::kGather, CostKernel::kScatter}) {
    p->Set(k, {1e3, 0.0, CostSource::kProbed, 0});
  }
  return p;
}

/// The mirror image: BAT work is exorbitant, the contiguous path nearly free.
CostProfilePtr DenseAlwaysWinsProfile() {
  auto p = std::make_shared<CostProfile>(CostProfile::Analytic());
  for (CostKernel k : {CostKernel::kBatStream, CostKernel::kBatAxpy,
                       CostKernel::kBatDecomp, CostKernel::kBatTranspose,
                       CostKernel::kBatFetch}) {
    p->Set(k, {1e3, 0.0, CostSource::kProbed, 0});
  }
  for (CostKernel k :
       {CostKernel::kDenseFlop, CostKernel::kGather, CostKernel::kScatter}) {
    p->Set(k, {1e-6, 0.0, CostSource::kProbed, 0});
  }
  return p;
}

// --- JSON round-trip ----------------------------------------------------------

TEST(CostProfileJsonTest, RoundTripsThroughJson) {
  CostProfile profile = CostProfile::Analytic();
  profile.Set(CostKernel::kBatFetch, {3.25e-9, 1.5e-7, CostSource::kProbed, 0});
  profile.Set(CostKernel::kDenseFlop, {7.5e-10, 0.0, CostSource::kRefined, 12});
  ASSERT_OK_AND_ASSIGN(const CostProfile parsed,
                       CostProfile::FromJson(profile.ToJson()));
  const KernelCost fetch = parsed.Get(CostKernel::kBatFetch);
  EXPECT_DOUBLE_EQ(fetch.per_element, 3.25e-9);
  EXPECT_DOUBLE_EQ(fetch.fixed, 1.5e-7);
  EXPECT_EQ(fetch.source, CostSource::kProbed);
  const KernelCost flop = parsed.Get(CostKernel::kDenseFlop);
  EXPECT_EQ(flop.source, CostSource::kRefined);
  EXPECT_EQ(flop.refinements, 12);
  // Untouched entries keep the analytic constants.
  EXPECT_DOUBLE_EQ(parsed.Get(CostKernel::kBatAxpy).per_element, 1.5);
  // A parsed profile accepts refinement (it is a real measurement basis).
  EXPECT_TRUE(parsed.refinable());
}

TEST(CostProfileJsonTest, RoundTripsThroughFile) {
  const std::string path = TempPath("calibration_roundtrip.json");
  CostProfile profile = CostProfile::Analytic();
  profile.Set(CostKernel::kSort, {9.9e-9, 2e-6, CostSource::kProbed, 0});
  ASSERT_OK(profile.SaveFile(path));
  ASSERT_OK_AND_ASSIGN(const CostProfile loaded,
                       CostProfile::LoadFile(path));
  EXPECT_DOUBLE_EQ(loaded.Get(CostKernel::kSort).per_element, 9.9e-9);
  EXPECT_EQ(loaded.Fingerprint(), profile.Fingerprint());
  std::remove(path.c_str());
}

TEST(CostProfileJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(CostProfile::FromJson("").ok());
  EXPECT_FALSE(CostProfile::FromJson("not json at all").ok());
  EXPECT_FALSE(CostProfile::FromJson("{\"version\": 1}").ok());  // no kernels
  EXPECT_FALSE(CostProfile::FromJson("{\"version\": 99, \"kernels\": {}}")
                   .ok());
  // Non-positive rates are rejected (a zero rate would break cost ratios).
  EXPECT_FALSE(
      CostProfile::FromJson(
          "{\"version\": 1, \"kernels\": {\"sort\": "
          "{\"per_element\": 0, \"fixed\": 0}}}")
          .ok());
}

TEST(CostProfileJsonTest, IgnoresUnknownKernelNames) {
  // Forward compatibility: newer files may name families this binary does
  // not know; they parse and are skipped.
  ASSERT_OK_AND_ASSIGN(
      const CostProfile parsed,
      CostProfile::FromJson(
          "{\"version\": 1, \"kernels\": {\"warp_shuffle\": "
          "{\"per_element\": 1e-9, \"fixed\": 0}}}"));
  EXPECT_DOUBLE_EQ(parsed.Get(CostKernel::kBatStream).per_element, 1.0);
}

// --- planner integration ------------------------------------------------------

TEST(CalibratedPlannerTest, SyntheticProfileFlipsKernelChoice) {
  // cpd over a wide shape delegates to dense under the analytic model; a
  // profile where BUNfetch is nearly free and the contiguous path exorbitant
  // must flip it to the column-at-a-time kernel — and vice versa for an
  // element-wise op that analytically stays on BATs.
  const ArgShape wide = Shape(100000, 50);
  RmaOptions opts;
  const OpPlan analytic = PlanOp(MatrixOp::kCpd, opts, wide, &wide);
  ASSERT_EQ(analytic.kernel, KernelChoice::kDense);
  EXPECT_EQ(analytic.cost_source, CostSource::kAnalytic);

  opts.cost_profile = BatAlwaysWinsProfile();
  const OpPlan flipped = PlanOp(MatrixOp::kCpd, opts, wide, &wide);
  EXPECT_EQ(flipped.kernel, KernelChoice::kBat);
  EXPECT_LT(flipped.cost_bat, flipped.cost_dense);
  EXPECT_EQ(flipped.cost_source, CostSource::kProbed);

  const ArgShape tall = Shape(1000000, 10);
  RmaOptions dense_opts;
  ASSERT_EQ(PlanOp(MatrixOp::kAdd, dense_opts, tall, &tall).kernel,
            KernelChoice::kBat);
  dense_opts.cost_profile = DenseAlwaysWinsProfile();
  EXPECT_EQ(PlanOp(MatrixOp::kAdd, dense_opts, tall, &tall).kernel,
            KernelChoice::kDense);
}

TEST(CalibratedPlannerTest, OverBudgetCeilingStillBeatsTheProfile) {
  // The memory ceiling is a hard constraint, not a cost: even a profile
  // that makes the contiguous path free must not gather past the budget.
  RmaOptions opts;
  opts.cost_profile = DenseAlwaysWinsProfile();
  opts.contiguous_budget_bytes = 1;
  const OpPlan plan = PlanOp(MatrixOp::kQqr, opts, Shape(1000, 8), nullptr);
  EXPECT_TRUE(plan.over_budget);
  EXPECT_EQ(plan.kernel, KernelChoice::kBat);
}

TEST(CalibratedPlannerTest, ExplainShowsTheFlippedKernelAndProvenance) {
  // Acceptance: with a synthetic inverted profile, EXPLAIN over SQL provably
  // selects the other kernel family and names the model that priced it.
  sql::Database db;
  db.Register("rating", rma::testing::RatingsRelation()).Abort();
  const std::string q =
      "EXPLAIN SELECT * FROM CPD(rating BY User, rating BY User)";

  auto analytic = db.Execute(q);
  ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
  std::string text;
  for (int64_t i = 0; i < analytic->num_rows(); ++i) {
    text += analytic->column(0)->GetString(i) + "\n";
  }
  EXPECT_NE(text.find("cpd kernel=dense"), std::string::npos) << text;
  EXPECT_NE(text.find("cost-model=analytic"), std::string::npos) << text;

  db.rma_options.cost_profile = BatAlwaysWinsProfile();
  auto flipped = db.Execute(q);
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  text.clear();
  for (int64_t i = 0; i < flipped->num_rows(); ++i) {
    text += flipped->column(0)->GetString(i) + "\n";
  }
  EXPECT_NE(text.find("cpd kernel=bat"), std::string::npos) << text;
  EXPECT_NE(text.find("cost-model=probed"), std::string::npos) << text;
}

// --- probes -------------------------------------------------------------------

TEST(ProbeTest, ProducesPositiveRefinableCosts) {
  ProbeOptions small;
  small.small_elements = 1 << 10;
  small.large_elements = 1 << 13;
  small.repetitions = 1;
  const CostProfile probed = ProbeCostProfile(small);
  EXPECT_TRUE(probed.refinable());
  EXPECT_EQ(probed.Source(), CostSource::kProbed);
  for (int i = 0; i < kNumCostKernels; ++i) {
    const KernelCost c = probed.Get(static_cast<CostKernel>(i));
    EXPECT_GT(c.per_element, 0) << CostKernelName(static_cast<CostKernel>(i));
    EXPECT_GE(c.fixed, 0);
    EXPECT_EQ(c.source, CostSource::kProbed);
  }
}

// --- piecewise (cache-breakpoint) cost model ----------------------------------

KernelCost PiecewiseCost() {
  KernelCost c{1e-9, 0.0, CostSource::kProbed, 0};
  c.breakpoints = {1 << 10, 1 << 16};       // l2 / l3 regime upper bounds
  c.rates = {1e-9, 2e-9, 8e-9};             // l2, l3, dram per-element rates
  return c;
}

TEST(PiecewiseCostTest, RegimeSelectionAndRates) {
  const KernelCost c = PiecewiseCost();
  EXPECT_EQ(c.NumRegimes(), 3);
  EXPECT_EQ(c.RegimeOf(0), 0);
  EXPECT_EQ(c.RegimeOf(1 << 10), 0);        // boundary is inclusive
  EXPECT_EQ(c.RegimeOf((1 << 10) + 1), 1);
  EXPECT_EQ(c.RegimeOf(1 << 16), 1);
  EXPECT_EQ(c.RegimeOf(1e12), 2);           // last regime is unbounded
  EXPECT_DOUBLE_EQ(c.RateFor(100), 1e-9);
  EXPECT_DOUBLE_EQ(c.RateFor(1 << 14), 2e-9);
  EXPECT_DOUBLE_EQ(c.RateFor(1e12), 8e-9);
  // A legacy single-rate entry stays linear.
  const KernelCost linear{5e-9, 1e-7, CostSource::kProbed, 0};
  EXPECT_EQ(linear.NumRegimes(), 1);
  EXPECT_DOUBLE_EQ(linear.RateFor(1e12), 5e-9);
}

TEST(PiecewiseCostTest, ProfileCostUsesTheContainingRegime) {
  CostProfile p = CostProfile::Analytic();
  p.Set(CostKernel::kDenseFlop, PiecewiseCost());
  EXPECT_DOUBLE_EQ(p.Cost(CostKernel::kDenseFlop, 100), 100 * 1e-9);
  EXPECT_DOUBLE_EQ(p.Cost(CostKernel::kDenseFlop, 1 << 14),
                   (1 << 14) * 2e-9);
  EXPECT_DOUBLE_EQ(p.Cost(CostKernel::kDenseFlop, 1e8), 1e8 * 8e-9);
  EXPECT_EQ(p.MaxRegimes(), 3);
  EXPECT_EQ(CostProfile::Analytic().MaxRegimes(), 1);
}

TEST(PiecewiseCostTest, RegimeLabels) {
  EXPECT_EQ(CostRegimeLabel(0, 1), "linear");
  EXPECT_EQ(CostRegimeLabel(0, 3), "l2");
  EXPECT_EQ(CostRegimeLabel(1, 3), "l3");
  EXPECT_EQ(CostRegimeLabel(2, 3), "dram");
  EXPECT_EQ(CostRegimeLabel(1, 2), "r1");  // non-canonical count: positional
}

TEST(PiecewiseCostTest, RefineMovesOnlyTheContainingRegime) {
  auto p = std::make_shared<CostProfile>(CostProfile::Analytic());
  p->Set(CostKernel::kDenseFlop, PiecewiseCost());
  p->set_refinable(true);
  // An observation inside the middle (l3) regime: only rates[1] moves.
  const double elements = 1 << 14;
  p->Refine(CostKernel::kDenseFlop, elements, elements * 1e-8);
  const KernelCost c = p->Get(CostKernel::kDenseFlop);
  EXPECT_DOUBLE_EQ(c.rates[0], 1e-9);
  EXPECT_DOUBLE_EQ(c.rates[2], 8e-9);
  const double expected = (1.0 - CostProfile::kRefineAlpha) * 2e-9 +
                          CostProfile::kRefineAlpha * 1e-8;
  EXPECT_NEAR(c.rates[1], expected, expected * 1e-9);
  // per_element mirrors regime 0, which did not move.
  EXPECT_DOUBLE_EQ(c.per_element, 1e-9);

  // An observation inside regime 0 keeps per_element in sync. 1024 sits at
  // the regime-0 boundary (inclusive) and at the refinement element floor.
  p->Refine(CostKernel::kDenseFlop, 1024, 1024 * 4e-9);
  const KernelCost c2 = p->Get(CostKernel::kDenseFlop);
  EXPECT_GT(c2.rates[0], 1e-9);
  EXPECT_DOUBLE_EQ(c2.per_element, c2.rates[0]);
}

TEST(PiecewiseCostTest, JsonV2RoundTripsBreakpointsAndRates) {
  CostProfile profile = CostProfile::Analytic();
  profile.Set(CostKernel::kDenseFlop, PiecewiseCost());
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"simd\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"breakpoints\""), std::string::npos) << json;
  ASSERT_OK_AND_ASSIGN(const CostProfile parsed,
                       CostProfile::FromJson(json));
  const KernelCost c = parsed.Get(CostKernel::kDenseFlop);
  ASSERT_EQ(c.NumRegimes(), 3);
  EXPECT_EQ(c.breakpoints, PiecewiseCost().breakpoints);
  EXPECT_DOUBLE_EQ(c.rates[1], 2e-9);
  EXPECT_EQ(parsed.Fingerprint(), profile.Fingerprint());
}

TEST(PiecewiseCostTest, RejectsInconsistentPiecewiseDocuments) {
  const std::string prefix = "{\"version\": 2, \"kernels\": {\"dense_flop\": ";
  // breakpoints.size() must be rates.size() - 1.
  EXPECT_FALSE(CostProfile::FromJson(
                   prefix + "{\"per_element\": 1e-9, \"fixed\": 0, "
                            "\"breakpoints\": [100, 200], "
                            "\"rates\": [1e-9, 2e-9]}}}")
                   .ok());
  // Breakpoints must be strictly ascending and positive.
  EXPECT_FALSE(CostProfile::FromJson(
                   prefix + "{\"per_element\": 1e-9, \"fixed\": 0, "
                            "\"breakpoints\": [200, 100], "
                            "\"rates\": [1e-9, 2e-9, 3e-9]}}}")
                   .ok());
  // Breakpoints without rates make no sense.
  EXPECT_FALSE(CostProfile::FromJson(
                   prefix + "{\"per_element\": 1e-9, \"fixed\": 0, "
                            "\"breakpoints\": [100]}}}")
                   .ok());
  // A non-positive regime rate is as broken as a non-positive per_element.
  EXPECT_FALSE(CostProfile::FromJson(
                   prefix + "{\"per_element\": 1e-9, \"fixed\": 0, "
                            "\"breakpoints\": [100], "
                            "\"rates\": [1e-9, 0]}}}")
                   .ok());
}

TEST(PiecewiseCostTest, ProbeWithBreakpointsYieldsMonotonicRegimeRates) {
  ProbeOptions opts;
  opts.small_elements = 1 << 10;
  opts.large_elements = 1 << 13;
  opts.repetitions = 1;
  opts.max_probe_elements = 1 << 16;  // keep the deep-regime probes fast
  const CostProfile probed = ProbeCostProfile(opts);
  const CacheSizes caches = DetectCacheSizes();
  EXPECT_GT(caches.l2_bytes, 0);
  EXPECT_GT(caches.l3_bytes, caches.l2_bytes);
  for (int i = 0; i < kNumCostKernels; ++i) {
    const KernelCost c = probed.Get(static_cast<CostKernel>(i));
    ASSERT_GE(c.NumRegimes(), 1);
    if (c.rates.empty()) continue;
    EXPECT_DOUBLE_EQ(c.per_element, c.rates[0]);
    for (size_t r = 1; r < c.rates.size(); ++r) {
      // Deeper memory is never priced cheaper: noise must not teach the
      // planner to prefer DRAM-sized working sets.
      EXPECT_GE(c.rates[r], c.rates[r - 1])
          << CostKernelName(static_cast<CostKernel>(i)) << " regime " << r;
    }
  }
}

TEST(PiecewiseCostTest, RegimeRateShiftChangesTheFingerprint) {
  auto p = std::make_shared<CostProfile>(CostProfile::Analytic());
  p->Set(CostKernel::kDenseFlop, PiecewiseCost());
  const uint64_t before = p->Fingerprint();
  KernelCost shifted = PiecewiseCost();
  shifted.rates[2] *= 4.0;  // dram regime repriced; regime 0 untouched
  p->Set(CostKernel::kDenseFlop, shifted);
  EXPECT_NE(p->Fingerprint(), before);
}

// --- refinement ---------------------------------------------------------------

TEST(RefineTest, MeasuredStatsOverrideProbeValues) {
  auto profile = std::make_shared<CostProfile>(CostProfile::Analytic());
  profile->Set(CostKernel::kDenseFlop, {1e-9, 0.0, CostSource::kProbed, 0});
  profile->set_refinable(true);
  // Observed throughput is 10x slower than the probe said: the EWMA must
  // move toward it and mark the entry refined.
  profile->Refine(CostKernel::kDenseFlop, 1e6, 1e-2);
  const KernelCost c = profile->Get(CostKernel::kDenseFlop);
  EXPECT_EQ(c.source, CostSource::kRefined);
  EXPECT_EQ(c.refinements, 1);
  EXPECT_GT(c.per_element, 1e-9);
  const double expected = (1.0 - CostProfile::kRefineAlpha) * 1e-9 +
                          CostProfile::kRefineAlpha * (1e-2 / 1e6);
  EXPECT_NEAR(c.per_element, expected, expected * 1e-9);
}

TEST(RefineTest, NonRefinableProfileIgnoresObservations) {
  CostProfile analytic = CostProfile::Analytic();
  analytic.Refine(CostKernel::kDenseFlop, 1e6, 123.0);
  EXPECT_EQ(analytic.Get(CostKernel::kDenseFlop).refinements, 0);
  EXPECT_EQ(analytic.Source(), CostSource::kAnalytic);
}

TEST(RefineTest, TinyObservationsAreDiscarded) {
  auto profile = BatAlwaysWinsProfile();
  profile->set_refinable(true);
  profile->Refine(CostKernel::kSort, 10, 1e-3);   // under the element floor
  profile->Refine(CostKernel::kSort, 1e6, 0.0);   // no measurable time
  EXPECT_EQ(profile->Get(CostKernel::kSort).refinements, 0);
}

TEST(RefineTest, ExecutionFeedsMeasuredStatsIntoTheProfile) {
  // Close the loop end-to-end: run a real operation with a refinable profile
  // attached and watch the measured stage seconds land in it.
  Rng rng(21);
  const Relation r = RandomKeyedRelation(4000, 6, &rng);
  auto profile = std::make_shared<CostProfile>(CostProfile::Analytic());
  profile->set_refinable(true);
  RmaOptions opts;
  opts.cost_profile = profile;
  ExecContext ctx(opts);
  ASSERT_OK(RmaUnary(&ctx, MatrixOp::kQqr, r, {"id"}).status());
  // qqr delegates to the dense kernel: flops = 2nk^2 >> the element floor,
  // so the kernel stage must have refined kDenseFlop (and the copies their
  // families, sizes permitting).
  EXPECT_GT(profile->Get(CostKernel::kDenseFlop).refinements, 0);
  EXPECT_EQ(profile->Get(CostKernel::kDenseFlop).source, CostSource::kRefined);
  EXPECT_EQ(profile->Source(), CostSource::kRefined);

  // Refinement must not apply when the options opt out.
  auto frozen = std::make_shared<CostProfile>(CostProfile::Analytic());
  frozen->set_refinable(true);
  RmaOptions no_refine;
  no_refine.cost_profile = frozen;
  no_refine.refine_cost_profile = false;
  ExecContext ctx2(no_refine);
  ASSERT_OK(RmaUnary(&ctx2, MatrixOp::kQqr, r, {"id"}).status());
  EXPECT_EQ(frozen->Get(CostKernel::kDenseFlop).refinements, 0);
}

// --- corrupt / missing files --------------------------------------------------

TEST(CalibrationFileTest, MissingFileIsAnIoErrorNotACrash) {
  const auto result = CostProfile::LoadFile(TempPath("does_not_exist.json"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(CalibrationFileTest, CorruptFileFallsBackToAnalyticConstants) {
  const std::string path = TempPath("corrupt_calibration.json");
  {
    std::ofstream f(path);
    f << "{\"version\": 1, \"kernels\": {\"bat_stream\": GARBAGE";
  }
  // Resolution through options must warn (stderr) and serve the analytic
  // constants — same plans as an uncalibrated run, and no crash.
  RmaOptions opts;
  opts.calibration_path = path;
  const CostProfilePtr resolved = ResolveCostProfile(opts);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->Source(), CostSource::kAnalytic);
  EXPECT_FALSE(resolved->refinable());
  EXPECT_DOUBLE_EQ(resolved->Get(CostKernel::kBatFetch).per_element, 12.0);
  // The planner keeps working on top of the fallback.
  const OpPlan plan =
      PlanOp(MatrixOp::kCpd, opts, Shape(100000, 50), nullptr);
  EXPECT_EQ(plan.kernel, KernelChoice::kDense);
  std::remove(path.c_str());
}

TEST(CalibrationFileTest, MissingPathProbesOnceAndSaves) {
  const std::string path = TempPath("probe_once_calibration.json");
  std::remove(path.c_str());
  RmaOptions opts;
  opts.calibration_path = path;
  const CostProfilePtr first = ResolveCostProfile(opts);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->Source(), CostSource::kProbed);
  // The probe result was persisted for the next process...
  std::ifstream f(path);
  EXPECT_TRUE(f.good());
  // ...and re-resolution within this process is memoized (same instance,
  // no second probe pass).
  EXPECT_EQ(ResolveCostProfile(opts).get(), first.get());
  std::remove(path.c_str());
}

// --- resolution & plan-cache interaction --------------------------------------

TEST(ResolveCostProfileTest, ExplicitProfileWinsOverPathAndDefault) {
  auto explicit_profile = BatAlwaysWinsProfile();
  RmaOptions opts;
  opts.cost_profile = explicit_profile;
  opts.calibration_path = TempPath("never_touched.json");
  EXPECT_EQ(ResolveCostProfile(opts).get(), explicit_profile.get());
  std::ifstream f(opts.calibration_path);
  EXPECT_FALSE(f.good());  // the path was not consulted, let alone written
}

TEST(ResolveCostProfileTest, DefaultIsAnalyticAndStable) {
  RmaOptions opts;
  const CostProfilePtr a = ResolveCostProfile(opts);
  EXPECT_EQ(a.get(), ResolveCostProfile(opts).get());
  EXPECT_FALSE(a->refinable());
}

TEST(CostProfileFingerprintTest, MaterialShiftChangesFingerprintJitterDoesNot) {
  auto p = std::make_shared<CostProfile>(CostProfile::Analytic());
  const uint64_t before = p->Fingerprint();
  // ~2% jitter: quantized away.
  p->Set(CostKernel::kDenseFlop, {1.02, 0.0, CostSource::kRefined, 1});
  EXPECT_EQ(p->Fingerprint(), before);
  // 4x shift: a different model.
  p->Set(CostKernel::kDenseFlop, {4.0, 0.0, CostSource::kRefined, 2});
  EXPECT_NE(p->Fingerprint(), before);
}

TEST(CostProfileFingerprintTest, ChangedProfileInvalidatesCachedPlans) {
  RmaOptions a;
  RmaOptions b;
  b.cost_profile = BatAlwaysWinsProfile();
  // Different pricing must produce a different plan-cache fingerprint: a
  // plan recorded under the analytic model cannot serve the flipped one.
  EXPECT_NE(QueryCache::OptionsFingerprint(a),
            QueryCache::OptionsFingerprint(b));
}

}  // namespace
}  // namespace rma
