// Unit tests for runtime CPU detection (common/cpu_features.h) and the
// SIMD lane dispatch contract (profile/score_kernel_simd.h): the active
// lane is resolved once from P3Q_SIMD, unusable or unknown requests fall
// back with a warning instead of crashing, and an explicit request is
// never silently widened.
#include "common/cpu_features.h"

#include <algorithm>
#include <string>

#include "profile/score_kernel_simd.h"

#include "gtest/gtest.h"

namespace p3q {
namespace {

TEST(CpuFeaturesTest, DetectionIsInternallyConsistent) {
  const CpuFeatures& f = HostCpuFeatures();
  // AVX2/AVX-512 imply the AVX foundation and OS state saving; usability
  // can never exceed what CPUID + XCR0 jointly advertise.
  if (f.Avx2Usable()) {
    EXPECT_TRUE(f.avx2);
    EXPECT_TRUE(f.os_ymm);
  }
  if (f.Avx512Usable()) {
    EXPECT_TRUE(f.avx512f);
    EXPECT_TRUE(f.avx512bw);
    EXPECT_TRUE(f.avx512vl);
    EXPECT_TRUE(f.os_zmm);
    // ZMM state saving subsumes YMM state saving on every real kernel.
    EXPECT_TRUE(f.os_ymm);
  }
#ifdef P3Q_SCORE_KERNEL_SIMD_X86
  // This binary only builds its x86 lanes on x86-64, where POPCNT shipped
  // long before AVX2.
  if (f.avx2) {
    EXPECT_TRUE(f.popcnt);
  }
#endif
}

TEST(CpuFeaturesTest, ToStringNamesEveryDetectedFlag) {
  const CpuFeatures& f = HostCpuFeatures();
  const std::string s = CpuFeaturesToString(f);
  EXPECT_FALSE(s.empty());
  if (f.avx2) {
    EXPECT_NE(s.find("avx2"), std::string::npos);
  }
  if (f.avx512f) {
    EXPECT_NE(s.find("avx512f"), std::string::npos);
  }
  if (f.os_ymm) {
    EXPECT_NE(s.find("ymm"), std::string::npos);
  }
}

TEST(SimdDispatchTest, ScalarLaneIsAlwaysAvailable) {
  EXPECT_TRUE(SimdLaneCompiled(SimdLane::kScalar));
  EXPECT_TRUE(SimdLaneUsable(SimdLane::kScalar));
  const std::vector<SimdLane> lanes = UsableSimdLanes();
  ASSERT_FALSE(lanes.empty());
  EXPECT_EQ(lanes.front(), SimdLane::kScalar);
  // Usability is detection-gated, never broader than compiled support.
  for (const SimdLane lane : lanes) {
    EXPECT_TRUE(SimdLaneCompiled(lane));
  }
  EXPECT_EQ(SimdLaneUsable(SimdLane::kAvx2), HostCpuFeatures().Avx2Usable() &&
                                                 SimdLaneCompiled(
                                                     SimdLane::kAvx2));
}

TEST(SimdDispatchTest, LaneNamesAreStable) {
  EXPECT_STREQ(SimdLaneName(SimdLane::kScalar), "scalar");
  EXPECT_STREQ(SimdLaneName(SimdLane::kAvx2), "avx2");
  EXPECT_STREQ(SimdLaneName(SimdLane::kAvx512), "avx512");
}

TEST(SimdDispatchTest, ResolveHonoursOffAliases) {
  for (const char* request : {"off", "scalar", "none", "OFF", "Scalar"}) {
    const SimdResolution res = ResolveSimdLane(request);
    EXPECT_EQ(res.lane, SimdLane::kScalar) << request;
    EXPECT_TRUE(res.warning.empty()) << request;
  }
}

TEST(SimdDispatchTest, ResolveAutoPicksAUsableLaneSilently) {
  for (const char* request : {"", "auto", "AUTO"}) {
    const SimdResolution res = ResolveSimdLane(request);
    EXPECT_TRUE(SimdLaneUsable(res.lane)) << request;
    EXPECT_TRUE(res.warning.empty()) << request;
  }
}

/// Regression: an unsupported or misspelled P3Q_SIMD value must resolve to
/// a usable lane with a warning — never crash, never run an illegal
/// instruction path.
TEST(SimdDispatchTest, UnknownValueFallsBackWithWarning) {
  for (const char* request : {"bogus", "avx9000", "sse42", "1"}) {
    const SimdResolution res = ResolveSimdLane(request);
    EXPECT_TRUE(SimdLaneUsable(res.lane)) << request;
    EXPECT_FALSE(res.warning.empty()) << request;
    EXPECT_NE(res.warning.find(request), std::string::npos) << request;
  }
}

TEST(SimdDispatchTest, ExplicitRequestIsNeverSilentlyWidened) {
  // When the explicitly requested lane is unusable, the fallback must warn
  // and must not pick a *wider* lane than the request.
  for (const SimdLane requested : {SimdLane::kAvx2, SimdLane::kAvx512}) {
    const SimdResolution res = ResolveSimdLane(SimdLaneName(requested));
    if (SimdLaneUsable(requested)) {
      EXPECT_EQ(res.lane, requested);
      EXPECT_TRUE(res.warning.empty());
    } else {
      EXPECT_LE(static_cast<int>(res.lane), static_cast<int>(requested));
      EXPECT_TRUE(SimdLaneUsable(res.lane));
      EXPECT_FALSE(res.warning.empty());
    }
  }
}

TEST(SimdDispatchTest, SetSimdLaneClampsUnusableToScalarAndRestores) {
  const SimdLane original = ActiveSimdLane();
  // Setting every usable lane round-trips through ActiveSimdLane().
  for (const SimdLane lane : UsableSimdLanes()) {
    SetSimdLane(lane);
    EXPECT_EQ(ActiveSimdLane(), lane);
  }
  // An unusable lane request clamps to scalar instead of faulting later.
  if (!SimdLaneUsable(SimdLane::kAvx512)) {
    SetSimdLane(SimdLane::kAvx512);
    EXPECT_EQ(ActiveSimdLane(), SimdLane::kScalar);
  }
  SetSimdLane(original);
  EXPECT_EQ(ActiveSimdLane(), original);
}

}  // namespace
}  // namespace p3q
