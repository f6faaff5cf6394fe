#include "core/cad_options.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace cad::core {
namespace {

TEST(CadOptionsTest, DefaultsAreValid) {
  CadOptions options;
  EXPECT_TRUE(options.Validate(10000).ok());
}

TEST(CadOptionsTest, WindowAndStepConstraints) {
  CadOptions options;
  options.window = 0;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.window = 100;
  options.step = 0;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.step = 100;  // s must be strictly < w
  EXPECT_FALSE(options.Validate(1000).ok());
  options.step = 99;
  EXPECT_TRUE(options.Validate(1000).ok());
  EXPECT_FALSE(options.Validate(99).ok());  // window > length
}

TEST(CadOptionsTest, ThresholdRanges) {
  CadOptions options;
  options.tau = -0.1;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.tau = 1.1;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.tau = 0.5;
  options.theta = 1.5;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.theta = 0.9;
  options.eta = 0.0;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.eta = 3.0;
  options.k = 0;
  EXPECT_FALSE(options.Validate(1000).ok());

  // Every comparison with NaN is false, so a range check written as
  // "reject when below or above" would let NaN through.
  const std::pair<const char*, double CadOptions::*> fields[] = {
      {"tau", &CadOptions::tau},
      {"theta", &CadOptions::theta},
      {"eta", &CadOptions::eta},
      {"window_mark_fraction", &CadOptions::window_mark_fraction}};
  for (const auto& [name, field] : fields) {
    CadOptions with_nan;
    with_nan.*field = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(with_nan.Validate(1000).ok()) << name << " = NaN";
  }
}

TEST(CadOptionsTest, RcWindowAndFixedXi) {
  CadOptions options;
  options.rc_window = -1;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.rc_window = 0;  // full history is legal
  EXPECT_TRUE(options.Validate(1000).ok());
  options.use_sigma_rule = false;
  options.fixed_xi = 0;
  EXPECT_FALSE(options.Validate(1000).ok());
  options.fixed_xi = 1;
  EXPECT_TRUE(options.Validate(1000).ok());
}

TEST(CadOptionsTest, EffectiveBurnInAuto) {
  CadOptions options;
  options.rc_window = 8;
  options.burn_in_rounds = -1;
  EXPECT_EQ(options.EffectiveBurnIn(), 8);
  options.rc_window = 1;
  EXPECT_EQ(options.EffectiveBurnIn(), 2);  // floor of 2
  options.burn_in_rounds = 5;  // explicit override wins
  EXPECT_EQ(options.EffectiveBurnIn(), 5);
  options.burn_in_rounds = 0;  // explicit zero disables burn-in
  EXPECT_EQ(options.EffectiveBurnIn(), 0);
}

TEST(CadOptionsTest, EffectiveAttributionCutAuto) {
  CadOptions options;
  options.theta = 0.8;
  options.attribution_rc_cut = -1.0;
  EXPECT_DOUBLE_EQ(options.EffectiveAttributionCut(), 0.6);
  options.attribution_rc_cut = 0.25;
  EXPECT_DOUBLE_EQ(options.EffectiveAttributionCut(), 0.25);
}

}  // namespace
}  // namespace cad::core
