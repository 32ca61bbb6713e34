// Unit tests for the product explorer behind hypotheses H1/H2a
// (opentla/check/inclusion): constraint products, hidden-source movers,
// counterexample traces, and freeze-machine interplay.

#include <gtest/gtest.h>

#include "opentla/automata/freeze.hpp"
#include "opentla/ag/freeze_spec.hpp"
#include "opentla/check/inclusion.hpp"

namespace opentla {
namespace {

class InclusionTest : public ::testing::Test {
 protected:
  InclusionTest() {
    x = vars.declare("x", range_domain(0, 2));
    y = vars.declare("y", range_domain(0, 2));
  }

  CanonicalSpec stepper(VarId v, std::string name) {
    // v counts up to 2 and stays.
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::eq(ex::var(v), ex::integer(0));
    s.next = ex::land(ex::lt(ex::var(v), ex::integer(2)),
                      ex::eq(ex::primed_var(v), ex::add(ex::var(v), ex::integer(1))));
    s.sub = {v};
    return s;
  }

  CanonicalSpec bound(VarId v, std::int64_t max, std::string name) {
    // v never exceeds max (a pure safety target).
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::le(ex::var(v), ex::integer(max));
    s.next = ex::le(ex::primed_var(v), ex::integer(max));
    s.sub = {v};
    return s;
  }

  VarTable vars;
  VarId x = 0, y = 0;
};

TEST_F(InclusionTest, HoldsForImpliedBound) {
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y});
  PrefixMachine target(vars, bound(x, 2, "Bound2"));
  const ConstraintExplorer::Verdict verdict = explorer.check_target(target);
  EXPECT_TRUE(verdict.holds);
  EXPECT_GE(verdict.nodes, 3u);
}

TEST_F(InclusionTest, FailsForTighterBoundWithTrace) {
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y});
  PrefixMachine target(vars, bound(x, 1, "Bound1"));
  ConstraintExplorer::Verdict v = explorer.check_target(target);
  EXPECT_FALSE(v.holds);
  // The shortest violating trace reaches x = 2 in three states.
  ASSERT_EQ(v.counterexample.size(), 3u);
  EXPECT_EQ(v.counterexample.back()[x].as_int(), 2);
}

TEST_F(InclusionTest, MultipleTargetsShareOneExploration) {
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y});
  PrefixMachine t1(vars, bound(x, 2, "B2"));
  PrefixMachine t2(vars, bound(x, 0, "B0"));
  EXPECT_TRUE(explorer.check_target(t1).holds);
  EXPECT_FALSE(explorer.check_target(t2).holds);
}

TEST_F(InclusionTest, OneWalkChecksEveryTarget) {
  // Three targets in one exploration: B2 holds, B0 dies on the first step
  // and B1 on the second. Each verdict matches the target's own check; the
  // joint check explores the whole product, as the holding B2 needs, and
  // fewer nodes than the three checks together.
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y});
  PrefixMachine b2(vars, bound(x, 2, "B2"));
  PrefixMachine b0(vars, bound(x, 0, "B0"));
  PrefixMachine b1(vars, bound(x, 1, "B1"));
  const std::vector<ConstraintExplorer::Verdict> joint = explorer.check_targets({&b2, &b0, &b1});
  ASSERT_EQ(joint.size(), 3u);
  std::size_t separate_nodes = 0;
  for (const auto& [verdict, target] :
       {std::pair{joint[0], &b2}, std::pair{joint[1], &b0}, std::pair{joint[2], &b1}}) {
    const ConstraintExplorer::Verdict single = explorer.check_target(*target);
    separate_nodes += single.nodes;
    EXPECT_EQ(verdict.target_name, target->name());
    EXPECT_EQ(verdict.holds, single.holds) << target->name();
    EXPECT_EQ(verdict.counterexample, single.counterexample) << target->name();
    EXPECT_EQ(verdict.nodes, joint[0].nodes);
    EXPECT_EQ(verdict.stop_reason, run::StopReason::kCompleted);
  }
  EXPECT_TRUE(joint[0].holds);
  EXPECT_EQ(joint[1].counterexample.size(), 2u);
  EXPECT_EQ(joint[2].counterexample.size(), 3u);
  // x = 0, 1, 2, each with one singleton configuration per target.
  EXPECT_EQ(joint[0].nodes, 3u);
  EXPECT_LT(joint[0].nodes, separate_nodes);
}

TEST_F(InclusionTest, ExplorationStopsOnceEveryTargetHasDied) {
  // B0 dies at the first step: nothing expands after it, so x = 2 is
  // never reached. B0 and B1 together stop at B1's death, one step later.
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y});
  PrefixMachine b0(vars, bound(x, 0, "B0"));
  PrefixMachine b1(vars, bound(x, 1, "B1"));
  const ConstraintExplorer::Verdict early = explorer.check_target(b0);
  EXPECT_FALSE(early.holds);
  EXPECT_EQ(early.nodes, 2u);
  const std::vector<ConstraintExplorer::Verdict> both = explorer.check_targets({&b0, &b1});
  EXPECT_EQ(both[0].counterexample, early.counterexample);
  EXPECT_EQ(both[1].counterexample.size(), 3u);
  EXPECT_EQ(both[0].nodes, 3u);
  EXPECT_EQ(both[0].stop_reason, run::StopReason::kCompleted);
}

TEST_F(InclusionTest, HiddenSourceMoversUseMachineConfigs) {
  // A component whose moves depend on its *hidden* progress: h ticks
  // invisibly, and x may rise only when h = 2. The mover must draw h from
  // the machine configuration or it would never generate the x-step.
  VarTable v2;
  VarId xv = v2.declare("x", range_domain(0, 1));
  VarId h = v2.declare("h", range_domain(0, 2));
  CanonicalSpec s;
  s.name = "HiddenGate";
  s.init = ex::land(ex::eq(ex::var(xv), ex::integer(0)),
                    ex::eq(ex::var(h), ex::integer(0)));
  Expr tick = ex::land(ex::lt(ex::var(h), ex::integer(2)),
                       ex::eq(ex::primed_var(h), ex::add(ex::var(h), ex::integer(1))),
                       ex::unchanged({xv}));
  Expr fire = ex::land(ex::eq(ex::var(h), ex::integer(2)),
                       ex::eq(ex::primed_var(xv), ex::integer(1)), ex::unchanged({h}));
  s.next = ex::lor(tick, fire);
  s.sub = {xv, h};
  s.hidden = {h};

  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(v2, s)};
  std::vector<Mover> movers = {mover_from_spec(s, 0, s.hidden)};
  ConstraintExplorer explorer(v2, constraints, movers, s.init, s.hidden);
  // Reachability of x = 1 requires the hidden ticks: the target "x stays 0"
  // must FAIL.
  CanonicalSpec x_zero;
  x_zero.name = "XZero";
  x_zero.init = ex::eq(ex::var(xv), ex::integer(0));
  x_zero.next = ex::eq(ex::primed_var(xv), ex::integer(0));
  x_zero.sub = {xv};
  PrefixMachine target(v2, x_zero);
  ConstraintExplorer::Verdict verdict = explorer.check_target(target);
  EXPECT_FALSE(verdict.holds);
}

TEST_F(InclusionTest, FreezeMachineConstraintAllowsPostViolationStutter) {
  // Constraint: freeze("x stays 0") on <<x>>. Behaviors may break the spec
  // once, after which x is frozen; a target "x <= 1" then still holds if
  // movers can only set x to 1.
  CanonicalSpec x_zero;
  x_zero.name = "XZero";
  x_zero.init = ex::eq(ex::var(x), ex::integer(0));
  x_zero.next = ex::bottom();
  x_zero.sub = {x};
  auto inner = std::make_shared<PrefixMachine>(vars, x_zero);
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<FreezeMachine>(inner, std::vector<VarId>{x})};
  // Mover: set x to 1 (violating XZero).
  CanonicalSpec setter;
  setter.name = "Set1";
  setter.init = ex::eq(ex::var(x), ex::integer(0));
  setter.next = ex::eq(ex::primed_var(x), ex::integer(1));
  setter.sub = {x};
  std::vector<Mover> movers = {mover_from_spec(setter, -1, {y})};
  ConstraintExplorer explorer(vars, constraints, movers, x_zero.init, {y});
  PrefixMachine ok(vars, bound(x, 1, "Bound1"));
  EXPECT_TRUE(explorer.check_target(ok).holds);
  // But after the violation x is frozen at 1: "x stays 0 forever" fails,
  // while "x never reaches 2" holds because the freeze blocks any further
  // change.
  PrefixMachine never2(vars, bound(x, 1, "Never2"));
  EXPECT_TRUE(explorer.check_target(never2).holds);
}

TEST_F(InclusionTest, FreezeMachineAgreesWithExplicitFreezeSpec) {
  // Two realizations of C(E)_{+v} — the semantic FreezeMachine transform
  // and the explicit canonical form with a hidden "abandoned" flag
  // (ag/freeze_spec) — must give identical verdicts as explorer
  // constraints.
  VarTable v2;
  VarId xv = v2.declare("x", range_domain(0, 2));
  VarId flag = v2.declare("__b", bool_domain());

  CanonicalSpec e;  // E: x stays 0
  e.name = "XZero";
  e.init = ex::eq(ex::var(xv), ex::integer(0));
  e.next = ex::bottom();
  e.sub = {xv};

  CanonicalSpec stepper;  // mover: x counts up
  stepper.name = "Step";
  stepper.init = e.init;
  stepper.next = ex::land(ex::lt(ex::var(xv), ex::integer(2)),
                          ex::eq(ex::primed_var(xv), ex::add(ex::var(xv), ex::integer(1))));
  stepper.sub = {xv};

  auto verdicts = [&](std::shared_ptr<const SafetyMachine> freeze_constraint) {
    std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
        std::move(freeze_constraint)};
    std::vector<Mover> movers = {mover_from_spec(stepper, -1, {flag})};
    ConstraintExplorer explorer(v2, constraints, movers, e.init, {flag});
    std::vector<bool> out;
    for (std::int64_t bound : {0, 1, 2}) {
      CanonicalSpec target;
      target.name = "Bound" + std::to_string(bound);
      target.init = ex::le(ex::var(xv), ex::integer(bound));
      target.next = ex::le(ex::primed_var(xv), ex::integer(bound));
      target.sub = {xv};
      PrefixMachine m(v2, target);
      out.push_back(explorer.check_target(m).holds);
    }
    return out;
  };

  auto semantic = verdicts(std::make_shared<FreezeMachine>(
      std::make_shared<PrefixMachine>(v2, e), std::vector<VarId>{xv}));
  auto explicit_form =
      verdicts(std::make_shared<PrefixMachine>(v2, freeze_spec(e, {xv}, flag)));
  EXPECT_EQ(semantic, explicit_form);
  // The freeze constraint lets E be broken once (x reaches 1) and then
  // pins x: bound 0 fails, bounds 1 and 2 hold.
  EXPECT_EQ(semantic, (std::vector<bool>{false, true, true}));
}

TEST_F(InclusionTest, NodeLimitStopsGracefully) {
  CanonicalSpec sx = stepper(x, "SX");
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
      std::make_shared<PrefixMachine>(vars, sx)};
  std::vector<Mover> movers = {mover_from_spec(sx, 0, {y})};
  ExploreOptions opts;
  opts.max_states = 1;
  ConstraintExplorer explorer(vars, constraints, movers, sx.init, {y}, opts);
  // A target that never dies: the cap stops the exploration at one node,
  // and the verdict found no violation only on that partial product.
  const ConstraintExplorer::Verdict verdict = explorer.check_target(*constraints[0]);
  EXPECT_EQ(verdict.nodes, 1u);
  EXPECT_TRUE(verdict.holds);
  EXPECT_EQ(verdict.stop_reason, run::StopReason::kStateBudget);
}

}  // namespace
}  // namespace opentla
