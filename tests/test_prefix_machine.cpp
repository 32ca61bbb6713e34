// Unit tests for prefix machines (subset construction over hidden
// variables), the freeze transform, and machine products
// (opentla/automata).

#include <gtest/gtest.h>

#include "opentla/automata/freeze.hpp"
#include "opentla/automata/prefix_machine.hpp"
#include "opentla/automata/product.hpp"

namespace opentla {
namespace {

// Universe: visible flag f in {0,1}, hidden counter h in {0,1,2}.
// Spec: f starts 0; h counts invisibly to 2, after which f may flip to 1.
class HiddenCounterTest : public ::testing::Test {
 protected:
  HiddenCounterTest() {
    f = vars.declare("f", range_domain(0, 1));
    h = vars.declare("h", range_domain(0, 2));

    spec.name = "HiddenCounter";
    spec.init = ex::land(ex::eq(ex::var(f), ex::integer(0)),
                         ex::eq(ex::var(h), ex::integer(0)));
    Expr tick = ex::land(ex::lt(ex::var(h), ex::integer(2)),
                         ex::eq(ex::primed_var(h), ex::add(ex::var(h), ex::integer(1))),
                         ex::unchanged({f}));
    Expr flip = ex::land(ex::eq(ex::var(h), ex::integer(2)),
                         ex::eq(ex::primed_var(f), ex::integer(1)), ex::unchanged({h}));
    spec.next = ex::lor(tick, flip);
    spec.sub = {f, h};
    spec.hidden = {h};
  }

  State st(std::int64_t fv, std::int64_t hv = 0) {
    return State({Value::integer(fv), Value::integer(hv)});
  }

  VarTable vars;
  VarId f = 0, h = 0;
  CanonicalSpec spec;
};

TEST_F(HiddenCounterTest, InitialConfigEnumeratesHiddenWitnesses) {
  PrefixMachine m(vars, spec);
  Value cfg = m.initial(st(0));
  EXPECT_TRUE(m.alive(cfg));
  EXPECT_EQ(cfg.length(), 1u);  // h = 0 is the only witness
  EXPECT_FALSE(m.alive(m.initial(st(1))));
}

TEST_F(HiddenCounterTest, HiddenStepsAccumulateDuringVisibleStutter) {
  PrefixMachine m(vars, spec);
  Value cfg = m.initial(st(0));
  // A visible stutter lets h either stay (stuttering) or tick.
  cfg = m.step(cfg, st(0), st(0));
  EXPECT_EQ(cfg.length(), 2u);  // h in {0, 1}
  cfg = m.step(cfg, st(0), st(0));
  EXPECT_EQ(cfg.length(), 3u);  // h in {0, 1, 2}
}

TEST_F(HiddenCounterTest, VisibleFlipRequiresEnoughHiddenProgress) {
  PrefixMachine m(vars, spec);
  Value cfg = m.initial(st(0));
  // Immediately flipping f is not yet explained by any hidden run.
  EXPECT_FALSE(m.alive(m.step(cfg, st(0), st(1))));
  // After two stutters, h = 2 is a witness and the flip is allowed.
  cfg = m.step(cfg, st(0), st(0));
  cfg = m.step(cfg, st(0), st(0));
  Value after = m.step(cfg, st(0), st(1));
  EXPECT_TRUE(m.alive(after));
  EXPECT_EQ(after.length(), 1u);  // only h = 2 explains the flip
}

TEST_F(HiddenCounterTest, DeadConfigStaysDead) {
  PrefixMachine m(vars, spec);
  Value dead = m.step(m.initial(st(0)), st(0), st(1));
  EXPECT_FALSE(m.alive(dead));
  EXPECT_FALSE(m.alive(m.step(dead, st(1), st(1))));
}

TEST_F(HiddenCounterTest, MachineWithoutHiddenVariables) {
  CanonicalSpec visible;
  visible.name = "FlagStaysZero";
  visible.init = ex::eq(ex::var(f), ex::integer(0));
  visible.next = ex::bottom();
  visible.sub = {f};
  PrefixMachine m(vars, visible);
  Value cfg = m.initial(st(0));
  EXPECT_TRUE(m.alive(cfg));
  cfg = m.step(cfg, st(0), st(0));
  EXPECT_TRUE(m.alive(cfg));
  // Any f change violates [][FALSE]_f.
  EXPECT_FALSE(m.alive(m.step(cfg, st(0), st(1))));
  // Irrelevant variables may change freely (h is not in the subscript).
  EXPECT_TRUE(m.alive(m.step(cfg, st(0, 0), st(0, 2))));
}

TEST_F(HiddenCounterTest, StutterShortcutFiresOnlyWhereAStutterCannotMoveTheHiddenPart) {
  // HiddenCounter's tick moves h while f stutters: no shortcut.
  EXPECT_FALSE(PrefixMachine(vars, spec).stutter_keeps_config());
  // Without a hidden variable a visible stutter keeps <<>>.
  CanonicalSpec visible;
  visible.name = "FlagStaysZero";
  visible.init = ex::eq(ex::var(f), ex::integer(0));
  visible.next = ex::bottom();
  visible.sub = {f};
  EXPECT_TRUE(PrefixMachine(vars, visible).stutter_keeps_config());
  // Every step flips f, so a visible stutter can only take the stuttering
  // branch, which keeps the configuration as it is.
  CanonicalSpec flips = spec;
  flips.name = "FlipWithHiddenTick";
  flips.next = ex::land(ex::eq(ex::primed_var(f), ex::sub(ex::integer(1), ex::var(f))),
                        ex::eq(ex::primed_var(h), ex::mod(ex::add(ex::var(h), ex::integer(1)),
                                                          ex::integer(3))));
  PrefixMachine m(vars, flips);
  ASSERT_TRUE(m.stutter_keeps_config());
  const Value cfg = m.step(m.initial(st(0)), st(0), st(1));
  EXPECT_EQ(cfg.length(), 1u);  // h = 1
  EXPECT_EQ(m.step(cfg, st(1, 2), st(1, 0)), cfg);
}

TEST_F(HiddenCounterTest, HiddenOutsideSubscriptRejected) {
  CanonicalSpec bad = spec;
  bad.sub = {f};
  EXPECT_THROW(PrefixMachine(vars, bad), std::runtime_error);
}

TEST_F(HiddenCounterTest, FreezeMachineSemantics) {
  // Freeze C(spec) on <<f>>: once the spec is violated, f must not change.
  auto inner = std::make_shared<PrefixMachine>(vars, spec);
  FreezeMachine fm(inner, {f});
  Value cfg = fm.initial(st(0));
  EXPECT_TRUE(fm.alive(cfg));
  // Kill the inner machine with an unexplained flip; the freeze branch
  // survives this step (the freeze happens "now", constraining later steps).
  cfg = fm.step(cfg, st(0), st(1));
  EXPECT_TRUE(fm.alive(cfg));
  // f is now frozen at 1: keeping it is fine...
  Value kept = fm.step(cfg, st(1), st(1));
  EXPECT_TRUE(fm.alive(kept));
  // ...but changing it kills the freeze branch too.
  Value changed = fm.step(cfg, st(1), st(0));
  EXPECT_FALSE(fm.alive(changed));
}

TEST_F(HiddenCounterTest, FreezeOnDeadInitialStateStillAlive) {
  // Even from a state violating Init, the n = 0 freeze (v constant from the
  // first state) applies.
  auto inner = std::make_shared<PrefixMachine>(vars, spec);
  FreezeMachine fm(inner, {f});
  Value cfg = fm.initial(st(1));
  EXPECT_TRUE(fm.alive(cfg));
  EXPECT_TRUE(fm.alive(fm.step(cfg, st(1), st(1))));
  EXPECT_FALSE(fm.alive(fm.step(cfg, st(1), st(0))));
}

TEST_F(HiddenCounterTest, ProductMachineConjunction) {
  CanonicalSpec visible;
  visible.name = "FlagStaysZero";
  visible.init = ex::eq(ex::var(f), ex::integer(0));
  visible.next = ex::bottom();
  visible.sub = {f};

  auto a = std::make_shared<PrefixMachine>(vars, spec);
  auto b = std::make_shared<PrefixMachine>(vars, visible);
  ProductMachine prod({a, b});
  Value cfg = prod.initial(st(0));
  EXPECT_TRUE(prod.alive(cfg));
  cfg = prod.step(cfg, st(0), st(0));
  cfg = prod.step(cfg, st(0), st(0));
  EXPECT_TRUE(prod.alive(cfg));
  // The flip satisfies `spec` (h = 2 witness) but violates FlagStaysZero,
  // so the product dies.
  EXPECT_FALSE(prod.alive(prod.step(cfg, st(0), st(1))));
  EXPECT_EQ(prod.num_factors(), 2u);
}

}  // namespace
}  // namespace opentla
