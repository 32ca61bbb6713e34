// Unit tests for the orthogonality checker (opentla/check/orthogonality)
// and its agreement with Proposition 4 and the lasso oracle.

#include <gtest/gtest.h>

#include "opentla/ag/propositions.hpp"
#include "opentla/check/orthogonality.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/semantics/enumerate.hpp"
#include "opentla/semantics/oracle.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {
namespace {

class OrthogonalityTest : public ::testing::Test {
 protected:
  OrthogonalityTest() {
    x = vars.declare("x", range_domain(0, 1));
    y = vars.declare("y", range_domain(0, 1));
    ex_spec = stays_zero(x, "Ex");
    my_spec = stays_zero(y, "My");
  }

  CanonicalSpec stays_zero(VarId v, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = ex::eq(ex::var(v), ex::integer(0));
    s.next = ex::bottom();
    s.sub = {v};
    return s;
  }

  // x and y start at 0 and change freely.
  CanonicalSpec frame() const {
    CanonicalSpec f;
    f.name = "Frame";
    f.init = ex::land(ex::eq(ex::var(x), ex::integer(0)), ex::eq(ex::var(y), ex::integer(0)));
    f.next = ex::top();
    f.sub = {x, y};
    return f;
  }

  // A generator that moves x and y freely, one at a time (interleaved) or
  // together, depending on `interleaved`.
  StateGraph generator(bool interleaved) {
    std::vector<CompositePart> parts = {{frame(), false}};
    if (interleaved) parts.push_back({make_disjoint({{x}, {y}}), false});
    std::vector<std::vector<VarId>> free_tuples =
        interleaved ? std::vector<std::vector<VarId>>{{x}, {y}}
                    : std::vector<std::vector<VarId>>{{x, y}};
    return build_composite_graph(vars, parts, free_tuples);
  }

  VarTable vars;
  VarId x = 0, y = 0;
  CanonicalSpec ex_spec, my_spec;
};

TEST_F(OrthogonalityTest, InterleavedGeneratorIsOrthogonal) {
  StateGraph g = generator(/*interleaved=*/true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  OrthogonalityResult r = check_orthogonality(g, e, m);
  EXPECT_TRUE(r.holds);
  EXPECT_GT(r.pairs_visited, 0u);
}

TEST_F(OrthogonalityTest, SimultaneousMovesBreakOrthogonality) {
  StateGraph g = generator(/*interleaved=*/false);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  OrthogonalityResult r = check_orthogonality(g, e, m);
  EXPECT_FALSE(r.holds);
  // The counterexample's last step falsifies both: x and y jump together.
  ASSERT_GE(r.counterexample.size(), 2u);
  const State& last = r.counterexample.back();
  EXPECT_EQ(last[x].as_int(), 1);
  EXPECT_EQ(last[y].as_int(), 1);
}

TEST_F(OrthogonalityTest, StoppedBudgetLeavesTheSearchIncomplete) {
  StateGraph g = generator(/*interleaved=*/true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  run::RunBudget budget;
  budget.request_stop(run::StopReason::kInterrupted);
  ExploreOptions opts;
  opts.budget = &budget;
  OrthogonalityResult r = check_orthogonality(g, e, m, opts);
  // No violation was found, but the search did not finish: not a proof.
  EXPECT_NE(r.stop_reason, run::StopReason::kCompleted);
  EXPECT_TRUE(r.counterexample.empty());
}

TEST_F(OrthogonalityTest, AgreesWithOracleOnAllLassos) {
  // E _|_ M as evaluated by the oracle must match a direct prefix-machine
  // simulation on every lasso of the universe (up to length 3).
  Oracle oracle(vars);
  Formula orth = tf::orthogonal(ex_spec, my_spec);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  std::size_t checked = 0;
  for (std::size_t len = 1; len <= 3; ++len) {
    for_each_lasso(vars, len, [&](const LassoBehavior& b) {
      ++checked;
      // Direct simulation around the lasso (two full loops is enough for
      // machines whose configurations are monotone-dead here).
      bool direct = true;
      Value ce = e.initial(b.at(0));
      Value cm = m.initial(b.at(0));
      // n = 0: both vacuously hold for the empty prefix; both failing in
      // the first state already violates orthogonality.
      if (!e.alive(ce) && !m.alive(cm)) direct = false;
      std::size_t pos = 0;
      for (std::size_t k = 0; k < 2 * b.length() + 2 && direct; ++k) {
        const bool e_was = e.alive(ce);
        const bool m_was = m.alive(cm);
        std::size_t next = b.successor(pos);
        ce = e.step(ce, b.at(pos), b.at(next));
        cm = m.step(cm, b.at(pos), b.at(next));
        if (e_was && m_was && !e.alive(ce) && !m.alive(cm)) direct = false;
        pos = next;
      }
      EXPECT_EQ(oracle.evaluate(orth, b), direct) << b.to_string(vars);
      return false;
    });
  }
  EXPECT_GT(checked, 200u);
}

TEST_F(OrthogonalityTest, Prop4SyntacticAgreesWithSemanticCheck) {
  // For R = Frame /\ Disjoint(x, y), the interleaved generator, Proposition 4
  // concludes orthogonality; the semantic check confirms it.
  Obligation prop4 =
      prop4_orthogonality(vars, ex_spec, my_spec, {frame(), make_disjoint({{x}, {y}})}, {});
  EXPECT_TRUE(prop4) << prop4.detail;
  StateGraph g = generator(true);
  PrefixMachine e(vars, ex_spec);
  PrefixMachine m(vars, my_spec);
  EXPECT_TRUE(check_orthogonality(g, e, m).holds);
}

TEST_F(OrthogonalityTest, WhilePlusEquivalenceUnderOrthogonality) {
  // Section 4.2: E _|_ M implies that E -> M and E +> M agree. Verify on
  // every lasso where orthogonality holds.
  Oracle oracle(vars);
  Formula orth = tf::orthogonal(ex_spec, my_spec);
  Formula wp = tf::while_plus(ex_spec, my_spec);
  Formula aw = tf::arrow_while(ex_spec, my_spec);
  for (std::size_t len = 1; len <= 3; ++len) {
    for_each_lasso(vars, len, [&](const LassoBehavior& b) {
      if (oracle.evaluate(orth, b)) {
        EXPECT_EQ(oracle.evaluate(wp, b), oracle.evaluate(aw, b)) << b.to_string(vars);
      }
      return false;
    });
  }
}

}  // namespace
}  // namespace opentla
