// The n-ary generalization of Appendix A: three queues in series implement
// a (3N+2)-element queue, proved by the Composition Theorem with four
// components (G plus the three stages) under one environment assumption.

#include <gtest/gtest.h>

#include <algorithm>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {
namespace {

class TripleQueueTest : public ::testing::Test {
 protected:
  TripleQueueTest() : sys(make_triple_queue(/*capacity=*/1, /*num_values=*/2)) {}

  CompositionOptions options() const {
    CompositionOptions opts;
    opts.goal_witness = {{"q", sys.qbar}};
    return opts;
  }

  TripleQueueSystem sys;
};

TEST_F(TripleQueueTest, CompositionTheoremProvesTheChain) {
  ProofReport report =
      verify_composition(sys.vars, sys.components(), sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  // All three component assumptions appear as H1 obligations.
  int h1_count = 0;
  for (const Obligation& ob : report.obligations) {
    if (ob.id.rfind("H1[QE", 0) == 0) ++h1_count;
  }
  EXPECT_EQ(h1_count, 3);
}

TEST_F(TripleQueueTest, WithoutGTheChainFails) {
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2},
                                    {sys.qe3, sys.qm3}};
  // No G conjunct: no Disjoint filters the steps, so the explorations
  // generate every joint move of the components too.
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_FALSE(report.all_discharged());
}

TEST_F(TripleQueueTest, InterleavingOptimizationPreservesTheProof) {
  // Two independent routes to the same explorations. Route one: G as
  // built, recognized as a Disjoint, so the step generator never builds the
  // components' joint moves, and Proposition 4 discharges H2a on H1's
  // product. Route two: the same action behind a double negation, which no
  // syntactic check recognizes, so every joint move is generated and G's
  // machine (or filter) rejects it, and H2a explores the freeze product.
  // Verdicts and every other obligation's statistics must coincide. Only
  // route two's H2b names the HiddenInterleaving assumption, since there no
  // recognized Disjoint shows that G already implies it.
  std::vector<AGSpec> opaque = sys.components();
  ASSERT_FALSE(disjoint_tuples(opaque[0].guarantee).empty());
  opaque[0].guarantee.next = ex::lnot(ex::lnot(opaque[0].guarantee.next));
  ASSERT_TRUE(disjoint_tuples(opaque[0].guarantee).empty());

  ProofReport fast = verify_composition(sys.vars, sys.components(), sys.goal(), options());
  ProofReport slow = verify_composition(sys.vars, opaque, sys.goal(), options());
  EXPECT_TRUE(fast.all_discharged()) << fast.to_string();
  EXPECT_TRUE(slow.all_discharged()) << slow.to_string();
  // Route one lists Proposition 4 after Proposition 2; route two does not.
  ASSERT_EQ(fast.obligations.size(), slow.obligations.size() + 1);
  auto prop4 = std::find_if(fast.obligations.begin(), fast.obligations.end(),
                            [](const Obligation& ob) { return ob.id.rfind("Prop4[", 0) == 0; });
  ASSERT_NE(prop4, fast.obligations.end());
  EXPECT_TRUE(prop4->discharged);
  fast.obligations.erase(prop4);

  const std::string caveat = " [assumes HiddenInterleaving]";
  auto stats = [](const std::string& detail) { return detail.substr(0, detail.find('\n')); };
  for (std::size_t i = 0; i < fast.obligations.size(); ++i) {
    const Obligation& f = fast.obligations[i];
    const Obligation& s = slow.obligations[i];
    EXPECT_EQ(f.id, s.id);
    EXPECT_EQ(f.discharged, s.discharged);
    EXPECT_EQ(f.detail.find(caveat), std::string::npos) << f.id;
    if (f.id == "H2a") {
      EXPECT_EQ(f.method, "product-inclusion(prop3)");
      EXPECT_EQ(s.method, "product-inclusion(freeze)");
      EXPECT_NE(s.detail.find("\nnot by Propositions 3/4: no Disjoint"), std::string::npos)
          << s.detail;
      continue;
    }
    const std::string expected = stats(f.detail) + (f.id == "H2b" ? caveat : "");
    EXPECT_EQ(stats(s.detail), expected) << f.id;
  }
}

TEST_F(TripleQueueTest, CapacityBoundIsExactlyThreeNPlusTwo) {
  // Explore the closed chain and check |qbar| <= 3N+2 and that the bound
  // is attained.
  std::vector<CompositePart> parts = {
      {sys.big.env, true},        {sys.qm1.unhidden(), true},
      {sys.qm2.unhidden(), true}, {sys.qm3.unhidden(), true},
      {sys.g, false},             {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  obs::reset();
  obs::set_enabled(true);
  StateGraph low =
      build_composite_graph(sys.vars, parts, /*free_tuples=*/{}, /*pinned=*/{sys.q});
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(low.num_states(), 6038u);
  EXPECT_EQ(low.num_edges(), 21662u);
  if (obs::compile_time_enabled()) {
    // Regression guard: G confines each queue to its own steps, so the
    // generator emits no more candidates than the graph has edges and
    // states. Generate-and-test enumerated 17.0 M here.
    EXPECT_LE(snap.counter(obs::Counter::SuccessorsEnumerated),
              low.num_edges() + low.num_states());
  }
  const int cap = 3 * sys.capacity + 2;
  EXPECT_TRUE(check_invariant(low, ex::le(ex::len(sys.qbar), ex::integer(cap))).holds);
  EXPECT_FALSE(check_invariant(low, ex::lt(ex::len(sys.qbar), ex::integer(cap))).holds);
}

}  // namespace
}  // namespace opentla
