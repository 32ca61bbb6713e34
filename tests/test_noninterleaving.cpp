// The noninterleaving representation (the abstract's remark: "We could
// prove this had we used a noninterleaving representation of the queue"):
// with components whose actions leave their inputs free and include joint
// steps, the composition formula (3) holds WITHOUT the Disjoint side
// condition G.

#include <gtest/gtest.h>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/orthogonality.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"

namespace opentla {
namespace {

class NonInterleavingTest : public ::testing::Test {
 protected:
  NonInterleavingTest() : sys(make_double_queue_ni(/*capacity=*/1, /*num_values=*/2)) {}

  CompositionOptions options() {
    CompositionOptions opts;
    opts.goal_witness = {{"q", sys.qbar}};
    return opts;
  }

  DoubleQueueSystem sys;
};

/// R = C(QM^1) /\ C(QM^2) of `s` as a composite graph: the environment's
/// outputs <i.snd, o.ack> move freely, and the goal's buffer q is pinned.
StateGraph r_graph(const DoubleQueueSystem& s) {
  CanonicalSpec env_frame;
  env_frame.name = "EnvFrame";
  env_frame.init = ex::top();
  env_frame.next = ex::top();
  env_frame.sub = s.env_out;
  const std::vector<CompositePart> parts = {{s.qm1.safety_part().unhidden(), true},
                                            {s.qm2.safety_part().unhidden(), true},
                                            {env_frame, false},
                                            {make_pin(s.vars, {s.q}, "Pin"), false}};
  return build_composite_graph(s.vars, parts, {s.env_out}, {s.q});
}

/// Whether R = C(QM^1) /\ C(QM^2) implies C(QE^dbl) _|_ C(QM^dbl) for `s`.
bool goal_orthogonal_under_r(const DoubleQueueSystem& s) {
  return check_orthogonality(r_graph(s), PrefixMachine(s.vars, s.dbl.env),
                             PrefixMachine(s.vars, s.dbl.queue.safety_part()))
      .holds;
}

/// H2a's method in `report`.
std::string h2a_method(const ProofReport& report) {
  for (const Obligation& ob : report.obligations) {
    if (ob.id == "H2a") return ob.method;
  }
  return "";
}

TEST_F(NonInterleavingTest, JointStepsExistInTheCompleteSystem) {
  // The complete NI queue admits a step advancing both handshakes at once.
  QueueSpecs ni = build_queue_specs_ni(sys.vars, sys.i, sys.o, sys.q, 1, "^x");
  const std::vector<VarId> unused = {sys.q1, sys.q2, sys.z.sig, sys.z.ack, sys.z.val};
  StateGraph g = build_composite_graph(
      sys.vars, {{ni.complete.unhidden(), true},
                 {make_pin(sys.vars, unused, "PinUnused"), false}},
      /*free_tuples=*/{}, /*pinned=*/unused);
  bool joint_step = false;
  for (StateId u = 0; u < g.num_states() && !joint_step; ++u) {
    for (StateId v : g.successors(u)) {
      const State& s = g.state(u);
      const State& t = g.state(v);
      if (changes_tuple({sys.i.ack}, s, t) &&
          changes_tuple({sys.o.sig, sys.o.val}, s, t)) {
        joint_step = true;
        break;
      }
    }
  }
  EXPECT_TRUE(joint_step);
}

TEST_F(NonInterleavingTest, FormulaThreeHoldsWithoutG) {
  // (QE1 +> QM1) /\ (QE2 +> QM2) => (QEdbl +> QMdbl) — no G conjunct.
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
}

TEST_F(NonInterleavingTest, InterleavingVersionStillFailsWithoutG) {
  // Control: the interleaving representation over the same parameters
  // remains invalid without G (the same checker run on near-identical
  // input distinguishes the two representations).
  DoubleQueueSystem il = make_double_queue(1, 2);
  CompositionOptions opts;
  opts.goal_witness = {{"q", il.qbar}};
  std::vector<AGSpec> components = {{il.qe1, il.qm1}, {il.qe2, il.qm2}};
  ProofReport report = verify_composition(il.vars, components, il.goal(), opts);
  EXPECT_FALSE(report.all_discharged());
}

TEST_F(NonInterleavingTest, OrthogonalityHoldsForNoninterleavingWithoutG) {
  // The deeper reason formula (3) composes noninterleaved: the NI
  // assumption and guarantee are orthogonal even WITHOUT the Disjoint
  // conjunct. Each spec tolerates the other's simultaneous moves (joint
  // steps are its own actions), so no step of R falsifies both; the
  // interleaving specs are not orthogonal without G (next test).
  EXPECT_TRUE(goal_orthogonal_under_r(sys));
  // Proposition 4 sees no Disjoint among the components, so H2a explores
  // the freeze product, and it discharges there.
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_EQ(h2a_method(report), "product-inclusion(freeze)");
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
}

TEST_F(NonInterleavingTest, InterleavingSpecsAreNotOrthogonalWithoutG) {
  // Without G, R admits a step that falsifies the interleaving QE^dbl and
  // QM^dbl at once.
  EXPECT_FALSE(goal_orthogonal_under_r(make_double_queue(1, 2)));
}

TEST_F(NonInterleavingTest, NiCompositionAlsoHoldsWithG) {
  // Adding G back restricts behaviors, so the theorem instance still goes
  // through (G is merely unnecessary, not harmful).
  ProofReport report =
      verify_composition(sys.vars, sys.components(), sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  // With G, Proposition 4 applies and H2a is a target on H1's product.
  EXPECT_EQ(h2a_method(report), "product-inclusion(prop3)");
}

TEST_F(NonInterleavingTest, JointBufferUpdatePreservesTheBound) {
  // |qbar| <= 2N+1 under the NI composite as well.
  std::vector<CompositePart> parts = {
      {sys.dbl.env, true},
      {sys.qm1.unhidden(), true},
      {sys.qm2.unhidden(), true},
      {make_pin(sys.vars, {sys.q}, "PinQ"), false}};
  StateGraph low =
      build_composite_graph(sys.vars, parts, /*free_tuples=*/{}, /*pinned=*/{sys.q});
  InvariantResult r = check_invariant(
      low, ex::le(ex::len(sys.qbar), ex::integer(2 * sys.capacity + 1)));
  EXPECT_TRUE(r.holds) << format_trace(sys.vars, r.counterexample);
}

}  // namespace
}  // namespace opentla
