// End-to-end reproduction of Sections A.4-A.5: two queues in series
// implement a (2N+1)-element queue.
//
//   - CDQ => CQ^dbl by refinement mapping (Section A.4);
//   - the Composition Theorem instance (4):
//       G /\ (QE^1 +> QM^1) /\ (QE^2 +> QM^2)  =>  (QE^dbl +> QM^dbl)
//     with all hypotheses discharged mechanically (Figure 9);
//   - the unconditioned implication (3) — without G — is INVALID, with a
//     concrete counterexample step.

#include <gtest/gtest.h>

#include <algorithm>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/ag/propositions.hpp"
#include "opentla/automata/freeze.hpp"
#include "opentla/check/inclusion.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/obs/obs.hpp"
#include "opentla/queue/double_queue.hpp"

namespace opentla {
namespace {

class DoubleQueueTest : public ::testing::Test {
 protected:
  DoubleQueueTest() : sys(make_double_queue(/*capacity=*/1, /*num_values=*/2)) {}

  CompositionOptions options() {
    CompositionOptions opts;
    opts.goal_witness = {{"q", sys.qbar}};
    return opts;
  }

  DoubleQueueSystem sys;
};

TEST_F(DoubleQueueTest, RenamedComponentsActOnTheRightChannels) {
  // QM^1 = QM[z/o, q1/q] buffers in q1 and writes z.
  FreeVars fv1 = free_vars(sys.qm1.next);
  EXPECT_TRUE(fv1.primed.contains(sys.q1));
  EXPECT_TRUE(fv1.primed.contains(sys.z.sig));
  EXPECT_FALSE(fv1.primed.contains(sys.o.sig));
  EXPECT_FALSE(fv1.primed.contains(sys.q));
  // QM^2 = QM[z/i, q2/q] reads z and writes o.
  FreeVars fv2 = free_vars(sys.qm2.next);
  EXPECT_TRUE(fv2.primed.contains(sys.q2));
  EXPECT_TRUE(fv2.primed.contains(sys.o.sig));
  EXPECT_FALSE(fv2.primed.contains(sys.i.sig));
}

TEST_F(DoubleQueueTest, CdqRefinesTheBigQueue) {
  // Section A.4: CDQ => CQ^dbl via the refinement mapping
  // q |-> q2 \o buffer(z) \o q1.
  StateGraph low = build_composite_graph(
      sys.vars, {{make_cdq(sys).unhidden(), true},
                 {make_pin(sys.vars, {sys.q}, "PinQ"), false}},
      /*free_tuples=*/{}, /*pinned=*/{sys.q});
  EXPECT_GT(low.num_states(), 20u);

  RefinementMapping mapping = mapping_by_name(sys.vars, sys.vars, {{"q", sys.qbar}});
  RefinementResult r =
      check_refinement(low, make_cdq(sys).fairness, sys.dbl.complete, mapping);
  EXPECT_TRUE(r.holds) << r.failed_part << "\n"
                       << format_trace(sys.vars, r.counterexample_prefix);
}

TEST_F(DoubleQueueTest, TotalBufferedNeverExceedsTwoNPlusOne) {
  StateGraph low = build_composite_graph(
      sys.vars, {{make_cdq(sys).unhidden(), true},
                 {make_pin(sys.vars, {sys.q}, "PinQ"), false}},
      /*free_tuples=*/{}, /*pinned=*/{sys.q});
  InvariantResult r = check_invariant(
      low, ex::le(ex::len(sys.qbar), ex::integer(2 * sys.capacity + 1)));
  EXPECT_TRUE(r.holds) << format_trace(sys.vars, r.counterexample);
  // And the bound is attained (the composition really holds 2N+1 items).
  InvariantResult tight = check_invariant(
      low, ex::lt(ex::len(sys.qbar), ex::integer(2 * sys.capacity + 1)));
  EXPECT_FALSE(tight.holds);
}

TEST_F(DoubleQueueTest, CompositionTheoremProvesFormulaFour) {
  ProofReport report =
      verify_composition(sys.vars, sys.components(), sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  // Every hypothesis class appears in the report.
  bool saw_h1 = false, saw_h2a = false, saw_h2b = false;
  for (const Obligation& ob : report.obligations) {
    saw_h1 |= ob.id.rfind("H1", 0) == 0;
    saw_h2a |= ob.id == "H2a";
    saw_h2b |= ob.id == "H2b";
    // G keeps QM^1's and QM^2's steps apart, so H2b rests on no assumption.
    if (ob.id == "H2b") {
      EXPECT_EQ(ob.detail.find("[assumes"), std::string::npos) << ob.detail;
    }
  }
  EXPECT_TRUE(saw_h1 && saw_h2a && saw_h2b);
  // H1's product build is shared by both H1 targets: charged to the proof,
  // not hidden outside every timer.
  EXPECT_GT(report.h1_build_millis, 0.0);
  double total_ms = report.h1_build_millis;
  for (const Obligation& ob : report.obligations) total_ms += ob.millis;
  EXPECT_DOUBLE_EQ(report.total_millis(), total_ms);
  EXPECT_NE(report.to_string().find("[shared] H1 product build"), std::string::npos);
}

TEST_F(DoubleQueueTest, OneWalkChecksH1AndH2a) {
  // Formula (4): H1[QE1], H1[QE2] and H2a by Propositions 3/4 are checked
  // in one exploration of H1's product; no target dies, so it explores the
  // whole product, one node per product node (each configuration is a
  // singleton).
  ProofReport proved = verify_composition(sys.vars, sys.components(), sys.goal(), options());
  ASSERT_TRUE(proved.all_discharged()) << proved.to_string();
  std::size_t product_targets = 0;
  for (const Obligation& ob : proved.obligations) {
    if (ob.method != "product-inclusion" && ob.method != "product-inclusion(prop3)") continue;
    ++product_targets;
    EXPECT_EQ(ob.detail, "product nodes: 670");
  }
  EXPECT_EQ(product_targets, 3u);
  // Formula (3): both H1 targets die, each with its own shortest
  // counterexample, and the exploration stops at the second death, after
  // 108 of the product's 670 nodes.
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport refuted = verify_composition(sys.vars, components, sys.goal(), options());
  std::vector<std::string> details;
  for (const Obligation& ob : refuted.obligations) {
    if (ob.id.rfind("H1[", 0) == 0) details.push_back(ob.detail);
  }
  ASSERT_EQ(details.size(), 2u);
  EXPECT_EQ(details[0].rfind("product nodes: 108\ncounterexample (5 states)", 0), 0u)
      << details[0];
  EXPECT_EQ(details[1].rfind("product nodes: 108\ncounterexample (7 states)", 0), 0u)
      << details[1];
}

TEST_F(DoubleQueueTest, H1IdsAreUniqueWhenAssumptionsShareAName) {
  // Two components assume TRUE: each H1 id names its position. Names used
  // once keep their plain id.
  std::vector<AGSpec> components = sys.components();
  ASSERT_EQ(components[0].assumption.name, "TRUE");
  components.push_back(components[0]);
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  std::vector<std::string> h1;
  for (const Obligation& ob : report.obligations) {
    if (ob.id.rfind("H1[", 0) == 0) h1.push_back(ob.id);
  }
  EXPECT_EQ(h1, (std::vector<std::string>{"H1[TRUE]#1", "H1[" + sys.qe1.name + "]",
                                          "H1[" + sys.qe2.name + "]", "H1[TRUE]#4"}));
}

TEST_F(DoubleQueueTest, FormulaThreeWithoutGIsInvalid) {
  // Dropping the interleaving side condition G makes the composition claim
  // false (Section A.5 explains why: simultaneous output changes).
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_FALSE(report.all_discharged());
  // The failure must come with a concrete counterexample trace.
  bool found_failure_with_trace = false;
  bool saw_h2b = false;
  for (const Obligation& ob : report.obligations) {
    if (!ob.discharged && ob.detail.find("counterexample") != std::string::npos) {
      found_failure_with_trace = true;
    }
    if (ob.id != "H2b") continue;
    // Without G nothing keeps the queues' buffers from changing in one
    // step: H2b's complete system assumes it, and its detail says so.
    saw_h2b = true;
    EXPECT_NE(ob.detail.find("[assumes HiddenInterleaving]"), std::string::npos) << ob.detail;
  }
  EXPECT_TRUE(found_failure_with_trace) << report.to_string();
  EXPECT_TRUE(saw_h2b);
}

/// The value of `var` in state `index` of the trace printed in `detail`.
std::string traced_value(const std::string& detail, int index, const std::string& var) {
  const std::string state = "state " + std::to_string(index) + ": ";
  const std::size_t line = detail.find(state);
  if (line == std::string::npos) return "";
  const std::size_t end = detail.find('\n', line);
  const std::size_t at = detail.find(var + " = ", line);
  if (at == std::string::npos || at > end) return "";
  const std::size_t from = at + var.size() + 3;
  return detail.substr(from, detail.find_first_of(",\n", from) - from);
}

TEST_F(DoubleQueueTest, FreezeBreakingStepIsExploredBesideAnotherMoversStep) {
  // Without G, Proposition 4 does not apply, and H2a explores the freeze
  // product. Its C(QE^dbl)_{+v} admits one step that breaks QE^dbl. The
  // product explores such a step beside another mover's action step, where
  // QE^dbl's subscript ranges freely, and never alone. Formula (3) at N = 1
  // fails H2a with a 3-state counterexample, found after 42 nodes: its
  // last step is QM^1's Enq (i.ack flips) with o.ack flipping although
  // o.sig = o.ack, which no QE^dbl step allows.
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  const Obligation* h2a = nullptr;
  for (const Obligation& ob : report.obligations) {
    if (ob.id == "H2a") h2a = &ob;
  }
  ASSERT_NE(h2a, nullptr);
  EXPECT_FALSE(h2a->discharged);
  EXPECT_FALSE(h2a->inconclusive);
  EXPECT_EQ(h2a->method, "product-inclusion(freeze)");
  EXPECT_EQ(h2a->detail.rfind("product nodes: 42\n", 0), 0u) << h2a->detail;
  EXPECT_NE(h2a->detail.find("counterexample (3 states)"), std::string::npos) << h2a->detail;
  for (const std::string var : {"i.ack", "o.ack"}) {
    EXPECT_NE(traced_value(h2a->detail, 1, var), traced_value(h2a->detail, 2, var)) << var;
  }
  EXPECT_EQ(traced_value(h2a->detail, 1, "o.sig"), traced_value(h2a->detail, 1, "o.ack"));

  // The whole freeze product, as the verifier builds it, checked against a
  // target that never dies: 1170 nodes, because it starts from every
  // initial state of C(QM^1) /\ C(QM^2), Init_QE^dbl or not.
  const AGSpec goal = sys.goal();
  const std::vector<VarId> normalize = {sys.q1, sys.q2, sys.q};
  std::vector<VarId> plus_v;
  for (VarId v = 0; v < sys.vars.size(); ++v) {
    if (std::find(normalize.begin(), normalize.end(), v) == normalize.end()) plus_v.push_back(v);
  }
  std::vector<std::shared_ptr<const SafetyMachine>> constraints = {std::make_shared<FreezeMachine>(
      std::make_shared<PrefixMachine>(sys.vars, goal.assumption), plus_v)};
  std::vector<Mover> movers = {mover_from_spec(goal.assumption, 0, normalize)};
  std::vector<Expr> inits;
  for (const AGSpec& c : components) {
    const CanonicalSpec closure = prop1_closure(c.guarantee).closure;
    movers.push_back(mover_from_spec(closure, static_cast<int>(constraints.size()), normalize));
    constraints.push_back(std::make_shared<PrefixMachine>(sys.vars, closure));
    inits.push_back(closure.init);
  }
  const ConstraintExplorer freeze(sys.vars, constraints, movers, ex::land(std::move(inits)),
                                  normalize);
  CanonicalSpec always;
  always.name = "TRUE";
  always.init = ex::top();
  always.next = ex::top();
  const ConstraintExplorer::Verdict whole = freeze.check_target(PrefixMachine(sys.vars, always));
  EXPECT_TRUE(whole.holds);
  EXPECT_EQ(whole.stop_reason, run::StopReason::kCompleted);
  EXPECT_EQ(whole.nodes, 1170u);
}

TEST_F(DoubleQueueTest, H2bBuildGeneratesNoMoreCandidatesThanItKeeps) {
  // Regression guard on Figure 9's H2b complete system at N = 2: with G
  // recognized, each component's steps are generated alone, so the
  // candidates stay within edges plus states (generate-and-test enumerated
  // 69 896 for 12 310 edges).
  const DoubleQueueSystem big = make_double_queue(/*capacity=*/2, /*num_values=*/2);
  const AGSpec goal = big.goal();
  std::vector<CompositePart> parts = {{goal.assumption, true}};
  for (const AGSpec& c : big.components()) {
    parts.push_back({c.guarantee.unhidden(), c.guarantee_is_mover});
  }
  parts.push_back({make_pin(big.vars, {big.q}, "PinUnconstrained"), false});
  obs::reset();
  obs::set_enabled(true);
  const StateGraph low = build_composite_graph(big.vars, parts, {}, {big.q});
  const obs::Snapshot snap = obs::snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(low.num_states(), 3574u);
  EXPECT_EQ(low.num_edges(), 12310u);
  if (obs::compile_time_enabled()) {
    EXPECT_LE(snap.counter(obs::Counter::SuccessorsEnumerated),
              low.num_edges() + low.num_states());
  }
}

TEST_F(DoubleQueueTest, RefinementCorollaryWfSplitEquivalence) {
  // Figure 6's remark, proved via the Corollary in both directions: the
  // queue with WF(Enq) /\ WF(Deq) and the queue with WF(QM) implement each
  // other under the environment assumption QE.
  QueueSpecs q = build_queue_specs(sys.vars, sys.i, sys.o, sys.q, sys.capacity, "^wf");
  CanonicalSpec split = q.queue;
  split.name = "QM^split";
  split.fairness.clear();
  for (const auto& [action, label] :
       {std::pair{q.enq, "WF(Enq)"}, std::pair{q.deq, "WF(Deq)"}}) {
    Fairness wf;
    wf.kind = Fairness::Kind::Weak;
    wf.sub = q.queue.sub;
    wf.action = action;
    wf.label = label;
    split.fairness.push_back(std::move(wf));
  }
  CompositionOptions opts;
  opts.goal_witness = {{"q", ex::var(sys.q)}};
  ProofReport fwd = verify_refinement_corollary(sys.vars, q.env, split, q.queue, opts);
  EXPECT_TRUE(fwd.all_discharged()) << fwd.to_string();
  ProofReport bwd = verify_refinement_corollary(sys.vars, q.env, q.queue, split, opts);
  EXPECT_TRUE(bwd.all_discharged()) << bwd.to_string();
}

TEST_F(DoubleQueueTest, SmallerQueueRefinesLargerForSafetyButNotLiveness) {
  // The safety part of an N-queue implements the safety part of an
  // (N+1)-queue (every behavior is allowed), but NOT the full spec: the
  // bigger queue's WF promises to accept a second item the small queue
  // rejects. Both facts are checked; the liveness failure comes with a
  // lasso counterexample.
  QueueSpecs bigger = build_queue_specs(sys.vars, sys.i, sys.o, sys.q,
                                        sys.capacity + 1, "^bigger");
  QueueSpecs smaller = build_queue_specs(sys.vars, sys.i, sys.o, sys.q,
                                         sys.capacity, "^smaller");
  CompositionOptions opts;
  opts.goal_witness = {{"q", ex::var(sys.q)}};
  ProofReport safety = verify_refinement_corollary(
      sys.vars, smaller.env, smaller.queue.safety_part(), bigger.queue.safety_part(), opts);
  EXPECT_TRUE(safety.all_discharged()) << safety.to_string();
  ProofReport full = verify_refinement_corollary(sys.vars, smaller.env, smaller.queue,
                                                 bigger.queue, opts);
  EXPECT_FALSE(full.all_discharged());
  bool liveness_failed = false;
  for (const Obligation& ob : full.obligations) {
    if (!ob.discharged && ob.id == "H2b") liveness_failed = true;
  }
  EXPECT_TRUE(liveness_failed) << full.to_string();
}

TEST_F(DoubleQueueTest, RefinementCorollaryRejectsWrongDirection) {
  // The converse — a bigger queue implementing a smaller one — must fail:
  // the 2-queue can hold two items, which the 1-queue's guarantee forbids.
  QueueSpecs bigger = build_queue_specs(sys.vars, sys.i, sys.o, sys.q,
                                        sys.capacity + 1, "^bigger");
  QueueSpecs smaller = build_queue_specs(sys.vars, sys.i, sys.o, sys.q,
                                         sys.capacity, "^smaller");
  CompositionOptions opts;
  opts.goal_witness = {{"q", ex::var(sys.q)}};
  ProofReport report = verify_refinement_corollary(sys.vars, bigger.env, bigger.queue,
                                                   smaller.queue, opts);
  EXPECT_FALSE(report.all_discharged());
}

}  // namespace
}  // namespace opentla
