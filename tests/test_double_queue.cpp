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

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/refinement.hpp"
#include "opentla/compose/compose.hpp"
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

TEST_F(DoubleQueueTest, FormulaThreeWithoutGIsInvalid) {
  // Dropping the interleaving side condition G makes the composition claim
  // false (Section A.5 explains why: simultaneous output changes).
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), options());
  EXPECT_FALSE(report.all_discharged());
  // The failure must come with a concrete counterexample trace.
  bool found_failure_with_trace = false;
  for (const Obligation& ob : report.obligations) {
    if (!ob.discharged && ob.detail.find("counterexample") != std::string::npos) {
      found_failure_with_trace = true;
    }
  }
  EXPECT_TRUE(found_failure_with_trace) << report.to_string();
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
