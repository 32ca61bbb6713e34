// Tests for Propositions 1-4 as reduction rules (opentla/ag/propositions)
// and for hypothesis 2(a)'s discharge by Propositions 3 and 4 (Figure 9)
// inside verify_composition.

#include <gtest/gtest.h>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/ag/propositions.hpp"
#include "opentla/check/machine_closure.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/queue/double_queue.hpp"
#include "opentla/queue/queue_spec.hpp"
#include "opentla/semantics/enumerate.hpp"
#include "opentla/tla/disjoint.hpp"

namespace opentla {
namespace {

TEST(Prop1, AcceptsSubActionFairness) {
  QueueSystem sys = make_queue_system(2, 2);
  Prop1Result r = prop1_closure(sys.specs.queue);
  EXPECT_TRUE(r.obligation);
  EXPECT_TRUE(r.closure.fairness.empty());
  EXPECT_EQ(r.closure.hidden, sys.specs.queue.hidden);
}

TEST(Prop1, RejectsFairnessOutsideNext) {
  QueueSystem sys = make_queue_system(2, 2);
  CanonicalSpec bad = sys.specs.queue;
  Fairness f;
  f.kind = Fairness::Kind::Weak;
  f.sub = bad.sub;
  // An action that is NOT a disjunct of N: acknowledging the output.
  f.action = ack_action(sys.out);
  f.label = "WF(alien)";
  bad.fairness.push_back(std::move(f));
  EXPECT_FALSE(prop1_closure(bad).obligation);
}

TEST(Prop1, SemanticCheckAgreesOnSmallSpec) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 1));
  CanonicalSpec s;
  s.name = "S";
  s.init = ex::eq(ex::var(x), ex::integer(0));
  s.next = ex::eq(ex::primed_var(x), ex::integer(1));
  s.sub = {x};
  Fairness ok;
  ok.kind = Fairness::Kind::Weak;
  ok.sub = {x};
  ok.action = s.next;
  s.fairness = {ok};
  EXPECT_TRUE(check_prop1_semantic(vars, s));
  // A fairness action that is not an [N]_v step.
  s.fairness[0].action = ex::eq(ex::primed_var(x), ex::sub(ex::integer(1), ex::var(x)));
  EXPECT_FALSE(check_prop1_semantic(vars, s));
}

TEST(Prop2, DetectsSharedHiddenVariables) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  // Legitimate: q1 and q2 are private.
  Obligation ok = prop2_side_conditions(
      sys.vars, {&sys.qe1, &sys.qm1, &sys.qm2}, sys.dbl.queue);
  EXPECT_TRUE(ok);
  // Violation: pretend both components hide q1.
  CanonicalSpec clash = sys.qm2;
  clash.hidden = {sys.q1};
  clash.sub.push_back(sys.q1);
  Obligation bad = prop2_side_conditions(sys.vars, {&sys.qm1, &clash}, sys.dbl.queue);
  EXPECT_FALSE(bad);
  EXPECT_NE(bad.detail.find("q1"), std::string::npos);
}

TEST(Prop3, SideConditionRequiresVarsInFreezeTuple) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  std::vector<VarId> all_visible = {sys.i.sig, sys.i.ack, sys.i.val, sys.z.sig, sys.z.ack,
                                    sys.z.val, sys.o.sig, sys.o.ack, sys.o.val};
  EXPECT_TRUE(prop3_side_condition(sys.vars, sys.dbl.queue.safety_part(), all_visible));
  // Dropping o from v breaks the condition (QM^dbl mentions o).
  std::vector<VarId> missing_o = {sys.i.sig, sys.i.ack, sys.i.val};
  Obligation bad = prop3_side_condition(sys.vars, sys.dbl.queue.safety_part(), missing_o);
  EXPECT_FALSE(bad);
}

TEST(Prop4, SideConditionsOnQueueComponents) {
  DoubleQueueSystem sys = make_double_queue(1, 2);
  // R = C(G) /\ C(QM^1) /\ C(QM^2). G's first tuple is QE^dbl's output
  // <i.snd, o.ack>, and QM^dbl's <i.ack, o.snd> lies in the other two.
  std::vector<CanonicalSpec> r = {sys.g, sys.qm1.safety_part(), sys.qm2.safety_part()};
  const std::vector<VarId> pinned = {sys.q1, sys.q2, sys.q};
  Obligation ok = prop4_orthogonality(sys.vars, sys.dbl.env, sys.dbl.queue, r, pinned);
  EXPECT_TRUE(ok) << ok.detail;
  EXPECT_EQ(ok.id, "Prop4[QE^dbl _|_ QM^dbl]");
  // Without G no Disjoint keeps the output tuples apart.
  r.erase(r.begin());
  Obligation no_g = prop4_orthogonality(sys.vars, sys.dbl.env, sys.dbl.queue, r, pinned);
  EXPECT_FALSE(no_g);
  EXPECT_NE(no_g.detail.find("no Disjoint"), std::string::npos) << no_g.detail;
  EXPECT_NE(no_g.detail.find("<<i.sig, i.val, o.ack>>"), std::string::npos) << no_g.detail;
  // A Disjoint whose tuple meets both output tuples does not separate them.
  r.push_back(make_disjoint({{sys.i.sig, sys.i.ack}, {sys.o.sig}}, "Coarse"));
  EXPECT_FALSE(prop4_orthogonality(sys.vars, sys.dbl.env, sys.dbl.queue, r, pinned));
}

/// x, y in {0, 1}; E = (x = 0) /\ [][FALSE]_x, M = (y = 0) /\ [][FALSE]_y
/// and M1 = (x # 0 \/ y = 0) /\ [][FALSE]_y. Under M1, x = 1, y = 1 is an
/// initial state where E and M both already fail.
struct FrozenBits {
  FrozenBits()
      : x(vars.declare("x", range_domain(0, 1))), y(vars.declare("y", range_domain(0, 1))) {
    e = frozen(x, ex::eq(ex::var(x), ex::integer(0)), "E");
    m = frozen(y, ex::eq(ex::var(y), ex::integer(0)), "M");
    m1 = frozen(y, ex::lor(ex::neq(ex::var(x), ex::integer(0)), ex::eq(ex::var(y), ex::integer(0))),
                "M1");
  }

  static CanonicalSpec frozen(VarId v, Expr init, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = std::move(init);
    s.next = ex::bottom();
    s.sub = {v};
    return s;
  }

  VarTable vars;
  VarId x, y;
  CanonicalSpec e, m, m1;
};

TEST(Prop4, InitialConditionIsCheckedOnRsInitialStates) {
  // Disjoint(<<x>>, <<y>>) keeps the output tuples apart. Under M itself
  // every initial state satisfies Init_M; under M1, R starts in x = 1,
  // y = 1, where no step is needed to falsify both.
  const FrozenBits b;
  const CanonicalSpec d = make_disjoint({{b.x}, {b.y}});
  EXPECT_TRUE(prop4_orthogonality(b.vars, b.e, b.m, {d, b.m}, {}));
  Obligation bad = prop4_orthogonality(b.vars, b.e, b.m, {d, b.m1}, {});
  EXPECT_FALSE(bad);
  EXPECT_NE(bad.detail.find("x = 1, y = 1"), std::string::npos) << bad.detail;
}

/// The obligation `id` of `report`, or nullptr.
const Obligation* find(const ProofReport& report, const std::string& id) {
  for (const Obligation& ob : report.obligations) {
    if (ob.id == id) return &ob;
  }
  return nullptr;
}

TEST(Prop3Route, DischargesH2aForTheDoubleQueue) {
  // Formula (4): Proposition 4 applies under G, so H2a is Figure 9's step
  // 2.2, a target on H1's product.
  DoubleQueueSystem sys = make_double_queue(1, 2);
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  ProofReport report = verify_composition(sys.vars, sys.components(), sys.goal(), opts);
  EXPECT_TRUE(report.all_discharged()) << report.to_string();
  const Obligation* prop4 = find(report, "Prop4[QE^dbl _|_ QM^dbl]");
  ASSERT_NE(prop4, nullptr) << report.to_string();
  EXPECT_TRUE(prop4->discharged);
  const Obligation* h1 = find(report, "H1[QE^1]");
  const Obligation* h2a = find(report, "H2a");
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2a, nullptr);
  EXPECT_EQ(h2a->method, "product-inclusion(prop3)");
  EXPECT_EQ(h2a->detail, "product nodes: 670");
  EXPECT_EQ(h1->detail, "product nodes: 670");
}

TEST(Prop3Route, FallsBackToTheFreezeProductWithoutG) {
  // Formula (3): no Disjoint keeps QE^dbl's and QM^dbl's outputs apart, so
  // Proposition 4 does not apply and H2a explores the freeze product,
  // naming the failed condition after its counts.
  DoubleQueueSystem sys = make_double_queue(1, 2);
  std::vector<AGSpec> components = {{sys.qe1, sys.qm1}, {sys.qe2, sys.qm2}};
  CompositionOptions opts;
  opts.goal_witness = {{"q", sys.qbar}};
  ProofReport report = verify_composition(sys.vars, components, sys.goal(), opts);
  for (const Obligation& ob : report.obligations) {
    EXPECT_NE(ob.id.rfind("Prop4", 0), 0u) << ob.id;
  }
  const Obligation* h2a = find(report, "H2a");
  ASSERT_NE(h2a, nullptr);
  EXPECT_EQ(h2a->method, "product-inclusion(freeze)");
  EXPECT_EQ(h2a->detail.rfind("product nodes: ", 0), 0u) << h2a->detail;
  EXPECT_EQ(h2a->detail.find("\nnot by Propositions 3/4: no Disjoint"), h2a->detail.find('\n'))
      << h2a->detail;
}

TEST(Prop3Route, FreezeFallbackStartsFromRsInitialStates) {
  // C(E)_{+v} holds on a behavior that fails Init_E and never changes v, so
  // the freeze product must start from every initial state of R, not only
  // from those satisfying Init_E. Under the one component TRUE +> M1,
  // x = 1, y = 1 forever satisfies C(E)_{+v} /\ C(M1) and falsifies C(M);
  // (TRUE +> M1) => (E +> M) fails on it too.
  const FrozenBits b;
  const AGSpec goal{b.e, b.m};
  std::vector<AGSpec> components = {{trivial_assumption(), b.m1}};
  const Formula conclusion = tf::implies(components[0].to_formula(), goal.to_formula());
  ASSERT_FALSE(check_validity_bounded(b.vars, conclusion, /*max_len=*/1).valid);

  auto expect_refuted = [&](const ProofReport& report, const std::string& refusal) {
    EXPECT_FALSE(report.all_discharged()) << report.to_string();
    const Obligation* h2a = find(report, "H2a");
    ASSERT_NE(h2a, nullptr);
    EXPECT_FALSE(h2a->discharged);
    EXPECT_FALSE(h2a->inconclusive);
    EXPECT_EQ(h2a->method, "product-inclusion(freeze)");
    EXPECT_NE(h2a->detail.find(refusal), std::string::npos) << h2a->detail;
    EXPECT_NE(h2a->detail.find("counterexample (1 states):\n  state 0: x = 1, y = 1"),
              std::string::npos)
        << h2a->detail;
  };
  expect_refuted(verify_composition(b.vars, components, goal), "no Disjoint");
  // With TRUE +> Disjoint(<<x>>, <<y>>), Proposition 4's initial condition
  // refuses the route first.
  components.push_back(property_as_ag(make_disjoint({{b.x}, {b.y}})));
  expect_refuted(verify_composition(b.vars, components, goal), "satisfies neither Init");
}

TEST(HiddenAssumption, TheoremHandlesHiddenVariablesInE) {
  // A goal assumption with its own hidden variable: an environment with an
  // internal credit of 2 sends, EE k : ... Under it, a capacity-1 queue
  // implements a capacity-2 queue even with liveness — the environment can
  // never overfill it... actually at most 2 sends fit a 1-queue only if
  // drained; what we check is the plain corollary instance
  // (E +> M) => (E +> M) threading the hidden-E machinery end to end, plus
  // a false goal that must be refuted.
  VarTable vars;
  Channel in = declare_channel(vars, "i", range_domain(0, 1));
  Channel out = declare_channel(vars, "o", range_domain(0, 1));
  VarId k = vars.declare("k", range_domain(0, 2));
  VarId q = vars.declare("q", seq_domain(range_domain(0, 1), 2));

  // E: the queue environment with a hidden send credit.
  CanonicalSpec env;
  env.name = "BoundedEnv";
  env.init = ex::land(channel_init(in), ex::eq(ex::var(k), ex::integer(2)));
  Expr put = ex::land({ex::gt(ex::var(k), ex::integer(0)), send_any_action(in),
                       ex::eq(ex::primed_var(k), ex::sub(ex::var(k), ex::integer(1))),
                       channel_unchanged(out)});
  Expr get = ex::land(ack_action(out), channel_unchanged(in), ex::unchanged({k}));
  env.next = ex::lor(put, get);
  env.sub = {in.sig, in.val, out.ack, k};
  env.hidden = {k};

  QueueSpecs m = build_queue_specs(vars, in, out, q, /*capacity=*/1, "^h");
  CompositionOptions opts;
  opts.goal_witness = {{"q", ex::var(q)}, {"k", ex::constant(Value::integer(0))}};
  ProofReport identity = verify_refinement_corollary(vars, env, m.queue, m.queue, opts);
  EXPECT_TRUE(identity.all_discharged()) << identity.to_string();

  // A stronger goal guarantee — "the queue never acknowledges anything"
  // (its output i.ack stays 0) — must be refuted under the same E.
  CanonicalSpec silent;
  silent.name = "Silent";
  silent.init = ex::eq(ex::var(in.ack), ex::integer(0));
  silent.next = ex::bottom();
  silent.sub = {in.ack};
  ProofReport refuted = verify_refinement_corollary(vars, env, m.queue, silent, opts);
  EXPECT_FALSE(refuted.all_discharged());
}

TEST(MachineClosure, GraphCheckDetectsNonClosedSpec) {
  // x may step to 1; SF on a step that is enabled only at x = 1 while the
  // system can get stuck at... construct a spec where a reachable state has
  // no fair continuation: next allows 0->1 and 1->2; fairness demands
  // infinitely many 0->1 steps; from state 2 nothing is enabled and the
  // 0->1 step can never recur, yet WF is satisfiable (disabled forever) —
  // so instead demand SF on 0->1 with a trap: SF is satisfied when the
  // action is eventually never enabled. To genuinely break machine
  // closure, use fairness on an action outside N: every behavior reaching
  // 2 can still only stutter, but the fairness action 2->0 is NOT in N, so
  // <A>_v steps never happen while A stays enabled at 2: no fair
  // continuation from 2.
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 2));
  CanonicalSpec s;
  s.name = "Trap";
  s.init = ex::eq(ex::var(x), ex::integer(0));
  Expr step01 = ex::land(ex::eq(ex::var(x), ex::integer(0)),
                         ex::eq(ex::primed_var(x), ex::integer(1)));
  Expr step12 = ex::land(ex::eq(ex::var(x), ex::integer(1)),
                         ex::eq(ex::primed_var(x), ex::integer(2)));
  s.next = ex::lor(step01, step12);
  s.sub = {x};
  Fairness wf;
  wf.kind = Fairness::Kind::Weak;
  wf.sub = {x};
  wf.action = ex::land(ex::eq(ex::var(x), ex::integer(2)),
                       ex::eq(ex::primed_var(x), ex::integer(0)));  // not in N!
  wf.label = "WF(escape)";
  s.fairness = {wf};

  EXPECT_FALSE(check_prop1_syntactic(s));

  StateGraph g = build_composite_graph(vars, {{s.safety_part(), true}});
  MachineClosureResult mc = check_machine_closure_on_graph(g, s);
  EXPECT_FALSE(mc.machine_closed) << mc.detail;
}

}  // namespace
}  // namespace opentla
