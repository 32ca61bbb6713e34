// Unit tests for TLC-style successor generation (opentla/graph/successor).

#include <gtest/gtest.h>

#include <algorithm>

#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"

namespace opentla {
namespace {

class SuccessorTest : public ::testing::Test {
 protected:
  SuccessorTest() {
    x = vars.declare("x", range_domain(0, 3));
    y = vars.declare("y", range_domain(0, 2));
  }
  State st(std::int64_t xv, std::int64_t yv) {
    return State({Value::integer(xv), Value::integer(yv)});
  }
  VarTable vars;
  VarId x = 0, y = 0;
};

TEST_F(SuccessorTest, AssignmentsAreDeterministic) {
  // x' = x + 1 /\ y' = y: exactly one successor (until the domain edge).
  ActionSuccessors gen(vars, ex::land(ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                                      ex::unchanged({y})));
  std::vector<State> succ = gen.successors(st(1, 2));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0], st(2, 2));
  // At the top of the domain the assignment leaves the space: no successor.
  EXPECT_TRUE(gen.successors(st(3, 0)).empty());
  EXPECT_FALSE(gen.enabled(st(3, 0)));
  EXPECT_TRUE(gen.enabled(st(0, 0)));
}

TEST_F(SuccessorTest, GuardsPruneDisjuncts) {
  Expr up = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                     ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
                     ex::unchanged({y}));
  Expr reset = ex::land(ex::eq(ex::var(x), ex::integer(3)),
                        ex::eq(ex::primed_var(x), ex::integer(0)), ex::unchanged({y}));
  ActionSuccessors gen(vars, ex::lor(up, reset));
  EXPECT_EQ(gen.successors(st(1, 0)), (std::vector<State>{st(2, 0)}));
  EXPECT_EQ(gen.successors(st(3, 0)), (std::vector<State>{st(0, 0)}));
}

TEST_F(SuccessorTest, UnconstrainedPrimedVariableRangesOverDomain) {
  // TLA actions have no frame: x' = 0 leaves y' free.
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)));
  std::vector<State> succ = gen.successors(st(2, 1));
  EXPECT_EQ(succ.size(), 3u);  // y' in {0, 1, 2}
  for (const State& t : succ) EXPECT_EQ(t[x].as_int(), 0);
}

TEST_F(SuccessorTest, PinnedVariablesKeepTheirValue) {
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)), {y});
  std::vector<State> succ = gen.successors(st(2, 1));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0], st(0, 1));
}

TEST(SuccessorDnf, PinnedVariableKeepsItsValueInEachDistributedDisjunct) {
  // x < 2 /\ (x' = x + 1 \/ (x' = 0 /\ y' = 3)) distributes into two
  // disjuncts. The first leaves y unconstrained, so a pinned y keeps its
  // value there instead of ranging over its domain.
  VarTable vars;
  const VarId x = vars.declare("x", range_domain(0, 3));
  const VarId y = vars.declare("y", range_domain(0, 3));
  const Expr act = ex::land(
      ex::lt(ex::var(x), ex::integer(2)),
      ex::lor(ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))),
              ex::land(ex::eq(ex::primed_var(x), ex::integer(0)),
                       ex::eq(ex::primed_var(y), ex::integer(3)))));
  auto st = [](std::int64_t xv, std::int64_t yv) {
    return State({Value::integer(xv), Value::integer(yv)});
  };
  EXPECT_EQ(ActionSuccessors(vars, act, {y}).successors(st(0, 1)),
            (std::vector<State>{st(1, 1), st(0, 3)}));
  // Unpinned, the first disjunct ranges y' over its domain.
  EXPECT_EQ(ActionSuccessors(vars, act).successors(st(0, 1)),
            (std::vector<State>{st(1, 0), st(1, 1), st(1, 2), st(1, 3), st(0, 3)}));
}

/// x, y in 0..1 and q a sequence over 0..1 of length at most 1.
class SuccessorSeqTest : public ::testing::Test {
 protected:
  SuccessorSeqTest() {
    x = vars.declare("x", range_domain(0, 1));
    y = vars.declare("y", range_domain(0, 1));
    q = vars.declare("q", seq_domain(range_domain(0, 1), 1));
  }
  State st(std::int64_t xv, std::int64_t yv, Value::Tuple qv) const {
    return State({Value::integer(xv), Value::integer(yv), Value::tuple(std::move(qv))});
  }
  /// The t with action(s, t) per the tree evaluator, sorted by rendering.
  std::vector<State> brute_force(const Expr& action, const State& s) const {
    std::vector<State> out;
    StateSpace(vars).for_each_state([&](const State& t) {
      if (eval_action(action, vars, s, t)) out.push_back(t);
    });
    return sorted(std::move(out));
  }
  std::vector<State> sorted(std::vector<State> states) const {
    std::sort(states.begin(), states.end(), [&](const State& a, const State& b) {
      return a.to_string(vars) < b.to_string(vars);
    });
    return states;
  }
  Expr q_empty() const { return ex::eq(ex::var(q), ex::make_tuple({})); }
  VarTable vars;
  VarId x = 0, y = 0, q = 0;
};

TEST_F(SuccessorSeqTest, GuardOnlyDisjunctionKeepsItsShortCircuit) {
  // In x' = 1 /\ (q = << >> \/ Head(q) = 0) the \/ mentions no primed
  // variable, so it stays one guard: Head is never taken of << >>.
  const Expr act = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)),
                            ex::lor(q_empty(), ex::eq(ex::head(ex::var(q)), ex::integer(0))));
  const ActionSuccessors gen(vars, act);
  std::size_t enabled = 0;
  StateSpace(vars).for_each_state([&](const State& s) {
    std::vector<State> got;
    ASSERT_NO_THROW(got = gen.successors(s)) << s.to_string(vars);
    EXPECT_EQ(sorted(got), brute_force(act, s)) << s.to_string(vars);
    enabled += got.empty() ? 0 : 1;
  });
  EXPECT_GT(enabled, 0u);  // q = << >> and q = <<0>> enable it
}

TEST_F(SuccessorSeqTest, PrimedBranchIsEvaluatedOnItsOwn) {
  // In x' = 1 /\ (q = << >> \/ y' = Head(q)) each branch becomes its own
  // disjunct, as TLC explores it. At q = << >> the second one takes
  // Head(<< >>) and throws, although the first holds there and eval_action
  // stops at it. This is the documented cost of distributing primed \/.
  const Expr act = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)),
                            ex::lor(q_empty(), ex::eq(ex::primed_var(y), ex::head(ex::var(q)))));
  const ActionSuccessors gen(vars, act);
  const State at_empty = st(0, 0, {});
  EXPECT_FALSE(brute_force(act, at_empty).empty());
  EXPECT_ANY_THROW(gen.successors(at_empty));
  // Where Head is defined the branches agree with eval_action.
  const State at_one = st(0, 0, {Value::integer(1)});
  EXPECT_EQ(sorted(gen.successors(at_one)), brute_force(act, at_one));
  EXPECT_EQ(gen.successors(at_one).size(), 3u);  // y' = 1, q' over 3 values
}

TEST_F(SuccessorTest, PinnedVariableInResidualIsStillEnumerated) {
  // y' # y constrains a pinned variable: pinning must not lose successors.
  ActionSuccessors gen(vars, ex::land(ex::eq(ex::primed_var(x), ex::var(x)),
                                      ex::neq(ex::primed_var(y), ex::var(y))),
                       {y});
  EXPECT_EQ(gen.successors(st(0, 0)).size(), 2u);
}

TEST_F(SuccessorTest, ResidualConstraintsFilter) {
  // x' # x /\ x' # 3 /\ y' = y
  ActionSuccessors gen(vars, ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                                      ex::neq(ex::primed_var(x), ex::integer(3)),
                                      ex::unchanged({y})));
  std::vector<State> succ = gen.successors(st(0, 0));
  EXPECT_EQ(succ.size(), 2u);  // x' in {1, 2}
}

TEST_F(SuccessorTest, DuplicateSuccessorsAcrossDisjunctsAreMerged) {
  Expr a = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)), ex::unchanged({y}));
  ActionSuccessors gen(vars, ex::lor(a, a));
  EXPECT_TRUE(gen.keeps_duplicate_set());
  EXPECT_EQ(gen.successors(st(0, 0)).size(), 1u);
}

TEST_F(SuccessorTest, ExclusiveDisjunctsDropTheDuplicateSet) {
  // Every step of the first disjunct changes y (y = 0 /\ y' = 1), and the
  // second holds y: no successor can repeat, so no set is kept.
  const Expr bump = ex::land(ex::eq(ex::var(y), ex::integer(0)),
                             ex::eq(ex::primed_var(y), ex::integer(1)));
  const Expr move = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)), ex::unchanged({y}));
  EXPECT_FALSE(ActionSuccessors(vars, ex::lor(bump, move)).keeps_duplicate_set());
  // A pinned y that the second disjunct leaves unmentioned is held too.
  EXPECT_FALSE(ActionSuccessors(vars, ex::lor(bump, ex::eq(ex::primed_var(x), ex::integer(1))),
                                {y})
                   .keeps_duplicate_set());
  // Unpinned, that disjunct ranges y' over its domain and meets bump's steps.
  const ActionSuccessors unpinned(vars,
                                 ex::lor(bump, ex::eq(ex::primed_var(x), ex::integer(1))));
  EXPECT_TRUE(unpinned.keeps_duplicate_set());
  // Four successors with y' = 1, three with x' = 1: (1, 1) is emitted once.
  EXPECT_EQ(unpinned.successors(st(1, 0)).size(), 6u);
  // One disjunct: nothing to compare.
  EXPECT_FALSE(ActionSuccessors(vars, move).keeps_duplicate_set());
}

TEST_F(SuccessorTest, FrameOutsideTheDomainYieldsNoSuccessor) {
  // y = 5 lies outside y's domain 0..2. A disjunct that frames y gets no
  // successor there, tested at the frame's place: the later right-hand side
  // <<0, 1, 2>>[y] is never evaluated (it is undefined at y = 5).
  const State out = st(0, 5);
  const Expr framed = ex::land(ex::eq(ex::primed_var(x), ex::integer(1)), ex::unchanged({y}));
  const ActionSuccessors alone(vars, framed);
  EXPECT_TRUE(alone.successors(out).empty());
  EXPECT_FALSE(alone.enabled(out));
  const Expr framed_first = ex::land(
      ex::unchanged({y}),
      ex::eq(ex::primed_var(x),
             ex::index(ex::make_tuple({ex::integer(0), ex::integer(1), ex::integer(2)}),
                       ex::var(y))));
  const ActionSuccessors guarded(vars, framed_first);
  EXPECT_TRUE(guarded.successors(out).empty());
  EXPECT_FALSE(guarded.enabled(out));
  // Beside a disjunct that sets y, and around a second framing one, only
  // the setting disjunct's successor appears.
  const Expr sets_y = ex::land(ex::eq(ex::primed_var(x), ex::integer(2)),
                               ex::eq(ex::primed_var(y), ex::integer(0)));
  const ActionSuccessors mixed(vars, ex::lor({framed, sets_y, framed_first}));
  EXPECT_EQ(mixed.successors(out), (std::vector<State>{st(2, 0)}));
  EXPECT_TRUE(mixed.enabled(out));
  // Inside the domain the frames hold y as usual.
  EXPECT_EQ(mixed.successors(st(0, 2)), (std::vector<State>{st(1, 2), st(2, 0)}));
}

TEST_F(SuccessorTest, MatchesBruteForceEnumeration) {
  // Cross-check the generator against direct evaluation over all pairs.
  Expr act = ex::lor(ex::land(ex::lt(ex::var(x), ex::var(y)),
                              ex::eq(ex::primed_var(x), ex::var(y)),
                              ex::neq(ex::primed_var(y), ex::var(y))),
                     ex::land(ex::eq(ex::primed_var(y), ex::integer(0)),
                              ex::ge(ex::var(x), ex::var(y)),
                              ex::eq(ex::primed_var(x), ex::var(x))));
  ActionSuccessors gen(vars, act);
  StateSpace space(vars);
  space.for_each_state([&](const State& s) {
    std::vector<State> expected;
    space.for_each_state([&](const State& t) {
      if (eval_action(act, vars, s, t)) expected.push_back(t);
    });
    std::vector<State> got = gen.successors(s);
    auto key = [&](const State& st_) { return st_.to_string(vars); };
    std::sort(expected.begin(), expected.end(),
              [&](const State& a, const State& b) { return key(a) < key(b); });
    std::sort(got.begin(), got.end(),
              [&](const State& a, const State& b) { return key(a) < key(b); });
    EXPECT_EQ(got, expected) << "at state " << s.to_string(vars);
  });
}

TEST_F(SuccessorTest, GuardsEnabledIsWeakerThanEnabled) {
  // x < 3 guards a disjunct whose residual (y' < y - 5) can never hold:
  // guards_enabled sees the precondition, enabled() sees the dead residual.
  Expr act = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                      ex::eq(ex::primed_var(x), ex::var(x)),
                      ex::lt(ex::primed_var(y), ex::sub(ex::var(y), ex::integer(5))));
  ActionSuccessors gen(vars, act);
  EXPECT_TRUE(gen.guards_enabled(st(0, 0)));
  EXPECT_FALSE(gen.enabled(st(0, 0)));
  EXPECT_FALSE(gen.guards_enabled(st(3, 0)));
  EXPECT_FALSE(gen.enabled(st(3, 0)));
}

TEST_F(SuccessorTest, NaiveAndPrunedEnumerationsAgreeIncludingOrder) {
  // Enumerate-and-test (test hook) vs the pruned search: identical
  // successor sequences — pruning may only skip, never reorder.
  Expr act = ex::lor(ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                              ex::neq(ex::primed_var(y), ex::var(y)),
                              ex::lt(ex::primed_var(x), ex::integer(3))),
                     ex::eq(ex::primed_var(y), ex::integer(0)));
  ActionSuccessors gen(vars, act);
  StateSpace space(vars);
  space.for_each_state([&](const State& s) {
    ActionSuccessors::set_naive_enumeration_for_test(true);
    std::vector<State> naive = gen.successors(s);
    const bool naive_enabled = gen.enabled(s);
    ActionSuccessors::set_naive_enumeration_for_test(false);
    std::vector<State> pruned = gen.successors(s);
    EXPECT_EQ(pruned, naive) << "at state " << s.to_string(vars);
    EXPECT_EQ(gen.enabled(s), naive_enabled);
  });
}

TEST_F(SuccessorTest, EarlyExitStopsEnumeration) {
  // fn returning true must stop the generator mid-enumeration: asking for
  // the first successor of an action with many must invoke fn exactly once.
  ActionSuccessors gen(vars, ex::eq(ex::primed_var(x), ex::integer(0)));
  int seen = 0;
  // for_each_successor has a void callback; enabled() exercises the
  // bool-returning early exit underneath.
  EXPECT_TRUE(gen.enabled(st(0, 0)));
  gen.for_each_successor(st(0, 0), [&](const State&) { ++seen; });
  EXPECT_EQ(seen, 3);  // y' in {0, 1, 2}: the void path still sees all
}

TEST_F(SuccessorTest, StatesSatisfyingEnumeratesPredicate) {
  std::vector<State> states = ActionSuccessors::states_satisfying(
      vars, ex::land(ex::eq(ex::var(x), ex::integer(0)), ex::lt(ex::var(y), ex::integer(2))));
  EXPECT_EQ(states.size(), 2u);
  std::vector<State> pinned = ActionSuccessors::states_satisfying(
      vars, ex::eq(ex::var(x), ex::integer(0)), {y});
  EXPECT_EQ(pinned.size(), 1u);
}

}  // namespace
}  // namespace opentla
