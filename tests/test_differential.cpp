// Randomized differential harness: ~2000 seeded random small systems, each
// checked three ways against each other —
//
//   1. the serial StateGraph vs the parallel StateGraph (bit-identical:
//      ids, adjacency, initial());
//   2. the graph-based invariant checker's verdict on both graphs;
//   3. the semantic layer: check_validity_bounded's exhaustive lasso
//      enumeration and the independent Oracle must agree with the graph
//      verdict (violations come with a witness the Oracle refutes; a
//      "holds" verdict means no bounded lasso may violate the claim), and
//      random graph walks (random_graph_lasso) must be behaviors of the
//      spec per the Oracle.
//
// A fourth differential axis targets successor generation itself: the
// pruned residual search against the historical enumerate-and-test path
// (behind ActionSuccessors::set_naive_enumeration_for_test), over random
// actions rich in residual constraints. The two paths must produce
// identical successor sequences — the same states in the same emission
// order — and identical enabled() verdicts. No successor may repeat from
// any state, and per seed the duplicate-set analysis must keep its set for
// some action, drop it for another of several disjuncts, and keep it once
// where two disjuncts really share a successor (the nested axis too).
//
// An eighth axis pins the distribution of nested disjunctions in successor
// generation: on random actions with a \/ inside a conjunct, and on <A>_v
// steps, successor sets and enabled() must equal brute force and the tree
// ENABLED, which keeps the source split.
//
// A ninth axis pins the product searches behind H1/H2a and
// check_orthogonality, which stop at the first dead pair, against the
// semantic layer.
//
// A tenth axis pins the conjunction-aware step generator behind
// build_composite_graph and ConstraintExplorer against generate-and-test's
// semantics on random two- and three-part systems, with and without a
// Disjoint, with a freeze-wrapped part and a hidden variable. Every edge a
// composite build emits must satisfy each mover part's [N_k]_{v_k}: the
// filter checks only the filter-only parts and relies on this.
//
// An eleventh axis pins hypothesis 2(a) through verify_composition, by
// Propositions 3/4 on H1's product or by the freeze product, against the
// semantic layer on random A/G instances.
//
// A twelfth axis pins the prefix machine's stutter shortcut against a
// brute-force subset construction, and a thirteenth pins the joint target
// walk against one walk per target, counterexample replays and cut walks.
//
// Every assertion carries the failing seed and case index so a failure is
// reproducible in isolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "opentla/ag/composition_theorem.hpp"
#include "opentla/analysis/independence.hpp"
#include "opentla/automata/freeze.hpp"
#include "opentla/automata/prefix_machine.hpp"
#include "opentla/automata/product.hpp"
#include "opentla/check/inclusion.hpp"
#include "opentla/check/invariant.hpp"
#include "opentla/check/orthogonality.hpp"
#include "opentla/compose/compose.hpp"
#include "opentla/expr/analysis.hpp"
#include "opentla/expr/eval.hpp"
#include "opentla/graph/successor.hpp"
#include "opentla/semantics/enumerate.hpp"
#include "opentla/semantics/oracle.hpp"
#include "opentla/state/arena.hpp"
#include "opentla/state/fingerprint.hpp"
#include "opentla/state/sharded_store.hpp"
#include "opentla/state/state.hpp"
#include "opentla/tla/disjoint.hpp"
#include "opentla/tla/spec.hpp"

namespace opentla {
namespace {

constexpr unsigned kSeeds = 8;
constexpr unsigned kCasesPerSeed = 250;  // 8 x 250 = 2000 systems
/// Advance-or-hold actions (ActionGen::advance_or_hold_action) that the
/// successor harnesses append to each seed's kCasesPerSeed random cases.
/// They come last, so they leave the random cases' stream as it is.
constexpr unsigned kAdvanceOrHoldCases = kCasesPerSeed / 5;

/// Same tiny-universe generator idiom as test_properties's RandomSpecs:
/// two binary variables, random guarded-assignment specs over them.
class CaseGen {
 public:
  explicit CaseGen(unsigned seed) : rng_(seed) {
    x_ = vars_.declare("x", range_domain(0, 1));
    y_ = vars_.declare("y", range_domain(0, 1));
  }

  VarTable& vars() { return vars_; }
  VarId x() const { return x_; }
  VarId y() const { return y_; }
  std::mt19937& rng() { return rng_; }

  std::int64_t bit() { return std::uniform_int_distribution<int>(0, 1)(rng_); }
  bool coin() { return bit() == 1; }

  Expr predicate(VarId v) { return ex::eq(ex::var(v), ex::integer(bit())); }

  Expr guarded_assign(VarId v, VarId pin) {
    std::vector<Expr> conj;
    if (coin()) conj.push_back(ex::eq(ex::var(v), ex::integer(bit())));
    conj.push_back(ex::eq(ex::primed_var(v), ex::integer(bit())));
    conj.push_back(ex::unchanged({pin}));
    return ex::land(std::move(conj));
  }

  CanonicalSpec spec(VarId v, VarId other, std::string name) {
    CanonicalSpec s;
    s.name = std::move(name);
    s.init = coin() ? ex::top() : predicate(v);
    std::vector<Expr> disjuncts = {guarded_assign(v, other)};
    if (coin()) disjuncts.push_back(guarded_assign(v, other));
    s.next = ex::lor(std::move(disjuncts));
    s.sub = {v};
    return s;
  }

 private:
  VarTable vars_;
  VarId x_ = 0, y_ = 0;
  std::mt19937 rng_;
};

ExploreOptions with_threads(unsigned threads) {
  ExploreOptions opts;
  opts.threads = threads;
  return opts;
}

class DifferentialHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialHarness, SerialParallelAndSemanticVerdictsAgree) {
  const unsigned seed = GetParam();
  CaseGen gen(seed);
  Oracle oracle(gen.vars());

  for (unsigned c = 0; c < kCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));

    CanonicalSpec sx = gen.spec(gen.x(), gen.y(), "SX");
    CanonicalSpec sy = gen.spec(gen.y(), gen.x(), "SY");
    const std::vector<CompositePart> parts = {{sx, true}, {sy, true}};

    // 1. The parallel engine must reproduce the serial graph bit for bit.
    // Cycle through worker counts so stealing and contention paths vary.
    const unsigned threads = 2u << (c % 3);  // 2, 4, 8
    StateGraph serial = build_composite_graph(gen.vars(), parts, {}, {}, with_threads(1));
    StateGraph parallel =
        build_composite_graph(gen.vars(), parts, {}, {}, with_threads(threads));
    ASSERT_EQ(serial.num_states(), parallel.num_states());
    ASSERT_EQ(serial.num_edges(), parallel.num_edges());
    ASSERT_EQ(serial.initial(), parallel.initial());
    for (StateId s = 0; s < serial.num_states(); ++s) {
      ASSERT_EQ(serial.state(s), parallel.state(s)) << "state id " << s;
      ASSERT_EQ(serial.successors(s), parallel.successors(s)) << "adjacency of " << s;
    }

    // 2. Both graphs yield the same invariant verdict.
    Expr p = ex::lor(gen.predicate(gen.x()), gen.predicate(gen.y()));
    InvariantResult rs = check_invariant(serial, p);
    InvariantResult rp = check_invariant(parallel, p);
    ASSERT_EQ(rs.holds, rp.holds);

    // 3. The semantic layer agrees. The claim: SX /\ SY => [](p).
    Formula claim =
        tf::implies(tf::land(tf::spec(sx), tf::spec(sy)), tf::always(tf::pred(p)));
    if (rs.holds) {
      // No lasso up to the bound may violate a claim the checker proved
      // over the full reachable graph.
      BoundedValidity bv = check_validity_bounded(gen.vars(), claim, /*max_len=*/3);
      EXPECT_TRUE(bv.valid) << (bv.violation ? bv.violation->to_string(gen.vars())
                                             : std::string("(no witness)"));
    } else {
      // The checker's counterexample, closed by stuttering, must refute
      // the claim per the independent oracle.
      LassoBehavior witness(rs.counterexample, rs.counterexample.size() - 1);
      EXPECT_FALSE(oracle.evaluate(claim, witness)) << witness.to_string(gen.vars());
    }

    // Random walks over the (parallel) graph are behaviors of the safety
    // conjunction — the graph adds nothing the specs don't allow.
    if (serial.num_states() > 0 && !serial.initial().empty()) {
      Formula both = tf::land(tf::spec(sx), tf::spec(sy));
      LassoBehavior walk = random_graph_lasso(parallel, gen.rng(), /*max_steps=*/16);
      EXPECT_TRUE(oracle.evaluate(both, walk)) << walk.to_string(gen.vars());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialHarness, ::testing::Range(0u, kSeeds));

/// Ninth differential axis: the dead-pair searches. For CaseGen's random
/// SX and SY,
///   - check_target(T) on the product of SX's, SY's and a random R's prefix
///     machines (movers SX and SY; R only constrains, so its machine dies
///     on some candidate steps), for a random target T, decides
///     closure(SX) /\ closure(SY) /\ closure(R) => closure(T);
///   - check_orthogonality on SX /\ SY's composite graph, for random A and
///     B, decides spec(SX) /\ spec(SY) => (A _|_ B).
/// "Holds" must mean no lasso up to the bound violates the claim, and a
/// counterexample, closed by stuttering, must refute it per the Oracle.
constexpr unsigned kProductCasesPerSeed = 15;

class ProductSearchHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(ProductSearchHarness, TargetAndOrthogonalityVerdictsMatchTheSemantics) {
  const unsigned seed = GetParam();
  CaseGen gen(seed);
  const VarTable& vars = gen.vars();
  Oracle oracle(vars);
  std::size_t refuted = 0;
  auto expect_decides = [&](const Formula& claim, bool holds,
                            const std::vector<State>& counterexample) {
    if (holds) {
      BoundedValidity bv = check_validity_bounded(vars, claim, /*max_len=*/3);
      EXPECT_TRUE(bv.valid) << (bv.violation ? bv.violation->to_string(vars)
                                             : std::string("(no witness)"));
      return;
    }
    ++refuted;
    ASSERT_FALSE(counterexample.empty());
    LassoBehavior witness(counterexample, counterexample.size() - 1);
    EXPECT_FALSE(oracle.evaluate(claim, witness)) << witness.to_string(vars);
  };
  auto random_spec = [&](std::string name) {
    return gen.coin() ? gen.spec(gen.x(), gen.y(), std::move(name))
                      : gen.spec(gen.y(), gen.x(), std::move(name));
  };

  for (unsigned c = 0; c < kProductCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    CanonicalSpec sx = gen.spec(gen.x(), gen.y(), "SX");
    CanonicalSpec sy = gen.spec(gen.y(), gen.x(), "SY");

    CanonicalSpec r = random_spec("R");
    CanonicalSpec t = random_spec("T");
    std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
        std::make_shared<PrefixMachine>(vars, sx), std::make_shared<PrefixMachine>(vars, sy),
        std::make_shared<PrefixMachine>(vars, r)};
    std::vector<Mover> movers = {mover_from_spec(sx, 0, {}),
                                 mover_from_spec(sy, 1, {})};
    ConstraintExplorer explorer(vars, constraints, movers, ex::land(sx.init, sy.init), {});
    const ConstraintExplorer::Verdict v = explorer.check_target(PrefixMachine(vars, t));
    expect_decides(
        tf::implies(tf::land({tf::closure(sx), tf::closure(sy), tf::closure(r)}), tf::closure(t)),
        v.holds, v.counterexample);

    CanonicalSpec a = random_spec("A");
    CanonicalSpec b = random_spec("B");
    StateGraph g = build_composite_graph(vars, {{sx, true}, {sy, true}});
    const OrthogonalityResult o =
        check_orthogonality(g, PrefixMachine(vars, a), PrefixMachine(vars, b));
    expect_decides(tf::implies(tf::land(tf::spec(sx), tf::spec(sy)), tf::orthogonal(a, b)),
                   o.holds, o.counterexample);
  }
  // Non-vacuity: some claims fail, so the early exit is exercised.
  EXPECT_GT(refuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProductSearchHarness, ::testing::Range(0u, kSeeds));

/// Eleventh differential axis: H2a's two routes. Random A/G instances over
/// CaseGen's universe: the goal E +> M with E writing x and M writing y, a
/// component E1 +> M1 whose M1 writes y, and in half of the instances the
/// component TRUE +> Disjoint(<<x>>, <<y>>). The inits are random, M1's
/// sometimes over both variables, so Proposition 4's initial condition
/// fails on some instances, and some initial states of R fail Init_E. H2a's verdict
/// must decide C(E)_{+v} /\ /\_j C(M_j) => C(M) with v = <<x, y>>: "holds"
/// means no lasso up to the bound violates it, and its counterexample,
/// closed by stuttering, refutes it per the Oracle. Per seed, the route by
/// Propositions 3/4 must fire on some instance and fall back on another.
constexpr unsigned kRouteCasesPerSeed = 30;

/// The states of the counterexample printed in `detail` (format_trace over
/// CaseGen's universe <<x, y>>).
std::vector<State> printed_counterexample(const std::string& detail) {
  std::vector<State> states;
  const std::size_t at = detail.find("counterexample");
  if (at == std::string::npos) return states;
  std::istringstream lines(detail.substr(at));
  std::string line;
  while (std::getline(lines, line)) {
    int index = 0, x = 0, y = 0;
    if (std::sscanf(line.c_str(), "  state %d: x = %d, y = %d", &index, &x, &y) == 3) {
      states.push_back(State({Value::integer(x), Value::integer(y)}));
    }
  }
  return states;
}

class H2aRouteHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(H2aRouteHarness, H2aVerdictMatchesTheSemanticsOnEitherRoute) {
  const unsigned seed = GetParam();
  CaseGen gen(seed);
  const VarTable& vars = gen.vars();
  Oracle oracle(vars);
  std::size_t by_route = 0, by_freeze = 0, refuted = 0;

  for (unsigned c = 0; c < kRouteCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const AGSpec goal{gen.spec(gen.x(), gen.y(), "E"), gen.spec(gen.y(), gen.x(), "M")};
    CanonicalSpec m1 = gen.spec(gen.y(), gen.x(), "M1");
    // An Init over both variables ties x to y in R's initial states, so
    // some of them fail Init_E while others satisfy it.
    if (gen.coin()) m1.init = ex::lor(gen.predicate(gen.x()), gen.predicate(gen.y()));
    std::vector<AGSpec> components = {
        {gen.coin() ? trivial_assumption() : gen.spec(gen.x(), gen.y(), "E1"), m1}};
    std::vector<Formula> lhs = {tf::plus(goal.assumption, {gen.x(), gen.y()}),
                                tf::closure(components[0].guarantee)};
    if (gen.coin()) {
      components.push_back(property_as_ag(make_disjoint({{gen.x()}, {gen.y()}})));
      lhs.push_back(tf::closure(components.back().guarantee));
    }
    const Formula claim = tf::implies(tf::land(lhs), tf::closure(goal.guarantee));

    const ProofReport report = verify_composition(vars, components, goal);
    const auto h2a = std::find_if(report.obligations.begin(), report.obligations.end(),
                                  [](const Obligation& ob) { return ob.id == "H2a"; });
    ASSERT_NE(h2a, report.obligations.end()) << report.to_string();
    ASSERT_FALSE(h2a->inconclusive) << h2a->detail;
    if (h2a->method == "product-inclusion(prop3)") {
      ++by_route;
    } else {
      ASSERT_EQ(h2a->method, "product-inclusion(freeze)");
      ++by_freeze;
    }
    if (h2a->discharged) {
      BoundedValidity bv = check_validity_bounded(vars, claim, /*max_len=*/3);
      EXPECT_TRUE(bv.valid) << h2a->method << "\n"
                            << (bv.violation ? bv.violation->to_string(vars)
                                             : std::string("(no witness)"));
      continue;
    }
    ++refuted;
    const std::vector<State> counterexample = printed_counterexample(h2a->detail);
    ASSERT_FALSE(counterexample.empty()) << h2a->detail;
    LassoBehavior witness(counterexample, counterexample.size() - 1);
    EXPECT_FALSE(oracle.evaluate(claim, witness)) << h2a->method << "\n"
                                                  << witness.to_string(vars);
  }
  EXPECT_GT(by_route, 0u);
  EXPECT_GT(by_freeze, 0u);
  EXPECT_GT(refuted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, H2aRouteHarness, ::testing::Range(0u, kSeeds));

/// `states` as a sorted set.
std::vector<State> as_set(std::vector<State> states) {
  auto lt = [](const State& a, const State& b) { return a.values() < b.values(); };
  std::sort(states.begin(), states.end(), lt);
  states.erase(std::unique(states.begin(), states.end()), states.end());
  return states;
}

/// Pins ActionSuccessors' duplicate set (keeps_duplicate_set): per seed, at
/// least one action keeps it, at least one action of two or more disjuncts
/// drops it, and at least one action that keeps it has two disjuncts that
/// emit a common successor from some state, so a generator that never kept
/// the set would repeat a successor there.
class DuplicateSetTally {
 public:
  void record(const VarTable& vars, const Expr& act, const ActionSuccessors& succ) {
    if (!succ.keeps_duplicate_set()) {
      const std::optional<std::vector<ActionDisjunct>> ds = decompose_distributed(act);
      dropped_ += ds && ds->size() > 1 ? 1 : 0;
      return;
    }
    ++kept_;
    // A common successor of two source disjuncts shows as more emissions,
    // summed over the disjuncts, than distinct successors.
    std::vector<ActionSuccessors> parts;
    for (const Expr& d : flatten_or(act)) parts.emplace_back(vars, d);
    bool common = false;
    StateSpace(vars).for_each_state([&](const State& s) {
      std::size_t emitted = 0;
      for (const ActionSuccessors& p : parts) emitted += p.successors(s).size();
      common = common || emitted > succ.successors(s).size();
    });
    needed_ += common ? 1 : 0;
  }

  void expect_nonvacuous() const {
    EXPECT_GT(kept_, 0u) << "no action kept the duplicate set";
    EXPECT_GT(dropped_, 0u) << "no action of two or more disjuncts dropped the set";
    EXPECT_GT(needed_, 0u) << "no kept set was needed: no two disjuncts shared a successor";
  }

 private:
  unsigned kept_ = 0, dropped_ = 0, needed_ = 0;
};

/// Asserts that `succ` holds no state twice.
void expect_no_repeat(const std::vector<State>& succ, const VarTable& vars, const Expr& act,
                      const State& s) {
  ASSERT_EQ(as_set(succ).size(), succ.size())
      << "repeated successor: action " << act.to_string(vars) << " at " << s.to_string(vars);
}

/// Random actions over a three-variable universe, biased toward residual
/// constraints (primed-primed comparisons, negative constraints) so the
/// pruned search tree actually has something to cut.
class ActionGen {
 public:
  explicit ActionGen(unsigned seed) : rng_(seed) {
    v_[0] = vars_.declare("x", range_domain(0, 2));
    v_[1] = vars_.declare("y", range_domain(0, 2));
    v_[2] = vars_.declare("z", range_domain(0, 1));
  }

  VarTable& vars() { return vars_; }

  Expr action() {
    const int disjuncts = 1 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) ds.push_back(disjunct());
    return ex::lor(std::move(ds));
  }

  /// A random non-empty variable pool (each of x, y, z by coin flip).
  std::vector<VarId> pool() {
    std::vector<VarId> p;
    for (VarId v : v_) {
      if (pick(2) == 1) p.push_back(v);
    }
    if (p.empty()) p.push_back(v_[pick(3)]);
    return p;
  }

  /// A component-style action: conjuncts touch only `p`'s variables and
  /// everything outside `p` is framed with UNCHANGED. Two such actions
  /// over disjoint pools have disjoint footprints, so the independence
  /// harness actually gets claimed-independent pairs to refute.
  Expr framed_action(const std::vector<VarId>& p) {
    std::vector<VarId> complement;
    for (VarId v : v_) {
      if (std::find(p.begin(), p.end(), v) == p.end()) complement.push_back(v);
    }
    const int disjuncts = 1 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) {
      const int n = 1 + pick(3);
      std::vector<Expr> cs;
      for (int j = 0; j < n; ++j) cs.push_back(conjunct_over(p));
      if (!complement.empty()) cs.push_back(ex::unchanged(complement));
      ds.push_back(ex::land(std::move(cs)));
    }
    return ex::lor(std::move(ds));
  }

  /// Disjuncts with a \/ nested among their conjuncts, sometimes two levels
  /// deep: the shape successor generation distributes into one disjunct
  /// per branch.
  Expr nested_action() {
    const int disjuncts = 1 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) ds.push_back(nested_disjunct(/*depth=*/2));
    return ex::lor(std::move(ds));
  }

  /// Two or three disjuncts that each advance (v' = (v + 1) % |dom|, a
  /// change in every step) or hold (UNCHANGED v) some variables, beside an
  /// optional random conjunct. Two of them are exclusive when one advances a
  /// variable the other holds: the shape ActionSuccessors proves
  /// repeat-free. `nested` puts the disjuncts under one \/ inside a
  /// conjunction, which successor generation distributes.
  Expr advance_or_hold_action(bool nested) {
    const int disjuncts = 2 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) {
      std::vector<Expr> cs;
      for (VarId v : v_) {
        switch (pick(3)) {
          case 0: {
            const auto size = static_cast<std::int64_t>(vars_.domain(v).size());
            cs.push_back(ex::eq(ex::primed_var(v),
                                ex::mod(ex::add(ex::var(v), ex::integer(1)), ex::integer(size))));
            break;
          }
          case 1: cs.push_back(ex::unchanged({v})); break;
          default: break;
        }
      }
      if (pick(2) == 0) cs.push_back(conjunct());
      ds.push_back(ex::land(std::move(cs)));
    }
    if (!nested) return ex::lor(std::move(ds));
    std::vector<Expr> cs = {ex::lor(std::move(ds))};
    if (pick(2) == 0) cs.insert(cs.begin() + pick(2), conjunct());
    return ex::land(std::move(cs));
  }

  /// <A>_sub for an A of two or three disjuncts (action_changing): the step
  /// every WF/SF condition and refinement ENABLED query runs on.
  Expr changing_action() {
    const int disjuncts = 2 + pick(2);
    std::vector<Expr> ds;
    for (int i = 0; i < disjuncts; ++i) {
      ds.push_back(pick(2) == 0 ? disjunct() : nested_disjunct(/*depth=*/1));
    }
    return action_changing(ex::lor(std::move(ds)), pool());
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  VarId rv() { return v_[pick(3)]; }

  Expr nested_disjunct(int depth) {
    const int n = pick(3);
    std::vector<Expr> cs;
    for (int j = 0; j < n; ++j) cs.push_back(conjunct());
    std::vector<Expr> branches;
    const int b = 2 + pick(2);
    for (int j = 0; j < b; ++j) {
      switch (pick(6)) {
        case 0:
          push_guarded_partial(branches);
          break;
        case 1:
          if (depth > 1) {
            branches.push_back(nested_disjunct(depth - 1));
            break;
          }
          [[fallthrough]];
        default:
          branches.push_back(disjunct());
      }
    }
    cs.insert(cs.begin() + pick(n + 1), ex::lor(std::move(branches)));
    return ex::land(std::move(cs));
  }

  /// Branches that take <<0, 1>>[a], undefined at a = 0, only where an
  /// earlier test rules a = 0 out, as left-to-right evaluation reads them:
  /// either the guard pair a = 0 \/ <<0, 1>>[a] = k, or the single branch
  /// a # 0 /\ b' = <<0, 1>>[a]. Successor generation must not evaluate the
  /// index where eval_action does not.
  void push_guarded_partial(std::vector<Expr>& branches) {
    const VarId a = rv();
    const Expr at_a = ex::index(ex::make_tuple({ex::integer(0), ex::integer(1)}), ex::var(a));
    if (pick(2) == 0) {
      branches.push_back(ex::eq(ex::var(a), ex::integer(0)));
      branches.push_back(ex::eq(at_a, val(a)));
    } else {
      branches.push_back(ex::land(ex::neq(ex::var(a), ex::integer(0)),
                                  ex::eq(ex::primed_var(rv()), at_a)));
    }
  }

  Expr val(VarId v) { return ex::integer(pick(v == v_[2] ? 2 : 3)); }

  Expr conjunct() { return conjunct_over({v_[0], v_[1], v_[2]}); }

  Expr conjunct_over(const std::vector<VarId>& p) {
    const VarId a = p[static_cast<std::size_t>(pick(static_cast<int>(p.size())))];
    const VarId b = p[static_cast<std::size_t>(pick(static_cast<int>(p.size())))];
    switch (pick(6)) {
      case 0: return ex::eq(ex::var(a), val(a));                       // guard
      case 1: return ex::eq(ex::primed_var(a), val(a));                // assignment
      case 2: return ex::neq(ex::primed_var(a), val(a));               // residual, 1 var
      case 3: return ex::neq(ex::primed_var(a), ex::primed_var(b));    // residual, 2 vars
      case 4: return ex::le(ex::primed_var(a), ex::var(b));            // residual, 1 var
      default: return ex::eq(ex::primed_var(a), ex::var(b));           // assignment
    }
  }

  Expr disjunct() {
    const int n = 1 + pick(4);
    std::vector<Expr> cs;
    for (int i = 0; i < n; ++i) cs.push_back(conjunct());
    return ex::land(std::move(cs));
  }

  VarTable vars_;
  VarId v_[3] = {0, 0, 0};
  std::mt19937 rng_;
};

class PrunedVsNaiveHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrunedVsNaiveHarness, IdenticalSuccessorsOrderAndEnabledVerdicts) {
  const unsigned seed = GetParam();
  ActionGen gen(seed);
  StateSpace space(gen.vars());

  DuplicateSetTally tally;

  for (unsigned c = 0; c < kCasesPerSeed + kAdvanceOrHoldCases; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const Expr act =
        c < kCasesPerSeed ? gen.action() : gen.advance_or_hold_action(/*nested=*/false);
    ActionSuccessors succ(gen.vars(), act);
    tally.record(gen.vars(), act, succ);

    space.for_each_state([&](const State& s) {
      ActionSuccessors::set_naive_enumeration_for_test(true);
      const std::vector<State> naive = succ.successors(s);
      const bool naive_enabled = succ.enabled(s);
      ActionSuccessors::set_naive_enumeration_for_test(false);
      const std::vector<State> pruned = succ.successors(s);
      const bool pruned_enabled = succ.enabled(s);

      // Same states, same emission order: pruning only skips rejected
      // subtrees, it never reorders the survivors.
      ASSERT_EQ(pruned, naive)
          << "action " << act.to_string(gen.vars()) << " at " << s.to_string(gen.vars());
      ASSERT_EQ(pruned_enabled, naive_enabled)
          << "action " << act.to_string(gen.vars()) << " at " << s.to_string(gen.vars());
      ASSERT_EQ(pruned_enabled, !pruned.empty());
      expect_no_repeat(pruned, gen.vars(), act, s);

      // Spot-check against direct action evaluation on a prefix of the
      // space (the full cross-product on every case would dominate runtime).
      if (c % 50 == 0) {
        std::vector<State> expected;
        space.for_each_state([&](const State& t) {
          if (eval_action(act, gen.vars(), s, t)) expected.push_back(t);
        });
        std::vector<State> got = pruned;
        auto lt = [&](const State& a, const State& b) {
          return a.to_string(gen.vars()) < b.to_string(gen.vars());
        };
        std::sort(expected.begin(), expected.end(), lt);
        std::sort(got.begin(), got.end(), lt);
        ASSERT_EQ(got, expected) << "action " << act.to_string(gen.vars());
      }
    });
    if (HasFatalFailure()) return;
  }
  tally.expect_nonvacuous();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedVsNaiveHarness, ::testing::Range(0u, kSeeds));

/// Fifth differential axis: the static independence relation against
/// brute-force commutation. For random component-style action pairs, every
/// pair the footprint analysis claims independent must exhibit the diamond
/// property from EVERY state of the 18-state universe — executing A then B
/// and B then A yield the same successor-state sets, and when both are
/// enabled, neither step disables the other. A single violation would be a
/// false independence claim (unsound partial-order reduction); the
/// acceptance bar is zero.
class PairIndependenceHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(PairIndependenceHarness, ClaimedIndependentPairsCommuteFromEveryState) {
  const unsigned seed = GetParam();
  ActionGen gen(seed);
  StateSpace space(gen.vars());
  const std::vector<VarId> scope = gen.vars().all_vars();

  unsigned claimed_independent = 0;
  for (unsigned c = 0; c < kCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const Expr a = gen.framed_action(gen.pool());
    const Expr b = gen.framed_action(gen.pool());
    const analysis::Footprint fa = analysis::action_footprint(a, scope);
    const analysis::Footprint fb = analysis::action_footprint(b, scope);
    const analysis::PairVerdict v =
        analysis::pair_independence(gen.vars(), "A", fa, "B", fb);
    if (!v.independent) continue;
    ++claimed_independent;

    ActionSuccessors sa(gen.vars(), a);
    ActionSuccessors sb(gen.vars(), b);
    space.for_each_state([&](const State& s) {
      auto image = [&](const ActionSuccessors& first, const ActionSuccessors& second) {
        std::vector<State> out;
        for (const State& t : first.successors(s)) {
          for (const State& u : second.successors(t)) out.push_back(u);
        }
        std::sort(out.begin(), out.end(), [&](const State& l, const State& r) {
          return l.to_string(gen.vars()) < r.to_string(gen.vars());
        });
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
      };
      ASSERT_EQ(image(sa, sb), image(sb, sa))
          << "A = " << a.to_string(gen.vars()) << "\nB = " << b.to_string(gen.vars())
          << "\nat " << s.to_string(gen.vars());
      if (sa.enabled(s) && sb.enabled(s)) {
        for (const State& t : sa.successors(s)) {
          ASSERT_TRUE(sb.enabled(t)) << "A disables B at " << t.to_string(gen.vars());
        }
        for (const State& t : sb.successors(s)) {
          ASSERT_TRUE(sa.enabled(t)) << "B disables A at " << t.to_string(gen.vars());
        }
      }
    });
  }
  // Non-vacuity: disjoint pools are common enough that every seed must
  // yield claimed-independent pairs to actually exercise the check.
  EXPECT_GT(claimed_independent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairIndependenceHarness, ::testing::Range(0u, kSeeds));

/// Seventh differential axis: the fingerprinted arena-backed stores
/// against a plain map-based reference interner. Random state streams
/// (rich in duplicates and look-alike values) are interned into a
/// StateStore, a ShardedStateSet, and a std::unordered_map keyed by the
/// full state — ids, novelty verdicts, lookups, and round-trips must
/// match exactly, with the arena resident or spilled to disk, and with
/// the stores encoding over no table or over store_table(), whose domains
/// hold only some of the generated values (indexed and escaped slots mix).
class RandomStateGen {
 public:
  explicit RandomStateGen(unsigned seed) : rng_(seed) {}

  Value value(int depth) {
    switch (pick(depth > 0 ? 7 : 5)) {
      case 0: return Value::boolean(pick(2) == 1);
      case 1: return Value::integer(pick(5) - 2);
      case 2: return Value::string("");
      case 3: case 4: {
        std::string s;
        const int n = pick(4);
        for (int i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + pick(3)));
        return Value::string(std::move(s));
      }
      default: {
        Value::Tuple t;
        const int n = pick(3);
        for (int i = 0; i < n; ++i) t.push_back(value(depth - 1));
        return Value::tuple(std::move(t));
      }
    }
  }

  State state() {
    std::vector<Value> vs;
    const int n = 1 + pick(3);
    for (int i = 0; i < n; ++i) vs.push_back(value(2));
    return State(std::move(vs));
  }

 private:
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  std::mt19937 rng_;
};

/// Two variables whose domains each hold part of RandomStateGen's values;
/// a state's third slot lies past the table and always escapes.
VarTable store_table() {
  VarTable vars;
  vars.declare("a", Domain({Value::boolean(false), Value::boolean(true), Value::integer(-2),
                            Value::integer(-1), Value::integer(0), Value::string(""),
                            Value::string("a")}));
  vars.declare("b", Domain({Value::integer(0), Value::integer(1), Value::integer(2),
                            Value::empty_seq(), Value::tuple({Value::integer(0)}),
                            Value::tuple({Value::string("a")}), Value::string("ab"),
                            Value::boolean(true)}));
  return vars;
}

class StoreVsMapHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(StoreVsMapHarness, InternVerdictsIdsAndRoundTripsMatchMapReference) {
  const unsigned seed = GetParam();
  RandomStateGen gen(seed ^ 0x51ed270bu);
  const VarTable vars = store_table();

  for (int round = 0; round < 8; ++round) {
    const bool spill = (round % 2) == 1;
    // Rounds 0 and 1 escape every slot; the rest index what they can.
    const VarTable* table = round < 2 ? nullptr : &vars;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " round=" + std::to_string(round) +
                 (spill ? " (spill)" : " (resident)") + (table ? " (table)" : " (no table)"));
    // Odd rounds force the disk path: 128-byte segments, 1-byte budget.
    struct SegmentGuard {
      explicit SegmentGuard(std::size_t b) { set_arena_segment_bytes_for_test(b); }
      ~SegmentGuard() { set_arena_segment_bytes_for_test(0); }
    } guard(spill ? 128 : 0);

    StateStore store(table);
    if (spill) store.set_spill_threshold(1);
    ShardedStateSet sharded(/*shard_count=*/4, /*spill_at=*/spill ? 1 : 0, table);
    std::unordered_map<State, StateId, StateHash> ref;

    for (int i = 0; i < 400; ++i) {
      const State s = gen.state();
      const auto [it, inserted] = ref.emplace(s, static_cast<StateId>(ref.size()));
      ASSERT_EQ(store.intern(s), it->second) << "intern #" << i;
      const ShardedStateSet::InternResult r = sharded.intern(s);
      // Serial calls: the atomic id allocator degenerates to discovery
      // order, so even the sharded ids must match the reference exactly.
      ASSERT_EQ(r.id, it->second) << "intern #" << i;
      ASSERT_EQ(r.inserted, inserted) << "intern #" << i;
    }

    ASSERT_EQ(store.size(), ref.size());
    ASSERT_EQ(sharded.size(), ref.size());
    for (const auto& [s, id] : ref) {
      ASSERT_EQ(store.get(id), s);
      ASSERT_EQ(store.find(s), id);
    }
    // A state never interned resolves to kNone in the store and is absent
    // from the map — probe-chain termination agrees with the reference.
    const State absent({Value::string("never-interned-sentinel")});
    ASSERT_EQ(ref.find(absent), ref.end());
    ASSERT_EQ(store.find(absent), StateStore::kNone);
    if (table != nullptr) {
      // Both kinds of slot occur, and the decoder refuses a slot word that
      // names no value of its domain instead of reading past it.
      std::size_t indexed = 0, escaped = 0;
      for (const auto& [s, id] : ref) {
        const auto [data, len] = store.encoded(id);
        for (std::size_t i = 0; i < s.size(); ++i) {
          const bool in_domain =
              i < table->size() && table->domain(static_cast<VarId>(i)).contains(s[i]);
          (in_domain ? indexed : escaped) += 1;
          if (!in_domain) continue;
          std::vector<std::byte> bytes(data, data + len);
          const std::size_t size = table->domain(static_cast<VarId>(i)).size();
          for (int k = 0; k < 4; ++k) {
            bytes[4 + 4 * i + k] = static_cast<std::byte>(size >> (8 * k));
          }
          ASSERT_THROW(decode_state(table, bytes.data(), bytes.size()), std::runtime_error)
              << "id " << id << " slot " << i;
        }
      }
      EXPECT_GT(indexed, 0u);
      EXPECT_GT(escaped, 0u);
    }
    if (spill) {
      EXPECT_GT(store.arena().spilled_segments(), 0u);
    } else {
      EXPECT_EQ(store.arena().spilled_segments(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreVsMapHarness, ::testing::Range(0u, kSeeds));

/// Eighth differential axis: nested disjunctions. ActionSuccessors
/// distributes a \/ nested inside a conjunct into one disjunct per primed
/// branch (decompose_distributed, up to its cap), while the tree's
/// eval_enabled keeps the source split. From every state of the 18-state
/// universe, the successor set must equal brute force (eval_action against
/// every state) and enabled() must equal both eval_enabled and "has a
/// successor". Some branches are partial and only safe under left-to-right
/// evaluation, so an exception here is a failure too. Returns the number
/// of states with a successor.
std::size_t expect_matches_brute_force(const VarTable& vars, const Expr& act,
                                       DuplicateSetTally* tally = nullptr) {
  const StateSpace space(vars);
  const ActionSuccessors succ(vars, act);
  if (tally != nullptr) tally->record(vars, act, succ);
  std::size_t enabled_states = 0;
  auto lt = [&](const State& a, const State& b) { return a.to_string(vars) < b.to_string(vars); };
  space.for_each_state([&](const State& s) {
    std::vector<State> expected;
    space.for_each_state([&](const State& t) {
      if (eval_action(act, vars, s, t)) expected.push_back(t);
    });
    std::vector<State> got = succ.successors(s);
    expect_no_repeat(got, vars, act, s);
    std::sort(expected.begin(), expected.end(), lt);
    std::sort(got.begin(), got.end(), lt);
    ASSERT_EQ(got, expected) << "action " << act.to_string(vars) << " at " << s.to_string(vars);
    const bool enabled = succ.enabled(s);
    ASSERT_EQ(enabled, eval_enabled(act, vars, s))
        << "action " << act.to_string(vars) << " at " << s.to_string(vars);
    ASSERT_EQ(enabled, !expected.empty());
    enabled_states += enabled ? 1 : 0;
  });
  return enabled_states;
}

class NestedDisjunctionHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(NestedDisjunctionHarness, DistributedSuccessorsMatchBruteForceAndTreeEnabled) {
  const unsigned seed = GetParam();
  ActionGen gen(seed);
  unsigned live_cases = 0;
  DuplicateSetTally tally;
  for (unsigned c = 0; c < kCasesPerSeed + kAdvanceOrHoldCases; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const Expr act = c >= kCasesPerSeed ? gen.advance_or_hold_action(/*nested=*/true)
                     : c % 2 == 0       ? gen.nested_action()
                                        : gen.changing_action();
    const std::size_t enabled_states = expect_matches_brute_force(gen.vars(), act, &tally);
    if (HasFatalFailure()) return;
    if (c < kCasesPerSeed) live_cases += enabled_states > 0 ? 1 : 0;
  }
  // Non-vacuity: most random actions fire from some state.
  EXPECT_GT(live_cases, kCasesPerSeed / 2);
  tally.expect_nonvacuous();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedDisjunctionHarness, ::testing::Range(0u, kSeeds));

TEST(NestedDisjunctionCap, ExpansionPastTheCapKeepsTheSourceSplitAndAgrees) {
  // /\ of 13 two-way disjunctions distributes into 2^13 = 8192 disjuncts,
  // past the 4096 cap: the generator decomposes the action as written.
  ActionGen gen(0);
  const std::vector<VarId> v = gen.vars().all_vars();
  std::vector<Expr> conjuncts;
  for (std::int64_t k = 0; k < 13; ++k) {
    const VarId a = v[static_cast<std::size_t>(k % 3)];
    const VarId b = v[static_cast<std::size_t>((k + 1) % 3)];
    conjuncts.push_back(ex::lor(ex::neq(ex::primed_var(a), ex::integer(k % 2)),
                                ex::eq(ex::primed_var(b), ex::var(a))));
  }
  const Expr act = ex::land(std::move(conjuncts));
  ASSERT_FALSE(decompose_distributed(act).has_value());
  EXPECT_GT(expect_matches_brute_force(gen.vars(), act), 0u);  // non-vacuous

  // The pinned-variable rule then applies to the one source disjunct, whose
  // residual mentions z': a pinned z is still enumerated, so pinning
  // changes nothing here.
  const VarId z = v[2];
  const ActionSuccessors pinned(gen.vars(), act, {z});
  const ActionSuccessors unpinned(gen.vars(), act);
  std::size_t z_moves = 0;
  StateSpace(gen.vars()).for_each_state([&](const State& s) {
    const std::vector<State> succ = pinned.successors(s);
    EXPECT_EQ(succ, unpinned.successors(s)) << s.to_string(gen.vars());
    for (const State& t : succ) z_moves += t[z] == s[z] ? 0 : 1;
  });
  EXPECT_GT(z_moves, 0u);  // non-vacuous: some successor changes z
}

/// The product of `explorer`, explored in full through its successor
/// function and without self-loops: the graph its on-the-fly checks are
/// compared with. `explorer` must outlive it.
StateGraph full_product(const ConstraintExplorer& explorer) {
  ExploreOptions opts;
  opts.add_self_loops = false;
  return StateGraph(
      explorer.product_vars(), explorer.initial(),
      [&explorer](const State& u, const std::function<void(const State&)>& emit) {
        explorer.for_each_successor(u, emit);
      },
      opts);
}

/// Tenth differential axis: the conjunction-aware step generator
/// (graph/conjunction) against generate-and-test's semantics. Random
/// systems of two or three parts over five visible variables: each part
/// owns one or two of them and acts by flips, constants, copies and
/// unmentioned variables, sometimes on another part's or a shared variable.
/// Sometimes a Disjoint over the parts' outputs is among the filters.
///
///   - build_composite_graph (every state initial): from every state, the
///     successors must equal every universe state some part's action or a
///     free tuple allows, filtered by every part.
///   - ConstraintExplorer over the parts' machines, where part 0 may own a
///     hidden variable and one part's machine may be freeze-wrapped: every
///     product node's successors must equal the stutter plus every universe
///     state some mover's action allows from one of its hidden sources,
///     stepped through the machines.
constexpr unsigned kSystemCasesPerSeed = 20;

class SystemGen {
 public:
  explicit SystemGen(unsigned seed) : rng_(seed) {
    visible_ = {vars_.declare("a", range_domain(0, 2)), vars_.declare("b", range_domain(0, 1)),
                vars_.declare("c", range_domain(0, 2)), vars_.declare("d", range_domain(0, 1)),
                vars_.declare("e", range_domain(0, 1))};
    h_ = vars_.declare("h", range_domain(0, 1));
  }

  const VarTable& vars() const { return vars_; }
  const std::vector<VarId>& visible() const { return visible_; }
  VarId h() const { return h_; }
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool coin() { return pick(2) == 1; }

  struct System {
    std::vector<CanonicalSpec> parts;
    std::vector<std::vector<VarId>> outputs;
    std::vector<VarId> shared;  // visible variables no part owns
  };

  /// Part 0 owns the hidden variable h when `hidden` is set.
  System system(bool hidden) {
    System sys;
    const int n = 2 + pick(2);
    std::vector<VarId> pool = visible_;
    std::shuffle(pool.begin(), pool.end(), rng_);
    std::size_t at = 0;
    for (int k = 0; k < n; ++k) {
      const std::size_t take = (k < 2 && coin()) ? 2 : 1;
      sys.outputs.emplace_back(pool.begin() + at, pool.begin() + at + take);
      at += take;
    }
    sys.shared.assign(pool.begin() + at, pool.end());
    for (int k = 0; k < n; ++k) sys.parts.push_back(part(sys, k, hidden && k == 0));
    return sys;
  }

 private:
  Expr val(VarId v) { return ex::integer(pick(static_cast<int>(vars_.domain(v).size()))); }

  Expr flip(VarId v) {
    const auto size = static_cast<std::int64_t>(vars_.domain(v).size());
    return ex::mod(ex::add(ex::var(v), ex::integer(1)), ex::integer(size));
  }

  VarId any_visible() { return visible_[static_cast<std::size_t>(pick(5))]; }

  /// Writes v (flip, constant or copy), or leaves it unmentioned.
  void write(VarId v, std::vector<Expr>& conj) {
    switch (pick(4)) {
      case 0: conj.push_back(ex::eq(ex::primed_var(v), flip(v))); break;
      case 1: conj.push_back(ex::eq(ex::primed_var(v), val(v))); break;
      case 2: conj.push_back(ex::eq(ex::primed_var(v), ex::var(any_visible()))); break;
      default: break;  // unmentioned
    }
  }

  /// Holds v, leaves it unmentioned, or (rarely) sets it.
  void frame(VarId v, std::vector<Expr>& conj) {
    switch (pick(5)) {
      case 0:
      case 1: conj.push_back(ex::unchanged({v})); break;
      case 2:
      case 3: break;
      default: conj.push_back(ex::eq(ex::primed_var(v), val(v)));
    }
  }

  CanonicalSpec part(const System& sys, int k, bool hidden) {
    CanonicalSpec s;
    s.name = "P" + std::to_string(k);
    s.init = ex::top();
    s.sub = sys.outputs[static_cast<std::size_t>(k)];
    if (!sys.shared.empty() && pick(4) == 0) s.sub.push_back(sys.shared[0]);
    if (hidden) {
      s.sub.push_back(h_);
      s.hidden = {h_};
    }
    std::vector<Expr> disjuncts;
    const int count = 1 + pick(2);
    for (int i = 0; i < count; ++i) {
      std::vector<Expr> conj;
      if (coin()) conj.push_back(ex::eq(ex::var(any_visible()), val(any_visible())));
      if (hidden && coin()) conj.push_back(ex::eq(ex::var(h_), val(h_)));
      for (VarId v : sys.outputs[static_cast<std::size_t>(k)]) write(v, conj);
      if (hidden) write(h_, conj);
      for (std::size_t j = 0; j < sys.outputs.size(); ++j) {
        if (j == static_cast<std::size_t>(k)) continue;
        for (VarId v : sys.outputs[j]) frame(v, conj);
      }
      for (VarId v : sys.shared) frame(v, conj);
      disjuncts.push_back(ex::land(std::move(conj)));
    }
    s.next = ex::lor(std::move(disjuncts));
    return s;
  }

  VarTable vars_;
  std::vector<VarId> visible_;
  VarId h_ = 0;
  std::mt19937 rng_;
};

/// Printable keys of a state set, for readable failure diffs.
std::vector<std::string> keys(const VarTable& vars, const std::vector<State>& states) {
  std::vector<std::string> out;
  for (const State& t : states) out.push_back(t.to_string(vars));
  return out;
}

bool agrees_outside(const std::vector<VarId>& tuple, const State& s, const State& t) {
  for (VarId v = 0; v < s.size(); ++v) {
    if (std::find(tuple.begin(), tuple.end(), v) == tuple.end() && s[v] != t[v]) return false;
  }
  return true;
}

class ConjunctionHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(ConjunctionHarness, GeneratedStepsEqualGenerateAndTest) {
  const unsigned seed = GetParam();
  SystemGen gen(seed);
  const VarTable& vars = gen.vars();
  const StateSpace space(vars);
  std::size_t joint_steps = 0, breaking_steps = 0, disjoint_cases = 0;

  for (unsigned c = 0; c < kSystemCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const bool with_disjoint = gen.coin();
    disjoint_cases += with_disjoint ? 1 : 0;

    // --- build_composite_graph: h is pinned by a frame part. ---
    {
      SystemGen::System sys = gen.system(/*hidden=*/false);
      std::vector<CompositePart> parts;
      for (const CanonicalSpec& p : sys.parts) parts.push_back({p, true});
      if (with_disjoint) parts.push_back({make_disjoint(sys.outputs, "G"), false});
      if (!sys.shared.empty()) {
        CanonicalSpec frame;
        frame.name = "Frame";
        frame.init = ex::top();
        frame.next = ex::top();
        frame.sub = sys.shared;
        parts.push_back({frame, false});
      }
      parts.push_back({make_pin(vars, {gen.h()}, "PinH"), false});
      std::vector<std::vector<VarId>> free_tuples;
      if (gen.coin()) {
        free_tuples.push_back(sys.shared.empty() || gen.coin() ? sys.outputs.back()
                                                               : sys.shared);
      }
      const StateGraph g = build_composite_graph(vars, parts, free_tuples, {gen.h()});
      for (StateId id = 0; id < g.num_states(); ++id) {
        const State s = g.state(id);
        // The filter checks only the filter-only parts: every emitted step
        // must satisfy each mover part's [N_k]_{v_k} by construction.
        for (StateId t : g.successors(id)) {
          for (const CompositePart& p : parts) {
            if (!p.mover) continue;
            ASSERT_TRUE(p.spec.step_ok(vars, s, g.state(t)))
                << "mover " << p.spec.name << " rejects " << s.to_string(vars) << " -> "
                << g.state(t).to_string(vars);
          }
        }
        std::vector<State> expected;
        space.for_each_state([&](const State& t) {
          if (t == s) return;
          bool moved = false;
          for (const CanonicalSpec& p : sys.parts) moved = moved || eval_action(p.next, vars, s, t);
          for (const std::vector<VarId>& f : free_tuples) moved = moved || agrees_outside(f, s, t);
          if (!moved) return;
          for (const CompositePart& p : parts) {
            if (!p.spec.step_ok(vars, s, t)) return;
          }
          expected.push_back(t);
          std::size_t owners = 0;
          for (const std::vector<VarId>& o : sys.outputs) owners += changes_tuple(o, s, t);
          joint_steps += owners > 1 ? 1 : 0;
        });
        std::vector<State> got;
        for (StateId t : g.successors(id)) {
          if (t != id) got.push_back(g.state(t));
        }
        got = as_set(std::move(got));
        expected = as_set(std::move(expected));
        if (got != expected) {
          ASSERT_EQ(keys(vars, got), keys(vars, expected)) << "compose at " << s.to_string(vars);
        }
      }
    }

    // --- ConstraintExplorer: h hidden in part 0 (or normalized away), one
    // machine possibly freeze-wrapped. ---
    {
      SystemGen::System sys = gen.system(/*hidden=*/gen.coin());
      const std::vector<VarId> normalize = {gen.h()};
      const int frozen = gen.coin() ? gen.pick(static_cast<int>(sys.parts.size())) : -1;
      std::vector<std::shared_ptr<const SafetyMachine>> constraints;
      std::vector<Mover> movers;
      for (std::size_t k = 0; k < sys.parts.size(); ++k) {
        std::shared_ptr<const SafetyMachine> m = std::make_shared<PrefixMachine>(vars, sys.parts[k]);
        if (static_cast<int>(k) == frozen) m = std::make_shared<FreezeMachine>(m, gen.visible());
        constraints.push_back(std::move(m));
        movers.push_back(mover_from_spec(sys.parts[k], static_cast<int>(k), normalize));
      }
      if (with_disjoint) {
        constraints.push_back(std::make_shared<PrefixMachine>(vars, make_disjoint(sys.outputs)));
      }
      const ProductMachine product(constraints);
      const ConstraintExplorer explorer(vars, constraints, movers, ex::top(), normalize);
      const StateGraph g = full_product(explorer);
      const std::size_t width = vars.size();
      auto visible = [&](const State& node) {
        return State(std::vector<Value>(node.values().begin(), node.values().begin() + width));
      };
      auto normalized = [&](State t) {
        t[gen.h()] = vars.domain(gen.h())[0];
        return t;
      };
      // Brute-force action successors of mover k from a full source state,
      // normalized; many product nodes share a source.
      std::vector<std::unordered_map<State, std::vector<State>, StateHash>> brute(
          sys.parts.size());
      auto moves = [&](std::size_t k, const State& src) -> const std::vector<State>& {
        auto [it, fresh] = brute[k].try_emplace(src);
        if (fresh) {
          space.for_each_state([&](const State& t) {
            if (eval_action(sys.parts[k].next, vars, src, t)) it->second.push_back(normalized(t));
          });
        }
        return it->second;
      };
      for (StateId id = 0; id < g.num_states(); ++id) {
        const State u = g.state(id);
        const State s = visible(u);
        const Value& cfg = u[width];
        std::vector<State> candidates = {s};
        for (std::size_t k = 0; k < sys.parts.size(); ++k) {
          std::vector<State> sources = {s};
          if (sys.parts[k].has_hidden()) {
            sources.clear();
            const Value configs = product.factor(k).mover_configs(product.factor_config(cfg, k));
            for (const Value& hv : configs.as_tuple()) {
              State src = s;
              src[gen.h()] = hv.as_tuple()[0];
              sources.push_back(std::move(src));
            }
          }
          for (const State& src : sources) {
            const std::vector<State>& ts = moves(k, src);
            candidates.insert(candidates.end(), ts.begin(), ts.end());
          }
        }
        std::vector<State> expected;
        for (const State& t : candidates) {
          Value next = product.step(cfg, s, t);
          if (!product.alive(next) || (t == s && next == cfg)) continue;
          std::vector<Value> values = t.values();
          values.push_back(std::move(next));
          expected.emplace_back(std::move(values));
          if (frozen >= 0 && !sys.parts[static_cast<std::size_t>(frozen)].has_hidden() &&
              !sys.parts[static_cast<std::size_t>(frozen)].step_ok(vars, s, t)) {
            ++breaking_steps;
          }
        }
        std::vector<State> got;
        for (StateId t : g.successors(id)) got.push_back(g.state(t));
        got = as_set(std::move(got));
        expected = as_set(std::move(expected));
        if (got != expected) {
          ASSERT_EQ(keys(g.vars(), got), keys(g.vars(), expected))
              << "product at " << u.to_string(g.vars());
        }
      }
    }
  }
  // Non-vacuity: joint steps (no Disjoint forbids them) and steps that break
  // a freeze-wrapped part both occur, and both Disjoint branches run.
  EXPECT_GT(joint_steps, 0u);
  EXPECT_GT(breaking_steps, 0u);
  EXPECT_GT(disjoint_cases, 0u);
  EXPECT_LT(disjoint_cases, kSystemCasesPerSeed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConjunctionHarness, ::testing::Range(0u, kSeeds));

/// Twelfth differential axis: the prefix machine's stutter shortcut
/// (PrefixMachine::stutter_keeps_config). Random canonical specs over two
/// visible variables and two hidden ones with tiny domains: hidden-free
/// specs, specs whose every disjunct flips a visible variable (a' = 1 - a),
/// specs with a disjunct that moves only hidden variables, and free-form
/// ones. For every configuration (every set of hidden assignments) and
/// every pair of visible states, PrefixMachine::step must equal a
/// reference that enumerates every hidden assignment of the successor and
/// decides [N]_v by eval_action on the full states. Per seed the shortcut
/// must fire on a spec with a hidden variable and stay off on another.
constexpr unsigned kStutterSpecsPerSeed = 40;

class StutterSpecGen {
 public:
  enum class Kind { kHiddenFree, kFlips, kHiddenOnly, kFree };

  explicit StutterSpecGen(unsigned seed) : rng_(seed) {
    a_ = vars_.declare("a", range_domain(0, 1));
    b_ = vars_.declare("b", range_domain(0, 2));
    h_ = vars_.declare("h", range_domain(0, 1));
    k_ = vars_.declare("k", range_domain(0, 1));
  }

  const VarTable& vars() const { return vars_; }
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool coin() { return pick(2) == 1; }

  CanonicalSpec spec(Kind kind, const std::string& name) {
    CanonicalSpec s;
    s.name = name;
    const std::vector<VarId> visible = coin() ? std::vector<VarId>{a_} : std::vector<VarId>{a_, b_};
    if (kind != Kind::kHiddenFree) {
      s.hidden = coin() ? std::vector<VarId>{h_} : std::vector<VarId>{h_, k_};
    }
    s.sub = visible;
    s.sub.insert(s.sub.end(), s.hidden.begin(), s.hidden.end());
    std::vector<VarId> all = s.sub;
    s.init = coin() ? ex::top() : value_is(all[static_cast<std::size_t>(pick(static_cast<int>(all.size())))]);
    std::vector<Expr> disjuncts;
    const int count = 1 + pick(3);
    const int hidden_only_at = kind == Kind::kHiddenOnly ? pick(count) : -1;
    for (int d = 0; d < count; ++d) {
      std::vector<Expr> conj;
      if (coin()) conj.push_back(value_is(all[static_cast<std::size_t>(pick(static_cast<int>(all.size())))]));
      for (std::size_t i = 0; i < visible.size(); ++i) {
        const VarId v = visible[i];
        if (d == hidden_only_at) {
          conj.push_back(ex::unchanged({v}));
        } else if (kind == Kind::kFlips && i == 0) {
          conj.push_back(ex::eq(ex::primed_var(v), ex::sub(ex::integer(1), ex::var(v))));
        } else {
          write(v, conj);
        }
      }
      for (VarId v : s.hidden) {
        if (d == hidden_only_at && v == h_) {
          conj.push_back(ex::eq(ex::primed_var(v), ex::sub(ex::integer(1), ex::var(v))));
        } else {
          write(v, conj);
        }
      }
      disjuncts.push_back(ex::land(std::move(conj)));
    }
    s.next = ex::lor(std::move(disjuncts));
    return s;
  }

 private:
  Expr value_is(VarId v) {
    return ex::eq(ex::var(v), ex::integer(pick(static_cast<int>(vars_.domain(v).size()))));
  }

  /// Flips, sets, holds or leaves v unmentioned.
  void write(VarId v, std::vector<Expr>& conj) {
    const auto size = static_cast<std::int64_t>(vars_.domain(v).size());
    switch (pick(4)) {
      case 0:
        conj.push_back(ex::eq(ex::primed_var(v),
                              ex::mod(ex::add(ex::var(v), ex::integer(1)), ex::integer(size))));
        break;
      case 1: conj.push_back(ex::eq(ex::primed_var(v), ex::integer(pick(static_cast<int>(size))))); break;
      case 2: conj.push_back(ex::unchanged({v})); break;
      default: break;  // unmentioned
    }
  }

  VarTable vars_;
  VarId a_ = 0, b_ = 0, h_ = 0, k_ = 0;
  std::mt19937 rng_;
};

/// The hidden part of `full`, in `spec.hidden` order, as one assignment.
Value hidden_assignment(const CanonicalSpec& spec, const State& full) {
  Value::Tuple h;
  for (VarId v : spec.hidden) h.push_back(full[v]);
  return Value::tuple(std::move(h));
}

/// `visible` with `spec`'s hidden variables set to the assignment `h`.
State with_hidden(const CanonicalSpec& spec, State visible, const Value& h) {
  for (std::size_t i = 0; i < spec.hidden.size(); ++i) visible[spec.hidden[i]] = h.as_tuple()[i];
  return visible;
}

/// The subset construction by brute force: every hidden assignment of t
/// that some assignment of `config` reaches by a [N]_v step.
Value reference_step(const VarTable& vars, const CanonicalSpec& spec, const Value& config,
                     const State& s, const State& t) {
  const StateSpace space(vars);
  std::vector<Value> next;
  for (const Value& h : config.as_tuple()) {
    const State s_full = with_hidden(spec, s, h);
    space.for_each_completion(t, spec.hidden, [&](const State& t_full) {
      if (!changes_tuple(spec.sub, s_full, t_full) ||
          eval_action(spec.next, vars, s_full, t_full)) {
        next.push_back(hidden_assignment(spec, t_full));
      }
      return false;
    });
  }
  return encode_config(std::move(next));
}

class StutterShortcutHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(StutterShortcutHarness, StepsEqualTheBruteForceSubsetConstruction) {
  const unsigned seed = GetParam();
  StutterSpecGen gen(seed);
  const VarTable& vars = gen.vars();
  const StateSpace space(vars);
  std::size_t fired_hidden = 0, off = 0, fired_hidden_free = 0;

  for (unsigned c = 0; c < kStutterSpecsPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const auto kind = static_cast<StutterSpecGen::Kind>(c % 4);
    const CanonicalSpec spec = gen.spec(kind, "S" + std::to_string(c));
    const PrefixMachine machine(vars, spec);
    if (kind == StutterSpecGen::Kind::kHiddenFree || kind == StutterSpecGen::Kind::kFlips) {
      // No hidden variable, or a visible flip in every disjunct.
      ASSERT_TRUE(machine.stutter_keeps_config()) << spec.next.to_string(vars);
    }
    if (kind == StutterSpecGen::Kind::kHiddenOnly) {
      // A disjunct that flips h and holds every visible variable.
      ASSERT_FALSE(machine.stutter_keeps_config()) << spec.next.to_string(vars);
    }
    if (machine.stutter_keeps_config()) {
      (spec.hidden.empty() ? fired_hidden_free : fired_hidden) += 1;
    } else {
      ++off;
    }

    // Every set of hidden assignments is a configuration.
    std::vector<Value> assignments;
    space.for_each_completion(space.first_state(), spec.hidden, [&](const State& full) {
      assignments.push_back(hidden_assignment(spec, full));
      return false;
    });
    std::vector<Value> configs;
    for (std::size_t mask = 0; mask < (std::size_t{1} << assignments.size()); ++mask) {
      std::vector<Value> subset;
      for (std::size_t i = 0; i < assignments.size(); ++i) {
        if ((mask >> i) & 1) subset.push_back(assignments[i]);
      }
      configs.push_back(encode_config(std::move(subset)));
    }

    // The states fed to the machine carry arbitrary hidden entries, which
    // it must ignore.
    std::vector<State> states;
    space.for_each_state([&](const State& st) { states.push_back(st); });
    for (const State& s : states) {
      std::vector<Value> init;
      space.for_each_completion(s, spec.hidden, [&](const State& full) {
        if (eval_pred(spec.init, vars, full)) init.push_back(hidden_assignment(spec, full));
        return false;
      });
      ASSERT_EQ(machine.initial(s), encode_config(std::move(init))) << s.to_string(vars);
      for (const State& t : states) {
        for (const Value& config : configs) {
          const Value got = machine.step(config, s, t);
          const Value want = reference_step(vars, spec, config, s, t);
          if (got != want) {
            ASSERT_EQ(got.to_string(), want.to_string())
                << spec.next.to_string(vars) << " from " << config.to_string() << " at "
                << s.to_string(vars) << " -> " << t.to_string(vars);
          }
        }
      }
    }
  }
  // Non-vacuity: the shortcut fires with and without hidden variables and
  // stays off where a visible stutter can move the hidden part.
  EXPECT_GT(fired_hidden, 0u);
  EXPECT_GT(fired_hidden_free, 0u);
  EXPECT_GT(off, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StutterShortcutHarness, ::testing::Range(0u, kSeeds));

/// Thirteenth differential axis: the on-the-fly target check
/// (ConstraintExplorer::check_targets) against the unoptimized semantics,
/// a full exploration of the product followed by one find_dead_pair
/// search of it per target. Random products over a counter x in 0..3 and a flag y,
/// with a hidden h, carry 1-3 targets: random specs, some with h hidden
/// (configurations that are not singletons), which hold or die early, and a
/// counter bound that dies late, once x wraps. Per target, the check of all
/// targets at once and the target's own check must agree with the search
/// in verdict and counterexample length; every counterexample must replay
/// (the target is alive after each proper prefix and dead after the whole
/// trace); and a check cut by max_states or by a stopped budget must
/// report no target as definitively holding.
constexpr unsigned kWalkCasesPerSeed = 30;

class WalkGen {
 public:
  explicit WalkGen(unsigned seed) : rng_(seed) {
    x_ = vars_.declare("x", range_domain(0, 3));
    y_ = vars_.declare("y", range_domain(0, 1));
    h_ = vars_.declare("h", range_domain(0, 1));
  }

  const VarTable& vars() const { return vars_; }
  VarId x() const { return x_; }
  VarId y() const { return y_; }
  VarId h() const { return h_; }
  int pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool coin() { return pick(2) == 1; }

  /// x counts up, wrapping at 3; a second disjunct may reset it.
  CanonicalSpec counter() {
    CanonicalSpec s;
    s.name = "SX";
    s.init = ex::eq(ex::var(x_), ex::integer(0));
    std::vector<Expr> disjuncts = {
        ex::land(ex::eq(ex::primed_var(x_), ex::mod(ex::add(ex::var(x_), ex::integer(1)),
                                                    ex::integer(4))),
                 ex::unchanged({y_}))};
    if (coin()) {
      disjuncts.push_back(ex::land(ex::eq(ex::var(y_), ex::integer(pick(2))),
                                   ex::eq(ex::primed_var(x_), ex::integer(0)),
                                   ex::unchanged({y_})));
    }
    s.next = ex::lor(std::move(disjuncts));
    s.sub = {x_};
    return s;
  }

  /// y flips, sometimes only at some x.
  CanonicalSpec flag() {
    CanonicalSpec s;
    s.name = "SY";
    s.init = coin() ? ex::top() : ex::eq(ex::var(y_), ex::integer(0));
    std::vector<Expr> conj;
    if (coin()) conj.push_back(ex::neq(ex::var(x_), ex::integer(pick(4))));
    conj.push_back(ex::eq(ex::primed_var(y_), ex::sub(ex::integer(1), ex::var(y_))));
    conj.push_back(ex::unchanged({x_}));
    s.next = ex::land(std::move(conj));
    s.sub = {y_};
    return s;
  }

  /// x never wraps to 0 except, sometimes, at one value of y: dies late.
  CanonicalSpec late(const std::string& name) {
    CanonicalSpec s;
    s.name = name;
    s.init = ex::top();
    std::vector<Expr> disjuncts = {ex::eq(ex::primed_var(x_), ex::add(ex::var(x_), ex::integer(1)))};
    if (coin()) {
      disjuncts.push_back(ex::land(ex::eq(ex::var(y_), ex::integer(pick(2))),
                                   ex::eq(ex::primed_var(x_), ex::integer(0))));
    }
    s.next = ex::lor(std::move(disjuncts));
    s.sub = {x_};
    return s;
  }

  /// A random spec over x and y, with h hidden half the time.
  CanonicalSpec random(const std::string& name) {
    CanonicalSpec s;
    s.name = name;
    s.sub = coin() ? std::vector<VarId>{x_, y_} : std::vector<VarId>{coin() ? x_ : y_};
    if (coin()) s.hidden = {h_};
    std::vector<VarId> all = s.sub;
    all.insert(all.end(), s.hidden.begin(), s.hidden.end());
    s.sub = all;
    s.init = coin() ? ex::top() : value_is(all[static_cast<std::size_t>(pick(static_cast<int>(all.size())))]);
    std::vector<Expr> disjuncts;
    const int count = 1 + pick(3);
    for (int d = 0; d < count; ++d) {
      std::vector<Expr> conj;
      if (coin()) conj.push_back(value_is(all[static_cast<std::size_t>(pick(static_cast<int>(all.size())))]));
      for (VarId v : all) {
        const auto size = static_cast<std::int64_t>(vars_.domain(v).size());
        switch (pick(4)) {
          case 0:
            conj.push_back(ex::eq(ex::primed_var(v), ex::mod(ex::add(ex::var(v), ex::integer(1)),
                                                             ex::integer(size))));
            break;
          case 1:
            conj.push_back(ex::eq(ex::primed_var(v), ex::integer(pick(static_cast<int>(size)))));
            break;
          case 2: conj.push_back(ex::unchanged({v})); break;
          default: break;
        }
      }
      disjuncts.push_back(ex::land(std::move(conj)));
    }
    s.next = ex::lor(std::move(disjuncts));
    return s;
  }

 private:
  Expr value_is(VarId v) {
    return ex::eq(ex::var(v), ex::integer(pick(static_cast<int>(vars_.domain(v).size()))));
  }

  VarTable vars_;
  VarId x_ = 0, y_ = 0, h_ = 0;
  std::mt19937 rng_;
};

/// Whether `trace` refutes `m` first at its last state: m is alive after
/// every proper prefix and dead after the whole trace.
::testing::AssertionResult dies_first_at_the_end(const SafetyMachine& m,
                                                  const std::vector<State>& trace) {
  if (trace.empty()) return ::testing::AssertionFailure() << "empty counterexample";
  Value config = m.initial(trace[0]);
  for (std::size_t j = 1; j < trace.size(); ++j) {
    if (!m.alive(config)) {
      return ::testing::AssertionFailure()
             << m.name() << " is dead after " << j << " of " << trace.size() << " states";
    }
    config = m.step(config, trace[j - 1], trace[j]);
  }
  if (m.alive(config)) {
    return ::testing::AssertionFailure() << m.name() << " is alive after the whole trace";
  }
  return ::testing::AssertionSuccess();
}

/// `m` reading only the first `width` values of each state: a target run
/// over whole product nodes, which end in the left-hand side's
/// configuration.
class VisiblePart final : public SafetyMachine {
 public:
  VisiblePart(const SafetyMachine& m, std::size_t width) : m_(m), width_(width) {}
  Value initial(const State& s) const override { return m_.initial(cut(s)); }
  Value step(const Value& config, const State& s, const State& t) const override {
    return m_.step(config, cut(s), cut(t));
  }
  bool alive(const Value& config) const override { return m_.alive(config); }
  std::string name() const override { return m_.name(); }

 private:
  State cut(const State& s) const {
    return State(std::vector<Value>(s.values().begin(), s.values().begin() + width_));
  }

  const SafetyMachine& m_;
  std::size_t width_;
};

class JointWalkHarness : public ::testing::TestWithParam<unsigned> {};

TEST_P(JointWalkHarness, OneWalkAgreesWithOneWalkPerTarget) {
  const unsigned seed = GetParam();
  WalkGen gen(seed);
  const VarTable& vars = gen.vars();
  const std::size_t width = vars.size();
  std::size_t held = 0, died_early = 0, died_late = 0, stopped_early = 0, capped = 0, wide = 0;

  for (unsigned c = 0; c < kWalkCasesPerSeed; ++c) {
    SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
    const CanonicalSpec sx = gen.counter();
    const CanonicalSpec sy = gen.flag();
    const std::vector<std::shared_ptr<const SafetyMachine>> constraints = {
        std::make_shared<PrefixMachine>(vars, sx), std::make_shared<PrefixMachine>(vars, sy)};
    const std::vector<Mover> movers = {mover_from_spec(sx, 0, {gen.h()}),
                                       mover_from_spec(sy, 1, {gen.h()})};
    const Expr init = ex::land(sx.init, sy.init);
    const ConstraintExplorer explorer(vars, constraints, movers, init, {gen.h()});

    const int count = 1 + gen.pick(3);
    const int late_at = gen.pick(count + 1);  // == count: no late target
    std::vector<std::unique_ptr<PrefixMachine>> machines;
    std::vector<const SafetyMachine*> targets;
    std::vector<std::unique_ptr<VisiblePart>> on_nodes;
    for (int i = 0; i < count; ++i) {
      const std::string name = "T" + std::to_string(i);
      machines.push_back(std::make_unique<PrefixMachine>(
          vars, i == late_at ? gen.late(name) : gen.random(name)));
      targets.push_back(machines.back().get());
      on_nodes.push_back(std::make_unique<VisiblePart>(*machines.back(), width));
    }

    // The reference: the whole product, then one search of it per target.
    const StateGraph product = full_product(explorer);
    ASSERT_EQ(product.stop_reason(), run::StopReason::kCompleted);
    std::vector<DeadPairSearch> reference;
    for (const auto& t : on_nodes) {
      reference.push_back(find_dead_pair(product, *t, {}));
      ASSERT_EQ(reference.back().stop_reason, run::StopReason::kCompleted);
    }
    // Some target's configuration is not a singleton, at a product node or
    // one step after it.
    bool not_singleton = false;
    for (StateId u = 0; u < product.num_states() && !not_singleton; ++u) {
      const State s = product.state(u);
      for (const auto& t : on_nodes) {
        const Value config = t->initial(s);
        not_singleton = not_singleton || config.length() > 1;
        for (StateId v : product.successors(u)) {
          not_singleton = not_singleton || t->step(config, s, product.state(v)).length() > 1;
        }
      }
    }
    wide += not_singleton ? 1 : 0;

    const std::vector<ConstraintExplorer::Verdict> joint = explorer.check_targets(targets);
    ASSERT_EQ(joint.size(), targets.size());
    // Fewer nodes than the product has: the check stopped once every
    // target had died. Its node count is not compared with the searches'
    // pairs: where each stops depends on the order of a node's steps,
    // which a search takes sorted by product id.
    stopped_early += joint[0].nodes < product.num_states() ? 1 : 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      SCOPED_TRACE("target " + targets[i]->name());
      const ConstraintExplorer::Verdict single = explorer.check_target(*targets[i]);
      EXPECT_EQ(joint[i].stop_reason, run::StopReason::kCompleted);
      EXPECT_EQ(joint[i].nodes, joint[0].nodes);
      ASSERT_EQ(joint[i].holds, reference[i].path.empty());
      ASSERT_EQ(single.holds, joint[i].holds);
      ASSERT_EQ(joint[i].counterexample.size(), reference[i].path.size());
      ASSERT_EQ(single.counterexample.size(), joint[i].counterexample.size());
      if (joint[i].holds) {
        ++held;
        continue;
      }
      std::vector<State> replay;
      for (StateId id : reference[i].path) {
        const State node = product.state(id);
        replay.emplace_back(std::vector<Value>(node.values().begin(), node.values().begin() + width));
      }
      EXPECT_TRUE(dies_first_at_the_end(*targets[i], replay));
      EXPECT_TRUE(dies_first_at_the_end(*targets[i], joint[i].counterexample));
      EXPECT_TRUE(dies_first_at_the_end(*targets[i], single.counterexample));
      if (joint[i].counterexample.size() <= 2) ++died_early;
      if (joint[i].counterexample.size() >= 5) ++died_late;
    }

    // A check cut short, by a cap below the nodes the full check interned
    // or by a stopped budget, reports no target as definitively holding; a
    // counterexample it does report still replays.
    run::RunBudget stopped;
    stopped.request_stop(run::StopReason::kInterrupted);
    std::vector<ExploreOptions> cuts(1);
    cuts[0].budget = &stopped;
    if (joint[0].nodes > 1) {
      cuts.emplace_back().max_states =
          1 + static_cast<std::size_t>(gen.pick(static_cast<int>(joint[0].nodes - 1)));
    }
    for (const ExploreOptions& opts : cuts) {
      const ConstraintExplorer cut(vars, constraints, movers, init, {gen.h()}, opts);
      const std::vector<ConstraintExplorer::Verdict> partial = cut.check_targets(targets);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_NE(partial[i].stop_reason, run::StopReason::kCompleted) << targets[i]->name();
        if (!partial[i].holds) {
          EXPECT_TRUE(dies_first_at_the_end(*targets[i], partial[i].counterexample));
        }
      }
      capped += opts.budget == nullptr ? 1 : 0;
    }
  }
  // Non-vacuity: targets hold, die at once and die late, some checks stop
  // before the whole product is explored, some carry configurations that
  // are not singletons, and caps cut checks.
  EXPECT_GT(held, 0u);
  EXPECT_GT(died_early, 0u);
  EXPECT_GT(died_late, 0u);
  EXPECT_GT(stopped_early, 0u);
  EXPECT_GT(wide, 0u);
  EXPECT_GT(capped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JointWalkHarness, ::testing::Range(0u, kSeeds));

}  // namespace
}  // namespace opentla
