// Unit tests for expression construction, evaluation (state functions and
// actions), ENABLED, and printing (opentla/expr).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "opentla/expr/eval.hpp"
#include "opentla/expr/expr.hpp"
#include "opentla/expr/substitute.hpp"
#include "opentla/state/var_table.hpp"

namespace opentla {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() {
    x = vars.declare("x", range_domain(0, 3));
    y = vars.declare("y", range_domain(0, 3));
    q = vars.declare("q", seq_domain(range_domain(0, 1), 2));
  }

  State state(std::int64_t xv, std::int64_t yv, Value qv = Value::empty_seq()) {
    return State({Value::integer(xv), Value::integer(yv), std::move(qv)});
  }

  /// The message `eval` throws for `e` at state `cur` (no next state), or
  /// "" if it returns.
  std::string error_of(const Expr& e, const State* cur) {
    EvalContext ctx;
    ctx.vars = &vars;
    ctx.current = cur;
    try {
      eval(e, ctx);
    } catch (const std::runtime_error& ex) {
      return ex.what();
    }
    return "";
  }

  VarTable vars;
  VarId x = 0, y = 0, q = 0;
};

TEST_F(ExprTest, ArithmeticAndComparison) {
  State s = state(2, 3);
  EXPECT_EQ(eval_fn(ex::add(ex::var(x), ex::integer(5)), vars, s), Value::integer(7));
  EXPECT_EQ(eval_fn(ex::mul(ex::var(x), ex::var(y)), vars, s), Value::integer(6));
  EXPECT_EQ(eval_fn(ex::sub(ex::integer(1), ex::var(x)), vars, s), Value::integer(-1));
  EXPECT_EQ(eval_fn(ex::neg(ex::var(y)), vars, s), Value::integer(-3));
  EXPECT_TRUE(eval_pred(ex::lt(ex::var(x), ex::var(y)), vars, s));
  EXPECT_FALSE(eval_pred(ex::ge(ex::var(x), ex::var(y)), vars, s));
  EXPECT_TRUE(eval_pred(ex::le(ex::var(x), ex::integer(2)), vars, s));
  EXPECT_TRUE(eval_pred(ex::neq(ex::var(x), ex::var(y)), vars, s));
}

TEST_F(ExprTest, BooleanConnectives) {
  State s = state(1, 2);
  Expr t = ex::top();
  Expr f = ex::bottom();
  EXPECT_TRUE(eval_pred(ex::land(t, t), vars, s));
  EXPECT_FALSE(eval_pred(ex::land(t, f), vars, s));
  EXPECT_TRUE(eval_pred(ex::lor(f, t), vars, s));
  EXPECT_TRUE(eval_pred(ex::implies(f, f), vars, s));
  EXPECT_FALSE(eval_pred(ex::implies(t, f), vars, s));
  EXPECT_TRUE(eval_pred(ex::equiv(f, f), vars, s));
  EXPECT_TRUE(eval_pred(!f, vars, s));
  // Empty conjunction is TRUE, empty disjunction FALSE.
  EXPECT_TRUE(eval_pred(ex::land(std::vector<Expr>{}), vars, s));
  EXPECT_FALSE(eval_pred(ex::lor(std::vector<Expr>{}), vars, s));
  EXPECT_EQ(error_of(ex::lnot(ex::add(ex::integer(1), ex::integer(2))), &s),
            "eval: expected a boolean, got 3");
}

TEST_F(ExprTest, ShortCircuitSkipsIllTypedBranch) {
  // x = 0 /\ Head(q) = 0 must not evaluate Head(<<>>) when x # 0.
  State s = state(1, 0);
  Expr e = ex::land(ex::eq(ex::var(x), ex::integer(0)),
                    ex::eq(ex::head(ex::var(q)), ex::integer(0)));
  EXPECT_FALSE(eval_pred(e, vars, s));
  // A null kid throws only when it is reached.
  EXPECT_TRUE(eval_pred(ex::lor(ex::top(), Expr()), vars, s));
  EXPECT_EQ(error_of(ex::lor(ex::bottom(), Expr()), &s), "eval: null expression");
}

TEST_F(ExprTest, SequenceOperators) {
  Value q12 = Value::tuple({Value::integer(1), Value::integer(0)});
  State s = state(0, 0, q12);
  EXPECT_EQ(eval_fn(ex::len(ex::var(q)), vars, s), Value::integer(2));
  EXPECT_EQ(eval_fn(ex::head(ex::var(q)), vars, s), Value::integer(1));
  EXPECT_EQ(eval_fn(ex::tail(ex::var(q)), vars, s), Value::tuple({Value::integer(0)}));
  EXPECT_EQ(eval_fn(ex::append(ex::var(q), ex::integer(1)), vars, s),
            Value::tuple({Value::integer(1), Value::integer(0), Value::integer(1)}));
  EXPECT_EQ(eval_fn(ex::concat(ex::var(q), ex::var(q)), vars, s).length(), 4u);
  EXPECT_EQ(eval_fn(ex::make_tuple({ex::var(x), ex::var(y)}), vars, s),
            Value::tuple({Value::integer(0), Value::integer(0)}));
}

TEST_F(ExprTest, ModuloAndIndexing) {
  State s = state(3, 2, Value::tuple({Value::integer(1), Value::integer(0)}));
  EXPECT_EQ(eval_fn(ex::mod(ex::var(x), ex::integer(2)), vars, s), Value::integer(1));
  EXPECT_EQ(eval_fn(ex::mod(ex::var(y), ex::var(y)), vars, s), Value::integer(0));
  EXPECT_EQ(error_of(ex::mod(ex::var(x), ex::integer(0)), &s), "eval: mod requires b > 0");
  EXPECT_EQ(error_of(ex::mod(ex::var(x), ex::integer(-2)), &s), "eval: mod requires b > 0");
  // Floored modulo (TLC): the result has the divisor's sign, so -3 % 2 = 1.
  EXPECT_EQ(eval_fn(ex::mod(ex::neg(ex::var(x)), ex::integer(2)), vars, s),
            Value::integer(1));
  EXPECT_EQ(eval_fn(ex::mod(ex::integer(-4), ex::integer(4)), vars, s), Value::integer(0));
  EXPECT_EQ(eval_fn(ex::mod(ex::integer(-1), ex::integer(5)), vars, s), Value::integer(4));
  EXPECT_EQ(eval_fn(ex::index(ex::var(q), ex::integer(1)), vars, s), Value::integer(1));
  EXPECT_EQ(eval_fn(ex::index(ex::var(q), ex::var(y)), vars, s), Value::integer(0));
  EXPECT_EQ(error_of(ex::index(ex::var(q), ex::integer(0)), &s),
            "eval: sequence index 0 out of range for <<1, 0>>");
  EXPECT_EQ(error_of(ex::index(ex::make_tuple({ex::var(x)}), ex::integer(3)), &s),
            "eval: sequence index 3 out of range for <<3>>");
  EXPECT_EQ(ex::index(ex::var(q), ex::integer(2)).to_string(vars), "q[2]");
  EXPECT_EQ(ex::mod(ex::var(x), ex::integer(2)).to_string(vars), "x % 2");
}

TEST_F(ExprTest, ArithmeticOverflowIsAnEvalError) {
  // Overflow must surface as an eval error, never as a wrapped value (and
  // never as signed-overflow UB — the sanitizer build checks this too).
  State s = state(0, 0);
  const Expr max = ex::integer(INT64_MAX);
  const Expr min = ex::integer(INT64_MIN);
  EXPECT_EQ(error_of(ex::add(max, ex::integer(1)), &s), "eval: integer overflow in +");
  EXPECT_EQ(error_of(ex::sub(min, ex::integer(1)), &s), "eval: integer overflow in -");
  EXPECT_EQ(error_of(ex::mul(max, ex::integer(2)), &s), "eval: integer overflow in *");
  EXPECT_EQ(error_of(ex::mul(min, ex::integer(-1)), &s), "eval: integer overflow in *");
  EXPECT_EQ(error_of(ex::neg(min), &s), "eval: integer overflow in unary -");
  // The boundary cases right below overflow still evaluate.
  EXPECT_EQ(eval_fn(ex::add(max, ex::integer(0)), vars, s), Value::integer(INT64_MAX));
  EXPECT_EQ(eval_fn(ex::sub(min, ex::integer(0)), vars, s), Value::integer(INT64_MIN));
  EXPECT_EQ(eval_fn(ex::neg(ex::integer(INT64_MAX)), vars, s),
            Value::integer(-INT64_MAX));
}

TEST_F(ExprTest, QuantifierBindingPoppedWhenBodyThrows) {
  // An eval error inside a quantifier body must not leave the bound
  // variable in the (reused) context — the scope guard pops it.
  State s = state(0, 0);
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  // Head(q) throws on the empty sequence, aborting the quantifier body.
  Expr bad = ex::exists_val("v", range_domain(0, 3),
                            ex::eq(ex::head(ex::var(q)), ex::local("v")));
  EXPECT_THROW(eval(bad, ctx), std::runtime_error);
  EXPECT_TRUE(ctx.locals.empty());
  // The context stays usable: an unbound 'v' is still an error ...
  try {
    eval(ex::local("v"), ctx);
    ADD_FAILURE() << "expected an unbound-local error";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "eval: unbound local 'v'");
  }
  // ... and ordinary evaluation proceeds normally.
  EXPECT_EQ(eval(ex::add(ex::var(x), ex::integer(1)), ctx), Value::integer(1));
}

TEST_F(ExprTest, Conditional) {
  State s = state(2, 0);
  Expr e = ex::ite(ex::gt(ex::var(x), ex::integer(1)), ex::str("big"), ex::str("small"));
  EXPECT_EQ(eval_fn(e, vars, s), Value::string("big"));
}

TEST_F(ExprTest, BoundedQuantifiers) {
  State s = state(2, 0);
  // \E v \in 0..3 : v + v = x
  Expr exists = ex::exists_val(
      "v", range_domain(0, 3),
      ex::eq(ex::add(ex::local("v"), ex::local("v")), ex::var(x)));
  EXPECT_TRUE(eval_pred(exists, vars, s));
  // \A v \in 0..3 : v <= x is false for x = 2.
  Expr forall =
      ex::forall_val("v", range_domain(0, 3), ex::le(ex::local("v"), ex::var(x)));
  EXPECT_FALSE(eval_pred(forall, vars, s));
  // Nested binding shadows.
  Expr nested = ex::exists_val(
      "v", range_domain(0, 0),
      ex::exists_val("v", range_domain(3, 3), ex::eq(ex::local("v"), ex::integer(3))));
  EXPECT_TRUE(eval_pred(nested, vars, s));
  // A local operand is copied, not read in place: the other operand's
  // quantifier pushes a binding, which can reallocate the locals.
  Expr beside = ex::exists_val(
      "v", range_domain(3, 3),
      ex::eq(ex::local("v"), ex::ite(ex::exists_val("w", range_domain(0, 1), ex::top()),
                                     ex::integer(3), ex::integer(0))));
  EXPECT_TRUE(eval_pred(beside, vars, s));
}

TEST_F(ExprTest, ActionsReadPrimedFromNextState) {
  State s = state(1, 2);
  State t = state(2, 2);
  Expr incr = ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)));
  EXPECT_TRUE(eval_action(incr, vars, s, t));
  EXPECT_FALSE(eval_action(incr, vars, t, s));
  EXPECT_TRUE(eval_action(ex::unchanged({y}), vars, s, t));
  EXPECT_FALSE(eval_action(ex::unchanged({x}), vars, s, t));
}

TEST_F(ExprTest, MissingStateThrows) {
  State s = state(0, 0);
  EXPECT_EQ(error_of(ex::eq(ex::primed_var(x), ex::integer(0)), &s),
            "eval: primed variable in a state-function context");
  EXPECT_EQ(error_of(ex::var(x), nullptr), "eval: no current state");
}

TEST_F(ExprTest, OperandsAreEvaluatedLeftToRight) {
  // Variables and constants are read in place and other operands
  // evaluated, but the left operand's error still comes first.
  State s = state(0, 0);
  const Expr overflow = ex::add(ex::integer(INT64_MAX), ex::integer(1));
  EXPECT_EQ(error_of(ex::eq(ex::primed_var(x), overflow), &s),
            "eval: primed variable in a state-function context");
  EXPECT_EQ(error_of(ex::eq(overflow, ex::primed_var(x)), &s),
            "eval: integer overflow in +");
}

TEST_F(ExprTest, PrimeTransform) {
  Expr e = ex::add(ex::var(x), ex::var(y));
  Expr ep = prime(e);
  State s = state(1, 1);
  State t = state(2, 3);
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  ctx.next = &t;
  EXPECT_EQ(eval(ep, ctx), Value::integer(5));
  EXPECT_THROW(prime(ep), std::runtime_error);
  EXPECT_THROW(prime(ex::enabled(ex::top())), std::runtime_error);
}

TEST_F(ExprTest, EnabledSimpleGuard) {
  // ENABLED (x < 3 /\ x' = x + 1) is true iff x < 3.
  Expr act = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                      ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
  EXPECT_TRUE(eval_enabled(act, vars, state(2, 0)));
  EXPECT_FALSE(eval_enabled(act, vars, state(3, 0)));
}

TEST_F(ExprTest, EnabledRespectsDomainBounds) {
  // x' = x + 1 is disabled at the top of the domain: no successor exists
  // within the declared space.
  Expr act = ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1)));
  EXPECT_TRUE(eval_enabled(act, vars, state(2, 0)));
  EXPECT_FALSE(eval_enabled(act, vars, state(3, 0)));
}

TEST_F(ExprTest, EnabledWithResidualConstraint) {
  // ENABLED (x' # x /\ x' # 3) — needs enumeration of x'.
  Expr act = ex::land(ex::neq(ex::primed_var(x), ex::var(x)),
                      ex::neq(ex::primed_var(x), ex::integer(3)));
  EXPECT_TRUE(eval_enabled(act, vars, state(0, 0)));
  // From any state some x' in {0..2}\{x} exists, so always enabled.
  EXPECT_TRUE(eval_enabled(act, vars, state(3, 0)));
}

TEST_F(ExprTest, EnabledAsStatePredicateInsideEval) {
  Expr act = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                      ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
  Expr pred = ex::enabled(act);
  EXPECT_TRUE(eval_pred(pred, vars, state(0, 0)));
  EXPECT_FALSE(eval_pred(pred, vars, state(3, 0)));
  // The action sees the enclosing quantifier's binding: x' = i has a
  // witness for i in 2..3 but none for i in 7..9, outside x's domain.
  Expr set_x = ex::eq(ex::primed_var(x), ex::local("i"));
  EXPECT_TRUE(eval_pred(ex::exists_val("i", range_domain(2, 3), ex::enabled(set_x)), vars,
                        state(1, 0)));
  EXPECT_FALSE(eval_pred(ex::exists_val("i", range_domain(7, 9), ex::enabled(set_x)), vars,
                         state(1, 0)));
}

TEST_F(ExprTest, Printing) {
  Expr e = ex::land(ex::lt(ex::var(x), ex::integer(3)),
                    ex::eq(ex::primed_var(x), ex::add(ex::var(x), ex::integer(1))));
  EXPECT_EQ(e.to_string(vars), "x < 3 /\\ x' = x + 1");
  EXPECT_EQ(ex::unchanged({x, y}).to_string(vars), "x' = x /\\ y' = y");
  EXPECT_EQ(ex::make_tuple({ex::var(x)}).to_string(vars), "<<x>>");
}

TEST_F(ExprTest, RenameAndSubstitute) {
  Expr e = ex::eq(ex::primed_var(x), ex::add(ex::var(y), ex::integer(1)));
  Expr renamed = rename_vars(e, {{x, y}, {y, x}});
  EXPECT_EQ(renamed.to_string(vars), "y' = x + 1");
  Expr substituted = substitute_vars(e, {{y, ex::integer(7)}});
  EXPECT_EQ(substituted.to_string(vars), "x' = 7 + 1");
  // Substituting into a primed occurrence primes the replacement.
  Expr e2 = ex::eq(ex::primed_var(y), ex::integer(0));
  Expr s2 = substitute_vars(e2, {{y, ex::var(x)}});
  EXPECT_EQ(s2.to_string(vars), "x' = 0");
}

}  // namespace
}  // namespace opentla
