#include "opentla/expr/eval.hpp"

#include <cstdint>
#include <stdexcept>

#include "opentla/expr/analysis.hpp"
#include "opentla/state/state_space.hpp"

namespace opentla {

namespace {
[[noreturn]] void eval_error(const std::string& msg) {
  throw std::runtime_error("eval: " + msg);
}

std::int64_t as_int(const Expr& e, EvalContext& ctx) { return eval(e, ctx).as_int(); }

// Pops one local binding on scope exit, so an eval_error thrown from a
// quantifier body cannot leave a stale binding in a reused context.
struct LocalScope {
  std::vector<std::pair<std::string, Value>>* locals;
  ~LocalScope() { locals->pop_back(); }
};

// Restores ctx.next on scope exit (ENABLED re-points it at candidate states).
struct NextRestore {
  EvalContext* ctx;
  const State* saved;
  ~NextRestore() { ctx->next = saved; }
};

const Value& read_var(const ExprNode& n, const EvalContext& ctx) {
  if (n.primed) {
    if (ctx.next == nullptr) eval_error("primed variable in a state-function context");
    return (*ctx.next)[n.var];
  }
  if (ctx.current == nullptr) eval_error("no current state");
  return (*ctx.current)[n.var];
}

// An operand read in place where that is safe: a Var from its state slot,
// a Const from its node. Any other operand is evaluated into `tmp`.
// Locals are copied too, because a quantifier in a later operand pushes a
// binding and can reallocate ctx.locals under a reference.
const Value& operand(const Expr& e, EvalContext& ctx, Value& tmp) {
  if (!e.is_null()) {
    const ExprNode& n = e.node();
    if (n.kind == ExprKind::Var) return read_var(n, ctx);
    if (n.kind == ExprKind::Const) return n.value;
  }
  tmp = eval(e, ctx);
  return tmp;
}
}  // namespace

// Pinned evaluation-order contract:
//
// Operands of every binary operator are evaluated LEFT TO RIGHT, and the
// n-ary connectives And / Or short-circuit in child order. This matters
// only when evaluation can throw: which eval error a spec surfaces (an
// overflow in the left operand vs. a kind mismatch in the right) is part
// of the evaluator's observable behaviour. C++ leaves the order of
// function-argument evaluation unspecified, so every case below that
// evaluates two operands does it through named temporaries rather than
// inline calls; operands read in place (`operand`) keep the same order
// and the same messages. tests/test_expr.cpp pins the messages.
Value eval(const Expr& e, EvalContext& ctx) {
  if (e.is_null()) eval_error("null expression");
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::Const:
      return n.value;

    case ExprKind::Var:
      return read_var(n, ctx);

    case ExprKind::Local: {
      for (auto it = ctx.locals.rbegin(); it != ctx.locals.rend(); ++it) {
        if (it->first == n.local) return it->second;
      }
      eval_error("unbound local '" + n.local + "'");
    }

    case ExprKind::Not:
      return Value::boolean(!eval_bool(n.kids[0], ctx));

    case ExprKind::And: {
      for (const Expr& k : n.kids) {
        if (!eval_bool(k, ctx)) return Value::boolean(false);
      }
      return Value::boolean(true);
    }

    case ExprKind::Or: {
      for (const Expr& k : n.kids) {
        if (eval_bool(k, ctx)) return Value::boolean(true);
      }
      return Value::boolean(false);
    }

    case ExprKind::Implies:
      return Value::boolean(!eval_bool(n.kids[0], ctx) || eval_bool(n.kids[1], ctx));

    case ExprKind::Equiv: {
      const bool a = eval_bool(n.kids[0], ctx);
      const bool b = eval_bool(n.kids[1], ctx);
      return Value::boolean(a == b);
    }

    case ExprKind::Eq: {
      Value sa, sb;
      const Value& a = operand(n.kids[0], ctx, sa);
      const Value& b = operand(n.kids[1], ctx, sb);
      return Value::boolean(a == b);
    }
    case ExprKind::Neq: {
      Value sa, sb;
      const Value& a = operand(n.kids[0], ctx, sa);
      const Value& b = operand(n.kids[1], ctx, sb);
      return Value::boolean(!(a == b));
    }
    case ExprKind::Lt: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a < b);
    }
    case ExprKind::Le: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a <= b);
    }
    case ExprKind::Gt: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a > b);
    }
    case ExprKind::Ge: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      return Value::boolean(a >= b);
    }

    case ExprKind::Add: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_add_overflow(a, b, &r)) {
        eval_error("integer overflow in +");
      }
      return Value::integer(r);
    }
    case ExprKind::Sub: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_sub_overflow(a, b, &r)) {
        eval_error("integer overflow in -");
      }
      return Value::integer(r);
    }
    case ExprKind::Mul: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      std::int64_t r = 0;
      if (__builtin_mul_overflow(a, b, &r)) {
        eval_error("integer overflow in *");
      }
      return Value::integer(r);
    }
    case ExprKind::Mod: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      const std::int64_t b = as_int(n.kids[1], ctx);
      if (b <= 0) eval_error("mod requires b > 0");
      // TLC's floored modulo: the result carries the divisor's sign, so with
      // b > 0 it always lies in [0, b) — e.g. -3 % 2 = 1.
      const std::int64_t r = a % b;
      return Value::integer(r < 0 ? r + b : r);
    }
    case ExprKind::Neg: {
      const std::int64_t a = as_int(n.kids[0], ctx);
      if (a == INT64_MIN) eval_error("integer overflow in unary -");
      return Value::integer(-a);
    }

    case ExprKind::IfThenElse:
      return eval_bool(n.kids[0], ctx) ? eval(n.kids[1], ctx) : eval(n.kids[2], ctx);

    case ExprKind::MakeTuple: {
      Value::Tuple elems;
      elems.reserve(n.kids.size());
      for (const Expr& k : n.kids) elems.push_back(eval(k, ctx));
      return Value::tuple(std::move(elems));
    }

    case ExprKind::Head: {
      Value tmp;
      return seq_head(operand(n.kids[0], ctx, tmp));
    }
    case ExprKind::Tail: {
      Value tmp;
      return seq_tail(operand(n.kids[0], ctx, tmp));
    }
    case ExprKind::Len: {
      Value tmp;
      return Value::integer(
          static_cast<std::int64_t>(operand(n.kids[0], ctx, tmp).length()));
    }
    case ExprKind::Concat: {
      Value sa, sb;
      const Value& a = operand(n.kids[0], ctx, sa);
      const Value& b = operand(n.kids[1], ctx, sb);
      return seq_concat(a, b);
    }
    case ExprKind::Append: {
      Value sa, sb;
      const Value& a = operand(n.kids[0], ctx, sa);
      const Value& b = operand(n.kids[1], ctx, sb);
      return seq_append(a, b);
    }
    case ExprKind::Index: {
      Value tmp;
      const Value& s = operand(n.kids[0], ctx, tmp);
      const std::int64_t i = as_int(n.kids[1], ctx);
      const Value::Tuple& t = s.as_tuple();
      if (i < 1 || static_cast<std::size_t>(i) > t.size()) {
        eval_error("sequence index " + std::to_string(i) + " out of range for " +
                   s.to_string());
      }
      return t[static_cast<std::size_t>(i) - 1];
    }

    case ExprKind::ExistsVal:
    case ExprKind::ForallVal: {
      const bool is_exists = (n.kind == ExprKind::ExistsVal);
      ctx.locals.emplace_back(n.local, Value());
      LocalScope scope{&ctx.locals};
      bool result = !is_exists;
      for (const Value& v : n.domain.values()) {
        ctx.locals.back().second = v;
        const bool b = eval_bool(n.kids[0], ctx);
        if (b == is_exists) {
          result = is_exists;
          break;
        }
      }
      return Value::boolean(result);
    }

    case ExprKind::Enabled: {
      if (ctx.vars == nullptr || ctx.current == nullptr) {
        eval_error("ENABLED requires a VarTable and a current state");
      }
      // ENABLED must be evaluated with the *outer* locals visible (the
      // action may mention bound variables of an enclosing quantifier).
      // The context is reused as scratch — no per-query locals copy.
      return Value::boolean(enabled_with_locals(n.kids[0], ctx));
    }
  }
  eval_error("unknown node kind");
}

bool eval_bool(const Expr& e, EvalContext& ctx) {
  Value v = eval(e, ctx);
  if (!v.is_bool()) {
    eval_error("expected a boolean, got " + v.to_string());
  }
  return v.as_bool();
}

bool eval_pred(const Expr& e, const VarTable& vars, const State& s) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  return eval_bool(e, ctx);
}

Value eval_fn(const Expr& e, const VarTable& vars, const State& s) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  return eval(e, ctx);
}

bool eval_action(const Expr& e, const VarTable& vars, const State& s, const State& t) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  ctx.next = &t;
  return eval_bool(e, ctx);
}

bool eval_enabled(const Expr& action, const VarTable& vars, const State& s) {
  return enabled_with_locals(action, vars, s, {});
}

bool enabled_with_locals(const Expr& action, const VarTable& vars, const State& s,
                         const std::vector<std::pair<std::string, Value>>& locals) {
  EvalContext ctx;
  ctx.vars = &vars;
  ctx.current = &s;
  ctx.locals = locals;
  return enabled_with_locals(action, ctx);
}

bool enabled_with_locals(const Expr& action, EvalContext& ctx) {
  if (ctx.vars == nullptr || ctx.current == nullptr) {
    eval_error("ENABLED requires a VarTable and a current state");
  }
  const VarTable& vars = *ctx.vars;
  const State& s = *ctx.current;
  StateSpace space(vars);
  NextRestore restore{&ctx, ctx.next};
  for (const ActionDisjunct& d : decompose_action(action)) {
    // Guards and assignment right-hand sides are state functions of s.
    ctx.next = nullptr;

    bool feasible = true;
    for (const Expr& g : d.guards) {
      if (!eval_bool(g, ctx)) {
        feasible = false;
        break;
      }
    }
    if (!feasible) continue;

    State t = s;
    for (const auto& [v, rhs] : d.assignments) {
      Value val = eval(rhs, ctx);
      if (!vars.domain(v).contains(val)) {
        feasible = false;  // the required successor lies outside the space
        break;
      }
      t[v] = val;
    }
    if (!feasible) continue;

    if (d.residual.empty()) return true;

    // Pruned existential search: a residual conjunct is evaluated as soon
    // as its last unassigned primed variable is bound, and the first leaf
    // that survives every check is a witness — stop immediately.
    const ResidualSchedule sched =
        schedule_residual(d.residual_needs, d.unassigned_primed);
    const bool witness = space.for_each_completion_pruned(
        t, sched,
        [&](std::size_t i, const State& cand) {
          ctx.next = &cand;
          return eval_bool(d.residual[i], ctx);
        },
        [](const State&) { return true; });
    if (witness) return true;
  }
  return false;
}

}  // namespace opentla
