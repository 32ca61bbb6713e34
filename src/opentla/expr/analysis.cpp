#include "opentla/expr/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace opentla {

namespace {
void collect_free(const Expr& e, FreeVars& out) {
  const ExprNode& n = e.node();
  switch (n.kind) {
    case ExprKind::Var:
      (n.primed ? out.primed : out.unprimed).insert(n.var);
      return;
    case ExprKind::Enabled: {
      // ENABLED A is a state predicate: the primed variables of A are
      // quantified away; its unprimed variables remain free.
      FreeVars inner = free_vars(n.kids[0]);
      out.unprimed.insert(inner.unprimed.begin(), inner.unprimed.end());
      return;
    }
    default:
      for (const Expr& k : n.kids) collect_free(k, out);
      return;
  }
}
}  // namespace

FreeVars free_vars(const Expr& e) {
  FreeVars out;
  collect_free(e, out);
  return out;
}

bool is_state_function(const Expr& e) { return free_vars(e).primed.empty(); }

bool is_identity_frame(VarId v, const Expr& rhs) {
  const ExprNode& r = rhs.node();
  return r.kind == ExprKind::Var && r.var == v && !r.primed;
}

namespace {
void flatten(const Expr& e, ExprKind kind, std::vector<Expr>& out) {
  const ExprNode& n = e.node();
  if (n.kind == kind) {
    for (const Expr& k : n.kids) flatten(k, kind, out);
    return;
  }
  // Drop the connective's unit: TRUE in a conjunction, FALSE in a
  // disjunction.
  if (n.kind == ExprKind::Const && n.value.is_bool()) {
    const bool unit = (kind == ExprKind::And);
    if (n.value.as_bool() == unit) return;
  }
  out.push_back(e);
}
}  // namespace

std::vector<Expr> flatten_and(const Expr& e) {
  std::vector<Expr> out;
  flatten(e, ExprKind::And, out);
  return out;
}

std::vector<Expr> flatten_or(const Expr& e) {
  std::vector<Expr> out;
  flatten(e, ExprKind::Or, out);
  return out;
}

namespace {

// Tries to turn `conjunct` into zero or more assignments v' = rhs with
// state-function rhs. Handles <<a', b'>> = <<x, y>> structurally and the
// symmetric orientation rhs = v'. Returns false if the conjunct is not an
// assignment shape; `assigns` is unchanged in that case.
bool match_assignments(const Expr& conjunct, std::vector<std::pair<VarId, Expr>>& assigns) {
  const ExprNode& n = conjunct.node();
  if (n.kind != ExprKind::Eq) return false;
  const Expr* lhs = &n.kids[0];
  const Expr* rhs = &n.kids[1];
  // Orient so a primed side is on the left.
  auto is_primed_shape = [](const Expr& e) {
    const ExprNode& m = e.node();
    if (m.kind == ExprKind::Var && m.primed) return true;
    if (m.kind == ExprKind::MakeTuple) {
      return std::all_of(m.kids.begin(), m.kids.end(), [](const Expr& k) {
        return k.node().kind == ExprKind::Var && k.node().primed;
      });
    }
    return false;
  };
  if (!is_primed_shape(*lhs)) {
    std::swap(lhs, rhs);
    if (!is_primed_shape(*lhs)) return false;
  }
  if (!is_state_function(*rhs)) return false;

  const ExprNode& l = lhs->node();
  if (l.kind == ExprKind::Var) {
    assigns.emplace_back(l.var, *rhs);
    return true;
  }
  // <<v1', ..., vk'>> = rhs. Decompose only when rhs is a literal tuple of
  // the same arity; otherwise leave as residual (rhs might evaluate to a
  // tuple, but we cannot split it syntactically).
  const ExprNode& r = rhs->node();
  if (r.kind != ExprKind::MakeTuple || r.kids.size() != l.kids.size()) return false;
  for (std::size_t i = 0; i < l.kids.size(); ++i) {
    assigns.emplace_back(l.kids[i].node().var, r.kids[i]);
  }
  return true;
}

ActionDisjunct build_disjunct(const Expr& disjunct) {
  ActionDisjunct out;
  std::set<VarId> assigned;
  // Primed variables of each residual conjunct, collected in the same pass
  // that classifies the conjunct (one free_vars walk per conjunct; the
  // needs/unassigned/primed views below are all projections of this).
  std::vector<std::set<VarId>> per_conjunct_primed;
  for (const Expr& c : flatten_and(disjunct)) {
    if (is_state_function(c)) {
      out.guards.push_back(c);
      continue;
    }
    std::vector<std::pair<VarId, Expr>> assigns;
    if (match_assignments(c, assigns)) {
      bool fresh = true;
      for (const auto& [v, rhs] : assigns) {
        if (assigned.contains(v)) fresh = false;
      }
      if (fresh) {
        for (auto& [v, rhs] : assigns) {
          assigned.insert(v);
          out.assignments.emplace_back(v, rhs);
        }
        continue;
      }
      // A second constraint on an already-assigned variable: keep it as a
      // residual so it is checked, not silently dropped.
    }
    per_conjunct_primed.push_back(free_vars(c).primed);
    out.residual.push_back(c);
  }
  std::set<VarId> residual_primed;
  for (const std::set<VarId>& ps : per_conjunct_primed) {
    residual_primed.insert(ps.begin(), ps.end());
  }
  out.residual_primed.assign(residual_primed.begin(), residual_primed.end());
  for (VarId v : residual_primed) {
    if (!assigned.contains(v)) out.unassigned_primed.push_back(v);
  }
  // Annotate each residual conjunct with the unassigned primed variables it
  // mentions (ascending: std::set iteration order). Assigned primed
  // variables are determined before enumeration starts, so they never gate
  // a conjunct's schedule depth.
  out.residual_needs.reserve(out.residual.size());
  for (const std::set<VarId>& ps : per_conjunct_primed) {
    std::vector<VarId> needs;
    for (VarId v : ps) {
      if (!assigned.contains(v)) needs.push_back(v);
    }
    out.residual_needs.push_back(std::move(needs));
  }
  return out;
}

}  // namespace

std::vector<ActionDisjunct> decompose_action(const Expr& action) {
  std::vector<ActionDisjunct> out;
  for (const Expr& d : flatten_or(action)) {
    out.push_back(build_disjunct(d));
  }
  return out;
}

namespace {

// Each element is one conjunct list; the lists are the disjuncts.
using ConjunctLists = std::vector<std::vector<Expr>>;

std::optional<ConjunctLists> distribute_conjunction(const Expr& e, std::size_t max_disjuncts);

// The branches of a \/ that sits inside a conjunction. A \/ mentioning no
// primed variable stays one guard. In one that does, each primed branch is
// distributed on its own, and the primed-free branches stay together as one
// guard (placed at the first of them), so they still short-circuit left to
// right as written.
std::optional<ConjunctLists> distribute_disjunction(const Expr& e, std::size_t max_disjuncts) {
  if (is_state_function(e)) return ConjunctLists{{e}};
  ConjunctLists out;
  std::vector<Expr> guards;
  std::size_t guard_at = 0;
  for (const Expr& b : flatten_or(e)) {
    if (is_state_function(b)) {
      if (guards.empty()) {
        guard_at = out.size();
        out.emplace_back();
      }
      guards.push_back(b);
      continue;
    }
    std::optional<ConjunctLists> bd = distribute_conjunction(b, max_disjuncts);
    if (!bd) return std::nullopt;
    for (std::vector<Expr>& c : *bd) out.push_back(std::move(c));
    if (out.size() > max_disjuncts) return std::nullopt;
  }
  if (!guards.empty()) {
    out[guard_at] = {guards.size() == 1 ? guards[0] : ex::lor(std::move(guards))};
  }
  return out;
}

std::optional<ConjunctLists> distribute_conjunction(const Expr& e, std::size_t max_disjuncts) {
  ConjunctLists out = {{}};
  for (const Expr& c : flatten_and(e)) {
    if (c.node().kind != ExprKind::Or) {
      for (std::vector<Expr>& conj : out) conj.push_back(c);
      continue;
    }
    std::optional<ConjunctLists> branches = distribute_disjunction(c, max_disjuncts);
    if (!branches) return std::nullopt;
    if (out.size() * branches->size() > max_disjuncts) return std::nullopt;
    ConjunctLists next;
    next.reserve(out.size() * branches->size());
    for (const std::vector<Expr>& base : out) {
      for (const std::vector<Expr>& b : *branches) {
        std::vector<Expr> merged = base;
        merged.insert(merged.end(), b.begin(), b.end());
        next.push_back(std::move(merged));
      }
    }
    out = std::move(next);
  }
  return out;
}

}  // namespace

std::optional<std::vector<ActionDisjunct>> decompose_distributed(const Expr& action,
                                                                 std::size_t max_disjuncts) {
  ConjunctLists lists;
  for (const Expr& d : flatten_or(action)) {
    std::optional<ConjunctLists> dl = distribute_conjunction(d, max_disjuncts);
    if (!dl) return std::nullopt;
    for (std::vector<Expr>& c : *dl) lists.push_back(std::move(c));
    if (lists.size() > max_disjuncts) return std::nullopt;
  }
  std::vector<ActionDisjunct> out;
  out.reserve(lists.size());
  for (std::vector<Expr>& c : lists) out.push_back(build_disjunct(ex::land(std::move(c))));
  return out;
}

ResidualSchedule schedule_residual(const std::vector<std::vector<VarId>>& needs,
                                   const std::vector<VarId>& enumerate) {
  ResidualSchedule sched;
  sched.order.reserve(enumerate.size());
  sched.at_depth.assign(enumerate.size() + 1, {});

  const std::set<VarId> enumerable(enumerate.begin(), enumerate.end());
  // Unbound enumerated variables each conjunct still waits for; variables
  // outside `enumerate` are bound in the base state, so they drop out here.
  std::vector<std::vector<VarId>> waiting(needs.size());
  for (std::size_t i = 0; i < needs.size(); ++i) {
    for (VarId v : needs[i]) {
      if (enumerable.contains(v)) waiting[i].push_back(v);
    }
  }

  std::set<VarId> bound;
  std::vector<char> placed(needs.size(), 0);
  auto place_ready = [&] {
    // Every unplaced conjunct whose variables are all bound becomes
    // checkable at the current depth (index order for determinism).
    for (std::size_t i = 0; i < needs.size(); ++i) {
      if (placed[i]) continue;
      bool ready = true;
      for (VarId v : waiting[i]) {
        if (!bound.contains(v)) ready = false;
      }
      if (ready) {
        sched.at_depth[sched.order.size()].push_back(i);
        placed[i] = 1;
      }
    }
  };
  place_ready();  // conjuncts with no enumerated variable: depth 0

  while (sched.order.size() < enumerate.size()) {
    // Greedy: bind the variables of the conjunct that is closest to
    // becoming checkable (fewest unbound variables; ties by index).
    std::size_t best = needs.size();
    std::size_t best_missing = 0;
    for (std::size_t i = 0; i < needs.size(); ++i) {
      if (placed[i]) continue;
      std::size_t missing = 0;
      for (VarId v : waiting[i]) {
        if (!bound.contains(v)) ++missing;
      }
      if (best == needs.size() || missing < best_missing) {
        best = i;
        best_missing = missing;
      }
    }
    if (best == needs.size()) {
      // No conjunct left: the remaining variables are pure frame
      // enumeration. Keep them in the caller's order, deepest in the tree.
      for (VarId v : enumerate) {
        if (!bound.contains(v)) sched.order.push_back(v);
      }
      break;
    }
    std::vector<VarId> fresh;
    for (VarId v : waiting[best]) {
      if (!bound.contains(v)) fresh.push_back(v);
    }
    std::sort(fresh.begin(), fresh.end());
    for (VarId v : fresh) {
      sched.order.push_back(v);
      bound.insert(v);
    }
    place_ready();
  }
  return sched;
}

std::optional<Value> fold_constant(const Expr& e) {
  const ExprNode& n = e.node();
  auto fold_bool = [](const Expr& k) -> std::optional<bool> {
    std::optional<Value> v = fold_constant(k);
    if (!v || !v->is_bool()) return std::nullopt;
    return v->as_bool();
  };
  auto fold_int = [](const Expr& k) -> std::optional<std::int64_t> {
    std::optional<Value> v = fold_constant(k);
    if (!v || !v->is_int()) return std::nullopt;
    return v->as_int();
  };
  switch (n.kind) {
    case ExprKind::Const:
      return n.value;
    case ExprKind::Var:
    case ExprKind::Local:
    case ExprKind::Enabled:
      return std::nullopt;
    case ExprKind::Not: {
      std::optional<bool> a = fold_bool(n.kids[0]);
      if (!a) return std::nullopt;
      return Value::boolean(!*a);
    }
    case ExprKind::And:
    case ExprKind::Or: {
      // Short-circuit: one determining kid folds the connective even when
      // the others are non-constant.
      const bool determining = (n.kind == ExprKind::Or);
      bool all_known = true;
      for (const Expr& k : n.kids) {
        std::optional<bool> b = fold_bool(k);
        if (!b) {
          all_known = false;
        } else if (*b == determining) {
          return Value::boolean(determining);
        }
      }
      if (all_known) return Value::boolean(!determining);
      return std::nullopt;
    }
    case ExprKind::Implies: {
      std::optional<bool> a = fold_bool(n.kids[0]);
      std::optional<bool> b = fold_bool(n.kids[1]);
      if (a && !*a) return Value::boolean(true);
      if (b && *b) return Value::boolean(true);
      if (a && b) return Value::boolean(*b);
      return std::nullopt;
    }
    case ExprKind::Equiv: {
      std::optional<bool> a = fold_bool(n.kids[0]);
      std::optional<bool> b = fold_bool(n.kids[1]);
      if (!a || !b) return std::nullopt;
      return Value::boolean(*a == *b);
    }
    case ExprKind::Eq:
    case ExprKind::Neq: {
      std::optional<Value> a = fold_constant(n.kids[0]);
      std::optional<Value> b = fold_constant(n.kids[1]);
      if (!a || !b) return std::nullopt;
      return Value::boolean((*a == *b) == (n.kind == ExprKind::Eq));
    }
    case ExprKind::Lt:
    case ExprKind::Le:
    case ExprKind::Gt:
    case ExprKind::Ge: {
      std::optional<std::int64_t> a = fold_int(n.kids[0]);
      std::optional<std::int64_t> b = fold_int(n.kids[1]);
      if (!a || !b) return std::nullopt;
      switch (n.kind) {
        case ExprKind::Lt: return Value::boolean(*a < *b);
        case ExprKind::Le: return Value::boolean(*a <= *b);
        case ExprKind::Gt: return Value::boolean(*a > *b);
        default:           return Value::boolean(*a >= *b);
      }
    }
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Mod: {
      std::optional<std::int64_t> a = fold_int(n.kids[0]);
      std::optional<std::int64_t> b = fold_int(n.kids[1]);
      if (!a || !b) return std::nullopt;
      // Overflow and a nonpositive divisor fold to nullopt: evaluation
      // reports them as eval errors, never as wrapped values.
      std::int64_t r = 0;
      switch (n.kind) {
        case ExprKind::Add:
          if (__builtin_add_overflow(*a, *b, &r)) return std::nullopt;
          return Value::integer(r);
        case ExprKind::Sub:
          if (__builtin_sub_overflow(*a, *b, &r)) return std::nullopt;
          return Value::integer(r);
        case ExprKind::Mul:
          if (__builtin_mul_overflow(*a, *b, &r)) return std::nullopt;
          return Value::integer(r);
        default:
          if (*b <= 0) return std::nullopt;
          // TLC's floored modulo: the result has the sign of b (here > 0).
          r = *a % *b;
          return Value::integer(r < 0 ? r + *b : r);
      }
    }
    case ExprKind::Neg: {
      std::optional<std::int64_t> a = fold_int(n.kids[0]);
      if (!a || *a == INT64_MIN) return std::nullopt;
      return Value::integer(-*a);
    }
    case ExprKind::IfThenElse: {
      std::optional<bool> cond = fold_bool(n.kids[0]);
      if (!cond) return std::nullopt;
      return fold_constant(n.kids[*cond ? 1 : 2]);
    }
    case ExprKind::MakeTuple: {
      Value::Tuple elems;
      elems.reserve(n.kids.size());
      for (const Expr& k : n.kids) {
        std::optional<Value> v = fold_constant(k);
        if (!v) return std::nullopt;
        elems.push_back(std::move(*v));
      }
      return Value::tuple(std::move(elems));
    }
    case ExprKind::Len: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      if (!s || !s->is_tuple()) return std::nullopt;
      return Value::integer(static_cast<std::int64_t>(s->length()));
    }
    case ExprKind::Head: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      if (!s || !s->is_tuple() || s->length() == 0) return std::nullopt;
      return s->as_tuple().front();
    }
    case ExprKind::Tail: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      if (!s || !s->is_tuple() || s->length() == 0) return std::nullopt;
      return seq_tail(*s);
    }
    case ExprKind::Concat: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      std::optional<Value> t = fold_constant(n.kids[1]);
      if (!s || !t || !s->is_tuple() || !t->is_tuple()) return std::nullopt;
      return seq_concat(*s, *t);
    }
    case ExprKind::Append: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      std::optional<Value> v = fold_constant(n.kids[1]);
      if (!s || !v || !s->is_tuple()) return std::nullopt;
      return seq_append(*s, *v);
    }
    case ExprKind::Index: {
      std::optional<Value> s = fold_constant(n.kids[0]);
      std::optional<std::int64_t> i = fold_int(n.kids[1]);
      if (!s || !i || !s->is_tuple()) return std::nullopt;
      if (*i < 1 || static_cast<std::size_t>(*i) > s->length()) return std::nullopt;
      return s->as_tuple()[static_cast<std::size_t>(*i - 1)];
    }
    case ExprKind::ExistsVal:
    case ExprKind::ForallVal:
      // Folding would require substituting the bound variable; out of scope
      // for a syntactic pass.
      return std::nullopt;
  }
  return std::nullopt;
}

Expr to_dnf(const Expr& e, std::size_t max_disjuncts) {
  const ExprNode& n = e.node();
  // Each element of the result is one conjunct list.
  std::vector<std::vector<Expr>> disjuncts;
  if (n.kind == ExprKind::Or) {
    for (const Expr& k : n.kids) {
      Expr kd = to_dnf(k, max_disjuncts);
      for (const Expr& d : flatten_or(kd)) {
        disjuncts.push_back(flatten_and(d));
        if (disjuncts.size() > max_disjuncts) {
          throw std::runtime_error("to_dnf: expansion too large");
        }
      }
    }
  } else if (n.kind == ExprKind::And) {
    disjuncts.push_back({});
    for (const Expr& k : n.kids) {
      Expr kd = to_dnf(k, max_disjuncts);
      std::vector<Expr> kid_disjuncts = flatten_or(kd);
      std::vector<std::vector<Expr>> next;
      next.reserve(disjuncts.size() * kid_disjuncts.size());
      for (const std::vector<Expr>& base : disjuncts) {
        for (const Expr& d : kid_disjuncts) {
          std::vector<Expr> merged = base;
          for (const Expr& c : flatten_and(d)) merged.push_back(c);
          next.push_back(std::move(merged));
          if (next.size() > max_disjuncts) {
            throw std::runtime_error("to_dnf: expansion too large");
          }
        }
      }
      disjuncts = std::move(next);
    }
  } else {
    return e;
  }
  std::vector<Expr> out;
  out.reserve(disjuncts.size());
  for (std::vector<Expr>& conj : disjuncts) out.push_back(ex::land(std::move(conj)));
  return ex::lor(std::move(out));
}

bool structurally_equal(const Expr& a, const Expr& b) {
  if (&a.node() == &b.node()) return true;
  const ExprNode& x = a.node();
  const ExprNode& y = b.node();
  if (x.kind != y.kind) return false;
  switch (x.kind) {
    case ExprKind::Const:
      return x.value == y.value;
    case ExprKind::Var:
      return x.var == y.var && x.primed == y.primed;
    case ExprKind::Local:
      return x.local == y.local;
    case ExprKind::ExistsVal:
    case ExprKind::ForallVal:
      if (x.local != y.local || !(x.domain == y.domain)) return false;
      break;
    default:
      break;
  }
  if (x.kids.size() != y.kids.size()) return false;
  for (std::size_t i = 0; i < x.kids.size(); ++i) {
    if (!structurally_equal(x.kids[i], y.kids[i])) return false;
  }
  return true;
}

}  // namespace opentla
