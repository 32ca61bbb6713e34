#include "opentla/tla/formula.hpp"

#include <sstream>

namespace opentla {
namespace tf {

namespace {
Formula make(FormulaNode n) {
  return Formula(std::make_shared<const FormulaNode>(std::move(n)));
}
}  // namespace

Formula pred(Expr p) {
  FormulaNode n;
  n.kind = FormulaKind::Pred;
  n.expr = std::move(p);
  return make(std::move(n));
}

Formula action_box(Expr action, std::vector<VarId> sub) {
  FormulaNode n;
  n.kind = FormulaKind::ActionBox;
  n.expr = std::move(action);
  n.sub = std::move(sub);
  return make(std::move(n));
}

Formula always(Formula f) {
  FormulaNode n;
  n.kind = FormulaKind::Always;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

Formula eventually(Formula f) {
  FormulaNode n;
  n.kind = FormulaKind::Eventually;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

Formula weak_fair(std::vector<VarId> sub, Expr action) {
  FormulaNode n;
  n.kind = FormulaKind::WeakFair;
  n.sub = std::move(sub);
  n.expr = std::move(action);
  return make(std::move(n));
}

Formula strong_fair(std::vector<VarId> sub, Expr action) {
  FormulaNode n;
  n.kind = FormulaKind::StrongFair;
  n.sub = std::move(sub);
  n.expr = std::move(action);
  return make(std::move(n));
}

Formula lnot(Formula f) {
  FormulaNode n;
  n.kind = FormulaKind::Not;
  n.kids = {std::move(f)};
  return make(std::move(n));
}

Formula land(std::vector<Formula> kids) {
  FormulaNode n;
  n.kind = FormulaKind::And;
  n.kids = std::move(kids);
  return make(std::move(n));
}

Formula land(Formula a, Formula b) { return land(std::vector<Formula>{std::move(a), std::move(b)}); }

Formula lor(std::vector<Formula> kids) {
  FormulaNode n;
  n.kind = FormulaKind::Or;
  n.kids = std::move(kids);
  return make(std::move(n));
}

Formula lor(Formula a, Formula b) { return lor(std::vector<Formula>{std::move(a), std::move(b)}); }

Formula implies(Formula a, Formula b) {
  FormulaNode n;
  n.kind = FormulaKind::Implies;
  n.kids = {std::move(a), std::move(b)};
  return make(std::move(n));
}

Formula equiv(Formula a, Formula b) {
  FormulaNode n;
  n.kind = FormulaKind::Equiv;
  n.kids = {std::move(a), std::move(b)};
  return make(std::move(n));
}

Formula spec(CanonicalSpec s) {
  FormulaNode n;
  n.kind = FormulaKind::Spec;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(s));
  return make(std::move(n));
}

Formula closure(CanonicalSpec s) {
  FormulaNode n;
  n.kind = FormulaKind::Closure;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(s));
  return make(std::move(n));
}

Formula while_plus(CanonicalSpec e, CanonicalSpec m) {
  FormulaNode n;
  n.kind = FormulaKind::WhilePlus;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(e));
  n.spec_m = std::make_shared<const CanonicalSpec>(std::move(m));
  return make(std::move(n));
}

Formula arrow_while(CanonicalSpec e, CanonicalSpec m) {
  FormulaNode n;
  n.kind = FormulaKind::ArrowWhile;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(e));
  n.spec_m = std::make_shared<const CanonicalSpec>(std::move(m));
  return make(std::move(n));
}

Formula plus(CanonicalSpec s, std::vector<VarId> v) {
  FormulaNode n;
  n.kind = FormulaKind::Plus;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(s));
  n.sub = std::move(v);
  return make(std::move(n));
}

Formula orthogonal(CanonicalSpec e, CanonicalSpec m) {
  FormulaNode n;
  n.kind = FormulaKind::Orthogonal;
  n.spec_e = std::make_shared<const CanonicalSpec>(std::move(e));
  n.spec_m = std::make_shared<const CanonicalSpec>(std::move(m));
  return make(std::move(n));
}

}  // namespace tf

std::string Formula::to_string(const VarTable& vars) const {
  if (is_null()) return "<null>";
  const FormulaNode& n = node();
  std::ostringstream os;
  switch (n.kind) {
    case FormulaKind::Pred:
      return n.expr.to_string(vars);
    case FormulaKind::ActionBox:
      os << "[][" << n.expr.to_string(vars) << "]_" << tuple_to_string(vars, n.sub);
      return os.str();
    case FormulaKind::Always:
      return "[](" + n.kids[0].to_string(vars) + ")";
    case FormulaKind::Eventually:
      return "<>(" + n.kids[0].to_string(vars) + ")";
    case FormulaKind::WeakFair:
      os << "WF_" << tuple_to_string(vars, n.sub) << "(" << n.expr.to_string(vars) << ")";
      return os.str();
    case FormulaKind::StrongFair:
      os << "SF_" << tuple_to_string(vars, n.sub) << "(" << n.expr.to_string(vars) << ")";
      return os.str();
    case FormulaKind::Not:
      return "~(" + n.kids[0].to_string(vars) + ")";
    case FormulaKind::And: {
      for (std::size_t i = 0; i < n.kids.size(); ++i) {
        if (i != 0) os << " /\\ ";
        os << "(" << n.kids[i].to_string(vars) << ")";
      }
      return n.kids.empty() ? "TRUE" : os.str();
    }
    case FormulaKind::Or: {
      for (std::size_t i = 0; i < n.kids.size(); ++i) {
        if (i != 0) os << " \\/ ";
        os << "(" << n.kids[i].to_string(vars) << ")";
      }
      return n.kids.empty() ? "FALSE" : os.str();
    }
    case FormulaKind::Implies:
      return "(" + n.kids[0].to_string(vars) + ") => (" + n.kids[1].to_string(vars) + ")";
    case FormulaKind::Equiv:
      return "(" + n.kids[0].to_string(vars) + ") <=> (" + n.kids[1].to_string(vars) + ")";
    case FormulaKind::Spec:
      return n.spec_e->name;
    case FormulaKind::Closure:
      return "C(" + n.spec_e->name + ")";
    case FormulaKind::WhilePlus:
      return n.spec_e->name + " +> " + n.spec_m->name;
    case FormulaKind::ArrowWhile:
      return n.spec_e->name + " -> " + n.spec_m->name;
    case FormulaKind::Plus:
      return n.spec_e->name + "_{+" + tuple_to_string(vars, n.sub) + "}";
    case FormulaKind::Orthogonal:
      return n.spec_e->name + " _|_ " + n.spec_m->name;
  }
  return "?";
}

}  // namespace opentla
