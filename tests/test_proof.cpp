// Unit tests for proof obligations, reports, and the freeze_spec builder's
// error handling (opentla/proof, opentla/ag/freeze_spec).

#include <gtest/gtest.h>

#include <thread>

#include "opentla/ag/freeze_spec.hpp"
#include "opentla/proof/report.hpp"

namespace opentla {
namespace {

TEST(ProofReport, AllDischargedAndRendering) {
  ProofReport report;
  report.theorem = "A => B";
  Obligation ok;
  ok.id = "H1";
  ok.description = "first hypothesis";
  ok.method = "test";
  ok.discharged = true;
  ok.millis = 1.5;
  report.add(ok);
  EXPECT_TRUE(report.all_discharged());
  EXPECT_DOUBLE_EQ(report.total_millis(), 1.5);

  Obligation bad;
  bad.id = "H2";
  bad.description = "second hypothesis";
  bad.method = "test";
  bad.discharged = false;
  bad.detail = "counterexample: ...";
  report.add(bad);
  EXPECT_FALSE(report.all_discharged());

  const std::string text = report.to_string();
  EXPECT_NE(text.find("THEOREM A => B"), std::string::npos);
  EXPECT_NE(text.find("[ok] H1"), std::string::npos);
  EXPECT_NE(text.find("[FAILED] H2"), std::string::npos);
  EXPECT_NE(text.find("NOT PROVED"), std::string::npos);
  EXPECT_EQ(text.find("Q.E.D."), std::string::npos);
}

TEST(ProofReport, QedWhenEverythingDischarges) {
  ProofReport report;
  report.theorem = "T";
  Obligation ob;
  ob.id = "X";
  ob.discharged = true;
  report.add(ob);
  EXPECT_NE(report.to_string().find("Q.E.D."), std::string::npos);
}

TEST(ProofReport, H1BuildIsRenderedAndTotalled) {
  ProofReport report;
  report.theorem = "T";
  Obligation ob;
  ob.id = "H1[E]";
  ob.discharged = true;
  ob.millis = 2.0;
  report.add(ob);
  report.h1_build_millis = 3.5;
  EXPECT_DOUBLE_EQ(report.total_millis(), 5.5);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("[shared] H1 product build  (3.5 ms)"), std::string::npos) << text;
  EXPECT_NE(text.find("Q.E.D."), std::string::npos);
}

TEST(ProofReport, EveryLineOfADetailIsIndented) {
  ProofReport report;
  report.theorem = "T";
  Obligation ob;
  ob.id = "H2a";
  ob.description = "d";
  ob.method = "m";
  ob.detail = "product nodes: 3\nnot by Propositions 3/4: why\ncounterexample (1 states):\n"
              "  state 0: x = 0\n";
  report.add(ob);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("\n        product nodes: 3\n"
                      "        not by Propositions 3/4: why\n"
                      "        counterexample (1 states):\n"
                      "          state 0: x = 0\n"
                      "  NOT PROVED\n"),
            std::string::npos)
      << text;
  // The detail itself is left as it is.
  EXPECT_EQ(report.obligations[0].detail, ob.detail);
}

TEST(ObligationTimer, MeasuresElapsedTime) {
  Obligation ob;
  {
    ObligationTimer timer(ob);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ob.millis, 4.0);
}

TEST(FreezeSpec, RejectsUnsupportedInputs) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 1));
  VarId h = vars.declare("h", range_domain(0, 1));
  VarId b = vars.declare("b", bool_domain());

  CanonicalSpec with_fairness;
  with_fairness.name = "F";
  with_fairness.init = ex::top();
  with_fairness.next = ex::top();
  with_fairness.sub = {x};
  Fairness f;
  f.kind = Fairness::Kind::Weak;
  f.sub = {x};
  f.action = ex::top();
  with_fairness.fairness = {f};
  EXPECT_THROW(freeze_spec(with_fairness, {x}, b), std::runtime_error);

  CanonicalSpec with_hidden;
  with_hidden.name = "H";
  with_hidden.init = ex::top();
  with_hidden.next = ex::top();
  with_hidden.sub = {x, h};
  with_hidden.hidden = {h};
  EXPECT_THROW(freeze_spec(with_hidden, {x}, b), std::runtime_error);
}

TEST(FreezeSpec, ShapeOfTheExplicitForm) {
  VarTable vars;
  VarId x = vars.declare("x", range_domain(0, 1));
  VarId y = vars.declare("y", range_domain(0, 1));
  VarId b = vars.declare("b", bool_domain());
  CanonicalSpec e;
  e.name = "E";
  e.init = ex::eq(ex::var(x), ex::integer(0));
  e.next = ex::bottom();
  e.sub = {x};
  CanonicalSpec fz = freeze_spec(e, {x, y}, b);
  EXPECT_EQ(fz.name, "E_plus");
  EXPECT_EQ(fz.hidden, std::vector<VarId>{b});
  // Subscript covers E's subscript, the freeze tuple, and the flag.
  EXPECT_EQ(fz.sub.size(), 3u);
  EXPECT_TRUE(fz.fairness.empty());
}

}  // namespace
}  // namespace opentla
