// Tests for the static spec analyzer (opentla/lint): each OTL diagnostic
// fires on a deliberately malformed module with the expected code,
// severity, and source line, and the human/JSON renderers carry all of it.

#include <gtest/gtest.h>

#include <algorithm>

#include "opentla/analysis/footprint.hpp"
#include "opentla/lint/checks.hpp"
#include "opentla/lint/diagnostic.hpp"
#include "opentla/parser/parser.hpp"

namespace opentla {
namespace {

using lint::Diagnostic;
using lint::Severity;

std::vector<Diagnostic> lint_src(const std::string& src, lint::LintOptions opts = {}) {
  return lint::lint_module(parse_module(src), opts);
}

const Diagnostic* find_code(const std::vector<Diagnostic>& diags, const std::string& code) {
  auto it = std::find_if(diags.begin(), diags.end(),
                         [&](const Diagnostic& d) { return d.code == code; });
  return it == diags.end() ? nullptr : &*it;
}

TEST(LintTest, CleanModuleHasNoFindings) {
  const std::string src =
      "MODULE Clean\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "ACTION Incr == x < 3 /\\ x' = x + 1\n"
      "NEXT Incr\n"
      "FAIRNESS WF Incr\n";
  EXPECT_TRUE(lint_src(src).empty());
}

TEST(LintTest, NestedDisjunctionIsJudgedAsWritten) {
  // Step is one live disjunct; two of its nested branches can never fire.
  // Lint keeps the source split, so the dead branches are not reported as
  // a dead action (OTL008) or an unsatisfiable guard (OTL009).
  const std::string src =
      "MODULE Nested\n"
      "VARIABLES x \\in 0..3, y \\in 0..3\n"
      "INIT x = 0 /\\ y = 0\n"
      "ACTION Step == x < 3 /\\ ((x' = x + 1 /\\ y' = y) \\/ (x > 5 /\\ x' = 0 /\\ y' = y)"
      " \\/ (1 > 2 /\\ x' = 0 /\\ y' = y))\n"
      "NEXT Step\n";
  const std::vector<Diagnostic> diags = lint_src(src);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags.front().code + " " +
                                                          diags.front().message);
}

TEST(LintTest, OTL001UnusedVariable) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "VARIABLE dead \\in 0..1\n"   // line 3, never mentioned again
      "INIT x = 0\n"
      "NEXT x' = x\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL001");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->context, "dead");
  EXPECT_EQ(d->loc.line, 3u);
}

TEST(LintTest, OTL002PrimedVariableInInit) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "\n"
      "INIT x' = 0\n"               // line 4
      "NEXT x' = x\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->context, "x");
  EXPECT_EQ(d->loc.line, 4u);
  EXPECT_TRUE(lint::has_errors(diags));
}

TEST(LintTest, OTL003FrameConditionGap) {
  const std::string src =
      "MODULE M\n"
      "VARIABLES x \\in 0..3, y \\in 0..3\n"
      "INIT x = 0 /\\ y = 0\n"
      "ACTION Step == y > 0 /\\ x' = x + 1\n"   // line 4: reads y, y' free
      "NEXT Step\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL003");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->context, "y");
  EXPECT_EQ(d->loc.line, 4u);
  EXPECT_NE(d->message.find("Step"), std::string::npos);
}

TEST(LintTest, OTL003SilentOnDeliberateOpenness) {
  // A variable the disjunct does not mention at all is deliberately
  // unconstrained (open-system nondeterminism), not a frame gap.
  const std::string src =
      "MODULE M\n"
      "VARIABLES x \\in 0..3, input \\in 0..3\n"
      "INIT x = 0 /\\ input = 0\n"
      "NEXT x' = x + 1\n";
  EXPECT_EQ(find_code(lint_src(src), "OTL003"), nullptr);
}

TEST(LintTest, OTL004OverlappingDisjointTuples) {
  const std::string src =
      "MODULE M\n"
      "VARIABLES a \\in 0..1, b \\in 0..1, c \\in 0..1\n"
      "\n"
      "DISJOINT <<a, b>>, <<b, c>>\n";   // line 4: b in both tuples
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->context, "b");
  EXPECT_EQ(d->loc.line, 4u);
}

TEST(LintTest, OTL005FairnessNotSubactionOfNext) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "ACTION Incr == x < 3 /\\ x' = x + 1\n"
      "NEXT Incr\n"
      "FAIRNESS WF x' = x + 2\n";   // line 6: not a disjunct of NEXT
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL005");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->loc.line, 6u);
}

TEST(LintTest, OTL006OverlappingWrittenFootprints) {
  auto universe = std::make_shared<VarTable>();
  ParsedModule a = parse_module(
      "MODULE A\n"
      "VARIABLES x \\in 0..1, y \\in 0..1\n"
      "INIT x = 0\n"
      "NEXT x' = 1 - x /\\ y' = y\n",   // frames y: writes only x
      universe);
  ParsedModule b = parse_module(
      "MODULE B\n"
      "VARIABLES x \\in 0..1, y \\in 0..1\n"
      "INIT y = 0\n"
      "NEXT x' = 0 /\\ y' = 1 - y\n",   // writes x AND y: overlaps A on x
      universe);
  std::vector<Diagnostic> diags = lint::lint_modules({a, b});
  const Diagnostic* d = find_code(diags, "OTL006");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->context, "x");

  // Frame conditions (v' = v, UNCHANGED) are not writes: disjoint owners
  // produce no finding.
  ParsedModule c = parse_module(
      "MODULE C\n"
      "VARIABLES x \\in 0..1, y \\in 0..1\n"
      "INIT y = 0\n"
      "NEXT y' = 1 - y /\\ UNCHANGED x\n",
      universe);
  EXPECT_EQ(find_code(lint::lint_modules({a, c}), "OTL006"), nullptr);
}

TEST(LintTest, OTL007StateSpaceEstimate) {
  const std::string src =
      "MODULE Big\n"                                   // line 1
      "VARIABLES a \\in 0..99, b \\in 0..99, c \\in 0..99\n"
      "INIT a = 0 /\\ b = 0 /\\ c = 0\n"
      "NEXT a' = a /\\ b' = b /\\ c' = c\n";
  lint::LintOptions tight;
  tight.state_bound = 1000;   // 100^3 = 1e6 states >> 1000
  std::vector<Diagnostic> diags = lint_src(src, tight);
  const Diagnostic* d = find_code(diags, "OTL007");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->loc.line, 1u);
  // The default bound admits the same module.
  EXPECT_EQ(find_code(lint_src(src), "OTL007"), nullptr);
}

TEST(LintTest, OTL008DeadDisjunctAndConstantGuard) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "ACTION Dead == 2 < 1 /\\ x' = 0\n"        // line 4: guard folds FALSE
      "ACTION Padded == 1 < 2 /\\ x' = x + 1\n"  // line 5: guard folds TRUE
      "NEXT Dead \\/ Padded\n";
  std::vector<Diagnostic> diags = lint_src(src);
  std::vector<const Diagnostic*> found;
  for (const Diagnostic& d : diags) {
    if (d.code == "OTL008") found.push_back(&d);
  }
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0]->context, "Dead");
  EXPECT_EQ(found[0]->loc.line, 4u);
  EXPECT_NE(found[0]->message.find("dead"), std::string::npos);
  EXPECT_EQ(found[1]->context, "Padded");
  EXPECT_EQ(found[1]->loc.line, 5u);
  EXPECT_NE(found[1]->message.find("TRUE"), std::string::npos);
}

TEST(LintTest, OTL009GuardUnsatisfiableOverDomains) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "ACTION Ghost == x > 5 /\\ x' = 0\n"       // line 4: x > 5 is empty over 0..3
      "ACTION Step == x < 3 /\\ x' = x + 1\n"
      "NEXT Ghost \\/ Step\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL009");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->context, "Ghost");
  EXPECT_EQ(d->loc.line, 4u);
  // The guard is not a constant fold, so OTL008 stays silent...
  EXPECT_EQ(find_code(diags, "OTL008"), nullptr);
  // ...and a satisfiable multi-guard window fires nothing.
  const std::string sat =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "NEXT x >= 1 /\\ x <= 2 /\\ x' = 0\n";
  EXPECT_EQ(find_code(lint_src(sat), "OTL009"), nullptr);
}

TEST(LintTest, OTL009LeavesConstantFalseGuardsToOTL008) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "NEXT (2 < 1 /\\ x' = 0) \\/ (x' = x + 1)\n";
  std::vector<Diagnostic> diags = lint_src(src);
  EXPECT_NE(find_code(diags, "OTL008"), nullptr);
  EXPECT_EQ(find_code(diags, "OTL009"), nullptr);
}

TEST(LintTest, OTL010AssignmentOutsideDomain) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "INIT x = 0\n"
      "ACTION Bump == x = 3 /\\ x' = x + 2\n"     // line 4: [5,5] outside 0..3
      "ACTION Step == x < 3 /\\ x' = x + 1\n"
      "NEXT Bump \\/ Step\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->context, "x");
  EXPECT_EQ(d->loc.line, 4u);
  EXPECT_TRUE(lint::has_errors(diags));
}

TEST(LintTest, OTL010ConstantCatchesDomainHoles) {
  // The interval hull of {0, 2} is [0, 2], but a constant right-hand side
  // checks exact membership, so the hole at 1 is caught.
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in {0, 2}\n"
      "INIT x = 0\n"
      "NEXT x' = 1\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->context, "x");
}

TEST(LintTest, OTL011SubsumedDisjunct) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..5\n"
      "INIT x = 0\n"
      "ACTION Reset == x > 2 /\\ x' = 0\n"
      "ACTION Narrow == x > 3 /\\ x' = 0\n"       // line 5: x > 3 implies x > 2
      "NEXT Reset \\/ Narrow\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const Diagnostic* d = find_code(diags, "OTL011");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->context, "Narrow");
  EXPECT_EQ(d->loc.line, 5u);
  EXPECT_NE(d->message.find("Reset"), std::string::npos);
  // Different effects are never subsumption, however the guards relate.
  const std::string distinct =
      "MODULE M\n"
      "VARIABLE x \\in 0..5\n"
      "INIT x = 0\n"
      "NEXT (x > 2 /\\ x' = 0) \\/ (x > 3 /\\ x' = 1)\n";
  EXPECT_EQ(find_code(lint_src(distinct), "OTL011"), nullptr);
}

TEST(LintTest, OTL012ActionWritesAcrossDisjointTuples) {
  auto universe = std::make_shared<VarTable>();
  ParsedModule comp = parse_module(
      "MODULE C\n"
      "VARIABLES a \\in 0..1, b \\in 0..1\n"
      "INIT a = 0 /\\ b = 0\n"
      "ACTION Both == a' = 1 - a /\\ b' = 1 - b\n"
      "NEXT Both\n"
      "SUBSCRIPT <<a, b>>\n",
      universe);
  ParsedModule disj = parse_module(
      "MODULE D\n"
      "VARIABLES a \\in 0..1, b \\in 0..1\n"
      "DISJOINT <<a>>, <<b>>\n",
      universe);
  std::vector<Diagnostic> diags = lint::lint_modules({comp, disj});
  const Diagnostic* d = find_code(diags, "OTL012");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->context, "Both");
  EXPECT_EQ(d->module_name, "C");
  EXPECT_NE(d->message.find("'D'"), std::string::npos);

  // A component confined to one tuple (with the other framed) is fine.
  ParsedModule onlya = parse_module(
      "MODULE OnlyA\n"
      "VARIABLES a \\in 0..1, b \\in 0..1\n"
      "INIT a = 0\n"
      "NEXT a' = 1 - a /\\ UNCHANGED b\n"
      "SUBSCRIPT <<a, b>>\n",
      universe);
  EXPECT_EQ(find_code(lint::lint_modules({onlya, disj}), "OTL012"), nullptr);
}

TEST(LintTest, RegistryCoversDocumentedCodes) {
  std::vector<std::string> codes;
  for (const lint::LintCheck& c : lint::check_registry()) codes.push_back(c.code);
  // OTL006 and OTL012 are pairwise (lint_modules), so they are not in the
  // per-module registry.
  EXPECT_EQ(codes, (std::vector<std::string>{"OTL001", "OTL002", "OTL003", "OTL004",
                                             "OTL005", "OTL007", "OTL008", "OTL009",
                                             "OTL010", "OTL011"}));
}

TEST(LintTest, HumanRenderingCarriesCodeSeverityAndLine) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "\n"
      "INIT x' = 0\n"
      "NEXT x' = x\n";
  std::vector<Diagnostic> diags = lint_src(src);
  ASSERT_NE(find_code(diags, "OTL002"), nullptr);
  const std::string human = lint::render_human(diags);
  EXPECT_NE(human.find("[OTL002]"), std::string::npos);
  EXPECT_NE(human.find("error:"), std::string::npos);
  EXPECT_NE(human.find(":4:"), std::string::npos);
  EXPECT_NE(human.find("1 finding"), std::string::npos);
}

TEST(LintTest, JsonRenderingCarriesCodeSeverityAndLine) {
  const std::string src =
      "MODULE M\n"
      "VARIABLE x \\in 0..3\n"
      "\n"
      "INIT x' = 0\n"
      "NEXT x' = x\n";
  std::vector<Diagnostic> diags = lint_src(src);
  const std::string json = lint::render_json(diags);
  EXPECT_NE(json.find("\"code\": \"OTL002\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"module\": \"M\""), std::string::npos);
  // Empty input renders as an empty (still valid) array.
  EXPECT_EQ(lint::render_json({}), "[]\n");
}

TEST(LintTest, JsonEscapesSpecialCharacters) {
  std::vector<Diagnostic> diags(1);
  diags[0].code = "OTL999";
  diags[0].message = "quote \" backslash \\ newline \n tab \t";
  const std::string json = lint::render_json(diags);
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n tab \\t"),
            std::string::npos);
}

TEST(LintTest, JsonEscapesNamesAndNonAscii) {
  // Module/context fields with quotes, backslashes, control bytes, and
  // non-ASCII text must still render as valid JSON (UTF-8 passes through;
  // everything below 0x20 is \u-escaped).
  std::vector<Diagnostic> diags(1);
  diags[0].code = "OTL999";
  diags[0].module_name = "Weird\"Module\\Name";
  diags[0].context = "ctx\x01";
  diags[0].message = "caf\xc3\xa9 \xe2\x86\x92 d\xc3\xa9j\xc3\xa0";
  const std::string json = lint::render_json(diags);
  EXPECT_NE(json.find("Weird\\\"Module\\\\Name"), std::string::npos);
  EXPECT_NE(json.find("ctx\\u0001"), std::string::npos);
  EXPECT_NE(json.find("caf\xc3\xa9 \xe2\x86\x92 d\xc3\xa9j\xc3\xa0"), std::string::npos);
  // No raw quote survives inside a string value: strip the JSON structure
  // quotes and check balance by parsing key boundaries.
  EXPECT_EQ(json.find("Weird\"Module"), std::string::npos);
}

TEST(LintTest, WrittenFootprintIgnoresFrames) {
  ParsedModule m = parse_module(
      "MODULE M\n"
      "VARIABLES x \\in 0..1, y \\in 0..1, z \\in 0..1\n"
      "INIT x = 0\n"
      "NEXT x' = 1 - x /\\ y' = y /\\ UNCHANGED z\n");
  std::vector<VarId> w = analysis::write_footprint(m.spec.next);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(m.vars->name(w[0]), "x");
}

TEST(LintTest, ParserRecordsLocations) {
  ParsedModule m = parse_module(
      "MODULE Locs\n"
      "VARIABLE x \\in 0..3\n"
      "DEFINE Incr == x' = x + 1\n"
      "INIT x = 0\n"
      "NEXT Incr\n"
      "FAIRNESS WF Incr\n");
  EXPECT_EQ(m.locs.module_kw.line, 1u);
  ASSERT_TRUE(m.locs.variables.contains(m.vars->require("x")));
  EXPECT_EQ(m.locs.variables.at(m.vars->require("x")).line, 2u);
  ASSERT_TRUE(m.locs.definitions.contains("Incr"));
  EXPECT_EQ(m.locs.definitions.at("Incr").line, 3u);
  EXPECT_EQ(m.locs.init.line, 4u);
  EXPECT_EQ(m.locs.next.line, 5u);
  ASSERT_EQ(m.locs.fairness.size(), 1u);
  EXPECT_EQ(m.locs.fairness[0].line, 6u);
  EXPECT_EQ(m.declared, (std::vector<VarId>{m.vars->require("x")}));
}

}  // namespace
}  // namespace opentla
