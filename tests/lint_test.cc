/**
 * @file
 * Tests of the rmblint static analyzer (src/lint): the tokenizer
 * (comments, strings, preprocessor capture, suppressions), the
 * source-tree model, each house check firing on a minimal violation
 * and staying quiet on the conforming variant, and the JSON findings
 * document.  Everything runs on
 * in-memory sources through the same makeSource/runChecks path the
 * CLI uses on the real tree.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "lint/checks.hh"
#include "lint/lexer.hh"
#include "lint/source.hh"
#include "obs/json_value.hh"

namespace rmb {
namespace lint {
namespace {

std::vector<Finding>
run(const std::vector<SourceFile> &files, const std::string &check)
{
    return runChecks(files, {check});
}

// ---------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------

TEST(LintLexer, TokenizesIdentifiersAndSkipsComments)
{
    const LexedFile f = lex("int x = 1; // trailing\n"
                            "/* block */ y += x;\n");
    std::vector<std::string> texts;
    for (const Token &t : f.tokens)
        texts.push_back(t.text);
    const std::vector<std::string> want = {"int", "x", "=",  "1",
                                           ";",   "y", "+=", "x",
                                           ";"};
    EXPECT_EQ(texts, want);
    EXPECT_EQ(f.tokens[0].line, 1);
    EXPECT_EQ(f.tokens[5].line, 2);
}

TEST(LintLexer, StringContentsAreNotTokenized)
{
    const LexedFile f =
        lex("call(\"for (x : m)\", 'c', R\"(raw \"body\")\");\n");
    std::size_t strings = 0;
    for (const Token &t : f.tokens) {
        EXPECT_NE(t.text, "for");
        if (t.kind == TokKind::String)
            ++strings;
    }
    EXPECT_EQ(strings, 2u); // ordinary + raw
}

TEST(LintLexer, CapturesIncludesAndPragmaOnce)
{
    const LexedFile f = lex("#pragma once\n"
                            "#include \"rmb/engine.hh\"\n"
                            "#include <vector>\n");
    EXPECT_TRUE(f.hasPragmaOnce);
    ASSERT_EQ(f.includes.size(), 2u);
    EXPECT_EQ(f.includes[0].path, "rmb/engine.hh");
    EXPECT_FALSE(f.includes[0].angled);
    EXPECT_EQ(f.includes[1].path, "vector");
    EXPECT_TRUE(f.includes[1].angled);
}

TEST(LintLexer, DetectsIfndefGuard)
{
    const LexedFile f = lex("#ifndef RMB_X_HH\n"
                            "#define RMB_X_HH\n"
                            "int x;\n"
                            "#endif\n");
    EXPECT_EQ(f.ifndefGuardLine, 1);
    EXPECT_EQ(f.ifndefGuardName, "RMB_X_HH");
    EXPECT_FALSE(f.hasPragmaOnce);
    // An #ifndef after real tokens is conditional code, not a guard.
    const LexedFile g = lex("int x;\n#ifndef FOO\n#endif\n");
    EXPECT_EQ(g.ifndefGuardLine, 0);
}

TEST(LintLexer, SuppressionCoversOwnLineAndNextTokenLine)
{
    const LexedFile f =
        lex("// rmblint:allow(determinism-hazard): justified\n"
            "// continuation of the justification\n"
            "for (auto &x : m) {}\n");
    // The armed suppression lands on the next *token* line (3),
    // jumping the continuation comment.
    EXPECT_TRUE(suppressed(f, 1, "determinism-hazard"));
    EXPECT_TRUE(suppressed(f, 3, "determinism-hazard"));
    EXPECT_FALSE(suppressed(f, 3, "layering"));
    // A bare rmblint:allow suppresses every check.
    const LexedFile g = lex("int x; // rmblint:allow\n");
    EXPECT_TRUE(suppressed(g, 1, "header-guard"));
}

// ---------------------------------------------------------------
// Source model
// ---------------------------------------------------------------

TEST(LintSource, ModuleOfMapsPathsToModules)
{
    EXPECT_EQ(moduleOf("src/rmb/network.cc"), "rmb");
    EXPECT_EQ(moduleOf("src/rmb/hier/hier_network.cc"), "rmb");
    EXPECT_EQ(moduleOf("tools/rmbsim.cc"), "tools");
    EXPECT_EQ(moduleOf("bench/bench_util.hh"), "bench");
    EXPECT_EQ(moduleOf("tests/lint_test.cc"), "tests");
}

TEST(LintSource, MakeSourceFillsStemAndHeaderFlag)
{
    const SourceFile f = makeSource("src/rmb/network.hh", "int x;");
    EXPECT_EQ(f.module, "rmb");
    EXPECT_EQ(f.stem, "network");
    EXPECT_TRUE(f.isHeader);
    EXPECT_FALSE(makeSource("src/rmb/network.cc", "").isHeader);
}

// ---------------------------------------------------------------
// determinism-hazard
// ---------------------------------------------------------------

TEST(LintChecks, FlagsRangeForOverUnorderedMember)
{
    // The planted bug class: unordered state iterated into a report.
    const SourceFile f = makeSource(
        "src/report/bad.cc",
        "#include <unordered_map>\n"
        "struct S { std::unordered_map<int, long> perNode; };\n"
        "void emit(S &s) {\n"
        "    for (const auto &[k, v] : s.perNode) {}\n"
        "}\n");
    const auto findings = run({f}, "determinism-hazard");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].message.find("perNode"),
              std::string::npos);
}

TEST(LintChecks, UnorderedFactsCrossTheHeaderImplBoundary)
{
    const SourceFile hh = makeSource(
        "src/rmb/thing.hh",
        "#pragma once\n"
        "#include <unordered_set>\n"
        "struct T { std::unordered_set<int> live_; };\n");
    const SourceFile cc =
        makeSource("src/rmb/thing.cc",
                   "#include \"rmb/thing.hh\"\n"
                   "void T_scan(T &t) { for (int x : t.live_) {} }\n");
    // Same stem: the member declared in the header is hazardous in
    // the impl...
    EXPECT_EQ(run({hh, cc}, "determinism-hazard").size(), 1u);
    // ...but an unrelated file iterating its own vector 'live_' is
    // not contaminated.
    const SourceFile other =
        makeSource("src/rmb/other.cc",
                   "#include <vector>\n"
                   "void f(std::vector<int> &live_) {\n"
                   "    for (int x : live_) {}\n"
                   "}\n");
    EXPECT_TRUE(run({other}, "determinism-hazard").empty());
}

TEST(LintChecks, FlagsIteratorTraversalAndHostTime)
{
    const SourceFile f = makeSource(
        "src/rmb/t.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> m;\n"
        "auto it = m.begin();\n"
        "auto now = std::chrono::system_clock::now();\n"
        "int r = rand();\n");
    const auto findings = run({f}, "determinism-hazard");
    EXPECT_EQ(findings.size(), 3u);
}

TEST(LintChecks, ProfModuleMayReadHostTime)
{
    const SourceFile f = makeSource(
        "src/obs/prof.cc",
        "auto t = std::chrono::steady_clock::now();\n"
        "auto w = std::chrono::system_clock::now();\n");
    EXPECT_TRUE(run({f}, "determinism-hazard").empty());
}

TEST(LintChecks, FlagsPointerOrderedSortComparator)
{
    const SourceFile f = makeSource(
        "src/rmb/t.cc",
        "#include <algorithm>\n"
        "void f(std::vector<Node *> &v) {\n"
        "    std::sort(v.begin(), v.end(),\n"
        "              [](const Node *a, const Node *b) {\n"
        "                  return a < b;\n"
        "              });\n"
        "}\n");
    ASSERT_EQ(run({f}, "determinism-hazard").size(), 1u);
    // Sorting by a stable id through a value lambda is fine.
    const SourceFile ok = makeSource(
        "src/rmb/ok.cc",
        "void f(std::vector<int> &v) {\n"
        "    std::sort(v.begin(), v.end(),\n"
        "              [](int a, int b) { return a < b; });\n"
        "}\n");
    EXPECT_TRUE(run({ok}, "determinism-hazard").empty());
}

TEST(LintChecks, InlineAllowSuppressesTheFinding)
{
    const SourceFile f = makeSource(
        "src/rmb/t.cc",
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> m;\n"
        "// rmblint:allow(determinism-hazard): order-insensitive\n"
        "// fold, so visit order cannot escape.\n"
        "void f() { for (auto &kv : m) {} }\n");
    EXPECT_TRUE(run({f}, "determinism-hazard").empty());
}

// ---------------------------------------------------------------
// layering
// ---------------------------------------------------------------

TEST(LintChecks, FlagsModuleBackEdge)
{
    const SourceFile f =
        makeSource("src/sim/bad.cc",
                   "#include \"rmb/engine.hh\"\n");
    const auto findings = run({f}, "layering");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("'sim'"), std::string::npos);
    // The legal direction is quiet.
    const SourceFile ok =
        makeSource("src/rmb/ok.cc",
                   "#include \"sim/simulator.hh\"\n"
                   "#include <vector>\n");
    EXPECT_TRUE(run({ok}, "layering").empty());
}

TEST(LintChecks, ReportsIncludeCycleWithChain)
{
    const SourceFile a = makeSource("src/common/a.hh",
                                    "#pragma once\n"
                                    "#include \"common/b.hh\"\n");
    const SourceFile b = makeSource("src/common/b.hh",
                                    "#pragma once\n"
                                    "#include \"common/a.hh\"\n");
    const auto findings = run({a, b}, "layering");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("include cycle"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("src/common/a.hh"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("src/common/b.hh"),
              std::string::npos);
}

// ---------------------------------------------------------------
// env-hook
// ---------------------------------------------------------------

TEST(LintChecks, FlagsRawGetenvAndUnregisteredHook)
{
    const SourceFile f = makeSource(
        "src/rmb/t.cc",
        "#include <cstdlib>\n"
        "bool a() { return std::getenv(\"X\") != nullptr; }\n"
        "bool b() { return common::mutationHook(\"RMB_NOPE\"); }\n");
    const auto findings = run({f}, "env-hook");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("getenv"), std::string::npos);
    EXPECT_NE(findings[1].message.find("RMB_NOPE"),
              std::string::npos);
}

TEST(LintChecks, RegisteredHookAndEnvImplementationAreQuiet)
{
    const SourceFile hook = makeSource(
        "tests/t.cc",
        "bool b() {\n"
        "    return common::mutationHook(\"RMB_KERNEL_MUTATE\");\n"
        "}\n");
    EXPECT_TRUE(run({hook}, "env-hook").empty());
    const SourceFile impl =
        makeSource("src/common/env.cc",
                   "#include <cstdlib>\n"
                   "const char *v = std::getenv(\"RMB_X\");\n");
    EXPECT_TRUE(run({impl}, "env-hook").empty());
}

TEST(LintChecks, EnvFlagIsForBenchAndToolsOnly)
{
    const SourceFile lib = makeSource(
        "src/rmb/t.cc",
        "bool f() { return common::envFlag(\"RMB_BENCH_FAST\"); }\n");
    EXPECT_EQ(run({lib}, "env-hook").size(), 1u);
    const SourceFile bench = makeSource(
        "bench/b.cc",
        "bool f() { return common::envFlag(\"RMB_BENCH_FAST\"); }\n");
    EXPECT_TRUE(run({bench}, "env-hook").empty());
    const SourceFile off = makeSource(
        "bench/c.cc",
        "bool f() { return common::envFlag(\"not_rmb\"); }\n");
    EXPECT_EQ(run({off}, "env-hook").size(), 1u);
}

// ---------------------------------------------------------------
// metric-name
// ---------------------------------------------------------------

TEST(LintChecks, FlagsOffConventionAndDuplicateMetrics)
{
    const SourceFile f = makeSource(
        "src/rmb/t.cc",
        "void f(Registry &r) {\n"
        "    ++r.counter(\"BadName\");\n"
        "    ++r.counter(\"rmb.good.count\");\n"
        "}\n"
        "void g(Registry &r) { ++r.counter(\"rmb.good.count\"); }\n");
    const auto findings = run({f}, "metric-name");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_NE(findings[0].message.find("BadName"),
              std::string::npos);
    EXPECT_NE(findings[1].message.find("more than one call site"),
              std::string::npos);
}

TEST(LintChecks, TestCodeMayRegisterArbitraryMetricNames)
{
    const SourceFile f = makeSource(
        "tests/t.cc", "void f(Registry &r) { ++r.counter(\"alpha\"); }\n");
    EXPECT_TRUE(run({f}, "metric-name").empty());
}

TEST(LintChecks, SeriesNamesMustBeLowercaseDottedWords)
{
    const SourceFile bad = makeSource(
        "tools/t.cc",
        "void f(Timeline &t) { t.addSeries(\"Bad Series\"); }\n");
    EXPECT_EQ(run({bad}, "metric-name").size(), 1u);
    const SourceFile ok = makeSource(
        "tools/u.cc",
        "void f(Timeline &t) {\n"
        "    t.addSeries(\"inflight\");\n"
        "    t.addCounterSeries(\"shard3.delivered\", c);\n"
        "}\n");
    EXPECT_TRUE(run({ok}, "metric-name").empty());
}

// ---------------------------------------------------------------
// header-guard
// ---------------------------------------------------------------

TEST(LintChecks, FlagsIfndefGuardAndMissingPragmaOnce)
{
    const SourceFile old = makeSource("src/rmb/g.hh",
                                      "#ifndef RMB_G_HH\n"
                                      "#define RMB_G_HH\n"
                                      "#endif\n");
    EXPECT_EQ(run({old}, "header-guard").size(), 2u);
    const SourceFile ok =
        makeSource("src/rmb/ok.hh", "#pragma once\nint x;\n");
    EXPECT_TRUE(run({ok}, "header-guard").empty());
    // Non-headers are exempt.
    const SourceFile cc = makeSource("src/rmb/x.cc", "int x;\n");
    EXPECT_TRUE(run({cc}, "header-guard").empty());
}

// ---------------------------------------------------------------
// JSON
// ---------------------------------------------------------------

TEST(LintJson, FindingsSerialiseAsOneDocument)
{
    const SourceFile f =
        makeSource("src/sim/bad.cc",
                   "#include \"rmb/engine.hh\"\n");
    const auto findings = run({f}, "layering");
    ASSERT_EQ(findings.size(), 1u);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::jsonParse(findingsToJson(findings), doc, error))
        << error;
    const obs::JsonValue *arr = doc.find("findings");
    ASSERT_TRUE(arr != nullptr && arr->isArray());
    ASSERT_EQ(arr->array().size(), 1u);
    const obs::JsonValue &e = arr->array()[0];
    EXPECT_EQ(e.find("check")->string(), "layering");
    EXPECT_EQ(e.find("file")->string(), "src/sim/bad.cc");
    EXPECT_EQ(e.find("message")->string(), findings[0].message);
}

TEST(LintRegistry, EveryCheckHasADescription)
{
    const auto names = checkNames();
    EXPECT_EQ(names.size(), 5u);
    for (const std::string &name : names)
        EXPECT_FALSE(checkDescription(name).empty()) << name;
    EXPECT_TRUE(checkDescription("no-such-check").empty());
}

} // namespace
} // namespace lint
} // namespace rmb
