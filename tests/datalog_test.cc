// Unit tests for src/datalog: lexer, parser, and program analysis (PCG,
// SCCs, recursion classification, safety, aggregates, type inference).

#include <gtest/gtest.h>

#include "datalog/analysis.h"
#include "datalog/lexer.h"
#include "datalog/parser.h"
#include "storage/catalog.h"

namespace dcdatalog {
namespace {

// --- Lexer ---------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("tc(X, Y) :- arc(X, Y).");
  ASSERT_TRUE(toks.ok());
  const auto& t = toks.value();
  ASSERT_EQ(t.size(), 15u);  // Including EOF.
  EXPECT_EQ(t[0].kind, TokenKind::kIdent);
  EXPECT_EQ(t[0].text, "tc");
  EXPECT_EQ(t[2].kind, TokenKind::kVariable);
  EXPECT_EQ(t[6].kind, TokenKind::kImplies);
  EXPECT_EQ(t[13].kind, TokenKind::kDot);
  EXPECT_EQ(t[14].kind, TokenKind::kEof);
}

TEST(LexerTest, NumbersAndRuleDot) {
  // "3." at rule end must lex as INT then DOT, not a float.
  auto toks = Tokenize("p(3).");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[2].kind, TokenKind::kInt);
  EXPECT_EQ(toks.value()[2].int_value, 3);
  EXPECT_EQ(toks.value()[4].kind, TokenKind::kDot);

  auto f = Tokenize("p(3.5, 1e3, 2.5e-2).");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()[2].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(f.value()[2].float_value, 3.5);
  EXPECT_EQ(f.value()[4].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(f.value()[4].float_value, 1000.0);
  EXPECT_DOUBLE_EQ(f.value()[6].float_value, 0.025);
}

TEST(LexerTest, CommentsAndStrings) {
  auto toks = Tokenize(
      "% line comment\n// another\n/* block\ncomment */ p(\"hi\").");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[0].text, "p");
  EXPECT_EQ(toks.value()[2].kind, TokenKind::kString);
  EXPECT_EQ(toks.value()[2].text, "hi");
}

TEST(LexerTest, ComparisonOperators) {
  auto toks = Tokenize("X != Y, A <= B, C >= D, E < F, G > H");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[1].kind, TokenKind::kNe);
  EXPECT_EQ(toks.value()[5].kind, TokenKind::kLe);
  EXPECT_EQ(toks.value()[9].kind, TokenKind::kGe);
}

TEST(LexerTest, ErrorsAreReported) {
  EXPECT_FALSE(Tokenize("p(X) :- q(X) @").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("/* unterminated").ok());
  EXPECT_FALSE(Tokenize("p :_ q").ok());
}

TEST(LexerTest, WildcardVsVariable) {
  auto toks = Tokenize("p(_, _Foo, X)");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ(toks.value()[2].kind, TokenKind::kWildcard);
  EXPECT_EQ(toks.value()[4].kind, TokenKind::kVariable);  // _Foo
}

// --- Parser --------------------------------------------------------------

TEST(ParserTest, SimpleRuleStructure) {
  StringDict dict;
  auto p = ParseProgram("tc(X, Y) :- tc(X, Z), arc(Z, Y).", &dict);
  ASSERT_TRUE(p.ok());
  ASSERT_EQ(p.value().rules.size(), 1u);
  const Rule& r = p.value().rules[0];
  EXPECT_EQ(r.head.predicate, "tc");
  EXPECT_EQ(r.body.size(), 2u);
  EXPECT_EQ(r.NumAtoms(), 2u);
}

TEST(ParserTest, FactAndDirectives) {
  StringDict dict;
  auto p = ParseProgram(".input arc\n.output tc\narc(1, 2).", &dict);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().inputs, std::vector<std::string>{"arc"});
  EXPECT_EQ(p.value().outputs, std::vector<std::string>{"tc"});
  EXPECT_TRUE(p.value().rules[0].body.empty());
}

TEST(ParserTest, AggregateHeads) {
  StringDict dict;
  auto p = ParseProgram(
      "sp(T, min<C>) :- sp(F, C1), warc(F, T, C2), C = C1 + C2.\n"
      "d(P, max<D>) :- b(P, D).\n"
      "cnt(Y, count<X>) :- a(X), f(Y, X).\n"
      "rank(X, sum<(Y, K)>) :- rank(Y, C), m(Y, X, D), K = 0.85 * (C / D).",
      &dict);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const auto& rules = p.value().rules;
  EXPECT_EQ(rules[0].head.args[1].agg, AggFunc::kMin);
  EXPECT_EQ(rules[1].head.args[1].agg, AggFunc::kMax);
  EXPECT_EQ(rules[2].head.args[1].agg, AggFunc::kCount);
  EXPECT_EQ(rules[3].head.args[1].agg, AggFunc::kSum);
  EXPECT_EQ(rules[3].head.args[1].terms.size(), 2u);
  EXPECT_TRUE(rules[0].head.HasAggregate());
}

TEST(ParserTest, ConstraintsAndArithmetic) {
  StringDict dict;
  auto p = ParseProgram("q(X, C) :- p(X, A, B), X != A, C = (A + B) * 2.",
                        &dict);
  ASSERT_TRUE(p.ok());
  const Rule& r = p.value().rules[0];
  ASSERT_EQ(r.body.size(), 3u);
  EXPECT_EQ(r.body[1].kind, BodyLiteral::Kind::kConstraint);
  EXPECT_EQ(r.body[1].constraint.op, CmpOp::kNe);
  EXPECT_EQ(r.body[2].constraint.ToString(), "C = ((A + B) * 2)");
}

TEST(ParserTest, NegativeConstantsAndStrings) {
  StringDict dict;
  auto p = ParseProgram("p(-3, \"alice\", -2.5).", &dict);
  ASSERT_TRUE(p.ok());
  const auto& args = p.value().rules[0].head.args;
  EXPECT_EQ(IntFromWord(args[0].term().constant.word), -3);
  EXPECT_EQ(args[1].term().constant.type, ColumnType::kString);
  EXPECT_EQ(dict.Get(args[1].term().constant.word), "alice");
  EXPECT_DOUBLE_EQ(DoubleFromWord(args[2].term().constant.word), -2.5);
}

TEST(ParserTest, Errors) {
  StringDict dict;
  EXPECT_FALSE(ParseProgram("p(X) :- q(X)", &dict).ok());   // Missing dot.
  EXPECT_FALSE(ParseProgram("p(X) q(X).", &dict).ok());     // Missing :-.
  EXPECT_FALSE(ParseProgram("p(min<A, B>) :- q(A, B).", &dict).ok());
  EXPECT_FALSE(ParseProgram("p(sum<A>) :- q(A).", &dict).ok());
  EXPECT_FALSE(ParseProgram(".frobnicate x", &dict).ok());
  EXPECT_FALSE(ParseProgram("p() :- q(X).", &dict).ok());
}

// Rule whose constraint `C = <expr>` sits on line 2.
std::string RuleWithExpr(const std::string& expr) {
  return "p(X, C) :-\n  q(X), C = " + expr + ".\n";
}

void ExpectDepthError(const std::string& expr) {
  StringDict dict;
  auto p = ParseProgram(RuleWithExpr(expr), &dict);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kParseError);
  EXPECT_NE(p.status().message().find("nested deeper"), std::string::npos)
      << p.status().ToString();
  EXPECT_NE(p.status().message().find("line 2"), std::string::npos)
      << p.status().ToString();
}

TEST(ParserTest, DeepParenthesesRejected) {
  ExpectDepthError(std::string(10000, '(') + "1" + std::string(10000, ')'));
}

TEST(ParserTest, LongOperatorChainRejected) {
  // The parser folds `+` iteratively, but the left-deep tree it builds is
  // as deep as the chain is long.
  std::string chain = "1";
  for (int i = 1; i < 20000; ++i) chain += "+1";
  ExpectDepthError(chain);
  std::string products = "2";
  for (int i = 1; i < 20000; ++i) products += "*2";
  ExpectDepthError(products);
}

TEST(ParserTest, ManyUnaryMinusesRejected) {
  ExpectDepthError(std::string(100000, '-') + "1");
}

TEST(ParserTest, ThousandDeepExpressionsParse) {
  StringDict dict;
  auto parens = ParseProgram(
      RuleWithExpr(std::string(1000, '(') + "1" + std::string(1000, ')')),
      &dict);
  EXPECT_TRUE(parens.ok()) << parens.status().ToString();
  std::string chain = "X";
  for (int i = 1; i < 1000; ++i) chain += "+1";
  auto sum = ParseProgram(RuleWithExpr(chain), &dict);
  EXPECT_TRUE(sum.ok()) << sum.status().ToString();
  auto minus = ParseProgram(RuleWithExpr(std::string(1000, '-') + "1"), &dict);
  EXPECT_TRUE(minus.ok()) << minus.status().ToString();
}

TEST(ParserTest, NegatedAtoms) {
  StringDict dict;
  auto p = ParseProgram("q(X) :- node(X), !visited(X, _).", &dict);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const Rule& r = p.value().rules[0];
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_FALSE(r.body[0].negated);
  EXPECT_TRUE(r.body[1].negated);
  EXPECT_EQ(r.body[1].ToString(), "!visited(X, _)");
  // '!' must be followed by an atom.
  EXPECT_FALSE(ParseProgram("q(X) :- node(X), !X.", &dict).ok());
}

TEST(ParserTest, ProgramToStringRoundTrips) {
  StringDict dict;
  const char* src = "tc(X, Y) :- tc(X, Z), arc(Z, Y).";
  auto p1 = ParseProgram(src, &dict);
  ASSERT_TRUE(p1.ok());
  auto p2 = ParseProgram(p1.value().ToString(), &dict);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().ToString(), p2.value().ToString());
}

// --- Analysis ------------------------------------------------------------

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() {
    catalog_.Put(Relation("arc", Schema::Ints(2)));
    catalog_.Put(Relation("warc", Schema::Ints(3)));
    catalog_.Put(Relation("organizer", Schema::Ints(1)));
    catalog_.Put(Relation("friend", Schema::Ints(2)));
  }

  Result<ProgramAnalysis> Analyze(const std::string& src) {
    auto p = ParseProgram(src, &dict_);
    if (!p.ok()) return p.status();
    program_ = std::move(p).value();
    return ProgramAnalysis::Analyze(program_, catalog_);
  }

  Catalog catalog_;
  StringDict dict_;
  Program program_;
};

TEST_F(AnalysisTest, LinearRecursionClassified) {
  auto a = Analyze(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const auto& tc = a.value().predicate("tc");
  EXPECT_TRUE(tc.recursive);
  EXPECT_FALSE(a.value().predicate("arc").recursive);
  const SccInfo& scc = a.value().sccs()[tc.scc_id];
  EXPECT_TRUE(scc.recursive);
  EXPECT_FALSE(scc.mutual);
  EXPECT_FALSE(scc.nonlinear);
  // Rule 0 is base, rule 1 recursive with one recursive goal.
  EXPECT_TRUE(a.value().rule_infos()[0].is_base);
  EXPECT_EQ(a.value().rule_infos()[1].recursive_atoms.size(), 1u);
}

TEST_F(AnalysisTest, NonLinearRecursionClassified) {
  auto a = Analyze(
      "path(A, B, min<D>) :- warc(A, B, D).\n"
      "path(A, B, min<D>) :- path(A, C, D1), path(C, B, D2), D = D1 + D2.");
  ASSERT_TRUE(a.ok());
  const auto& info = a.value().predicate("path");
  EXPECT_TRUE(a.value().sccs()[info.scc_id].nonlinear);
}

TEST_F(AnalysisTest, MutualRecursionClassified) {
  auto a = Analyze(
      "attend(X) :- organizer(X).\n"
      "cnt(Y, count<X>) :- attend(X), friend(Y, X).\n"
      "attend(X) :- cnt(X, N), N >= 3.");
  ASSERT_TRUE(a.ok());
  const auto& attend = a.value().predicate("attend");
  const auto& cnt = a.value().predicate("cnt");
  EXPECT_EQ(attend.scc_id, cnt.scc_id);
  EXPECT_TRUE(a.value().sccs()[attend.scc_id].mutual);
}

TEST_F(AnalysisTest, SccTopologicalOrder) {
  auto a = Analyze(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "reach2(X) :- tc(0, X).");
  ASSERT_TRUE(a.ok());
  // tc's SCC must come before reach2's.
  EXPECT_LT(a.value().predicate("tc").scc_id,
            a.value().predicate("reach2").scc_id);
}

TEST_F(AnalysisTest, ArityMismatchRejected) {
  auto a = Analyze("p(X) :- arc(X).");
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalysisTest, MissingBaseRelationRejected) {
  auto a = Analyze("p(X) :- nosuch(X).");
  EXPECT_EQ(a.status().code(), StatusCode::kNotFound);
}

TEST_F(AnalysisTest, UnsafeHeadVariableRejected) {
  auto a = Analyze("p(X, Y) :- arc(X, _).");
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.status().message().find("Y"), std::string::npos);
}

TEST_F(AnalysisTest, UnsafeConstraintRejected) {
  auto a = Analyze("p(X) :- arc(X, _), Y > 3.");
  EXPECT_FALSE(a.ok());
}

TEST_F(AnalysisTest, AssignmentChainsAreSafe) {
  auto a = Analyze("p(X, C) :- arc(X, Y), A = X + Y, B = A * 2, C = B - 1.");
  EXPECT_TRUE(a.ok()) << a.status().ToString();
}

TEST_F(AnalysisTest, HeadOnlyConstantRuleIsSafe) {
  auto a = Analyze("seed(X, C) :- X = 5, C = 0.\n"
                   "seed(Y, C) :- seed(X, C1), arc(X, Y), C = C1 + 1.");
  EXPECT_TRUE(a.ok()) << a.status().ToString();
}

TEST_F(AnalysisTest, MultipleAggregatesRejected) {
  auto a = Analyze("p(min<X>, max<Y>) :- arc(X, Y).");
  EXPECT_EQ(a.status().code(), StatusCode::kUnsupported);
}

TEST_F(AnalysisTest, AggregateMustBeLastArg) {
  auto a = Analyze("p(min<X>, Y) :- arc(X, Y).");
  EXPECT_EQ(a.status().code(), StatusCode::kUnsupported);
}

TEST_F(AnalysisTest, InconsistentAggregateSignatureRejected) {
  auto a = Analyze(
      "p(X, min<Y>) :- arc(X, Y).\n"
      "p(X, Y) :- arc(Y, X).");
  EXPECT_FALSE(a.ok());
}

TEST_F(AnalysisTest, StratifiedNegationAccepted) {
  auto a = Analyze(
      "tc(X, Y) :- arc(X, Y).\n"
      "tc(X, Y) :- tc(X, Z), arc(Z, Y).\n"
      "node(X) :- arc(X, _).\n"
      "node(X) :- arc(_, X).\n"
      "unreach(X, Y) :- node(X), node(Y), !tc(X, Y).");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // unreach's SCC comes after tc's.
  EXPECT_GT(a.value().predicate("unreach").scc_id,
            a.value().predicate("tc").scc_id);
}

TEST_F(AnalysisTest, NegationThroughRecursionRejected) {
  auto a = Analyze(
      "win(X) :- arc(X, Y), !win(Y).");
  EXPECT_EQ(a.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(a.status().message().find("negated"), std::string::npos);
}

TEST_F(AnalysisTest, MutualNegationCycleRejected) {
  auto a = Analyze(
      "p(X) :- arc(X, _), !q(X).\n"
      "q(X) :- arc(X, _), !p(X).");
  EXPECT_EQ(a.status().code(), StatusCode::kUnsupported);
}

TEST_F(AnalysisTest, NegationOnlyVariableRejected) {
  auto a = Analyze("p(X) :- arc(X, _), !arc(X, Y).");
  EXPECT_FALSE(a.ok());
  EXPECT_NE(a.status().message().find("negation"), std::string::npos);
}

TEST_F(AnalysisTest, TypeInferencePropagatesDouble) {
  auto a = Analyze(
      "cost(X, C) :- arc(X, Y), C = Y * 0.5.\n"
      "total(X, sum<(Y, K)>) :- cost(Y, C), arc(Y, X), K = C + 1.");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value().predicate("cost").column_types[1],
            ColumnType::kDouble);
  EXPECT_EQ(a.value().predicate("total").column_types[1],
            ColumnType::kDouble);
}

TEST_F(AnalysisTest, IntStaysIntThroughRecursion) {
  auto a = Analyze(
      "sp(T, min<C>) :- T = 0, C = 0.\n"
      "sp(T2, min<C>) :- sp(T1, C1), warc(T1, T2, C2), C = C1 + C2.");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().predicate("sp").column_types[1], ColumnType::kInt);
}

TEST_F(AnalysisTest, SchemaOfUsesInferredTypes) {
  auto a = Analyze("half(X, H) :- arc(X, Y), H = Y / 2.0.");
  ASSERT_TRUE(a.ok());
  Schema s = a.value().SchemaOf("half");
  EXPECT_EQ(s.type(0), ColumnType::kInt);
  EXPECT_EQ(s.type(1), ColumnType::kDouble);
}

TEST_F(AnalysisTest, EmptyProgramRejected) {
  auto a = Analyze("");
  EXPECT_FALSE(a.ok());
}

TEST_F(AnalysisTest, InputOutputDirectiveValidation) {
  EXPECT_FALSE(Analyze(".input nothere\np(X) :- arc(X, _).").ok());
  EXPECT_FALSE(Analyze(".output nothere\np(X) :- arc(X, _).").ok());
  EXPECT_FALSE(Analyze(".input p\np(X) :- arc(X, _).").ok());
  EXPECT_TRUE(Analyze(".input arc\n.output p\np(X) :- arc(X, _).").ok());
}

}  // namespace
}  // namespace dcdatalog
