// SQL lexer and parser.
#include <gtest/gtest.h>

#include <string>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace rma::sql {
namespace {

TEST(Lexer, TokenKinds) {
  const auto tokens = Lex("SELECT x, 42, 4.5, 'it''s' FROM t;").ValueOrDie();
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[3].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_EQ(tokens[5].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[5].float_value, 4.5);
  EXPECT_EQ(tokens[7].kind, TokenKind::kString);
  EXPECT_EQ(tokens[7].text, "it's");
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(Lexer, TwoCharSymbolsAndComments) {
  const auto tokens = Lex("a <= b -- comment\n <> c != d").ValueOrDie();
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[3].text, "<>");
  EXPECT_EQ(tokens[5].text, "!=");
}

TEST(Lexer, BlockComments) {
  // A block comment is a token separator, exactly like a line comment;
  // `/` and `*` inside it never lex as operators.
  const auto tokens =
      Lex("a /* x * y / z */ <= /* multi\nline -- and line marker */ b")
          .ValueOrDie();
  ASSERT_EQ(tokens.size(), 4u);  // a, <=, b, end
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "<=");
  EXPECT_EQ(tokens[2].text, "b");
}

TEST(Lexer, BlockCommentWithApostropheDoesNotOpenAString) {
  const auto tokens =
      Lex("SELECT a /* don't */ FROM t").ValueOrDie();
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].text, "t");
}

TEST(Lexer, BlockCommentMarkersInsideStringsStayLiteral) {
  const auto tokens = Lex("'/* not a comment */'").ValueOrDie();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "/* not a comment */");
}

TEST(Lexer, DivisionAndMultiplicationStillLex) {
  const auto tokens = Lex("a / b * c").ValueOrDie();
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[1].text, "/");
  EXPECT_EQ(tokens[3].text, "*");
}

TEST(Lexer, Errors) {
  EXPECT_STATUS(kParseError, Lex("'unterminated"));
  EXPECT_STATUS(kParseError, Lex("a ? b"));
  EXPECT_STATUS(kParseError, Lex("1e"));
  // Unterminated block comments are rejected with a clear error, and the
  // '*' of the opener cannot double as the '*' of a closer.
  const Status unterminated = Lex("SELECT a /* comment").status();
  EXPECT_TRUE(unterminated.IsParseError());
  EXPECT_NE(unterminated.message().find("block comment"), std::string::npos)
      << unterminated.ToString();
  EXPECT_STATUS(kParseError, Lex("a /*/ b"));
}

TEST(Parser, StatementWithBlockCommentParses) {
  const auto stmt =
      Parse("SELECT a /* pick the key */, b FROM t /* base table */ "
            "WHERE a > 1")
          .ValueOrDie();
  ASSERT_EQ(stmt.kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt.select->items.size(), 2u);
  EXPECT_NE(stmt.select->where, nullptr);
}

TEST(Parser, BasicSelect) {
  const auto stmt = ParseSelect("SELECT a, b AS bb FROM t WHERE a > 1 "
                                "GROUP BY a ORDER BY a DESC LIMIT 10")
                        .ValueOrDie();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "bb");
  EXPECT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_FALSE(stmt->order_by[0].ascending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(Parser, SelectStar) {
  const auto stmt = ParseSelect("SELECT * FROM t").ValueOrDie();
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->kind, SqlExpr::Kind::kStar);
}

TEST(Parser, RmaTableFunctionUnary) {
  const auto stmt = ParseSelect("SELECT * FROM INV(r BY u)").ValueOrDie();
  ASSERT_EQ(stmt->from->kind, TableRef::Kind::kRmaOp);
  EXPECT_EQ(stmt->from->op, MatrixOp::kInv);
  ASSERT_EQ(stmt->from->rma_args.size(), 1u);
  EXPECT_EQ(stmt->from->rma_args[0].order,
            (std::vector<std::string>{"u"}));
}

TEST(Parser, RmaTableFunctionBinaryWithLists) {
  const auto stmt =
      ParseSelect("SELECT * FROM MMU(a BY (x, y), b BY z) AS m")
          .ValueOrDie();
  ASSERT_EQ(stmt->from->kind, TableRef::Kind::kRmaOp);
  EXPECT_EQ(stmt->from->op, MatrixOp::kMmu);
  EXPECT_EQ(stmt->from->alias, "m");
  ASSERT_EQ(stmt->from->rma_args.size(), 2u);
  EXPECT_EQ(stmt->from->rma_args[0].order,
            (std::vector<std::string>{"x", "y"}));
}

TEST(Parser, NestedRmaCalls) {
  const auto stmt =
      ParseSelect("SELECT * FROM TRA(INV(r BY u) BY u)").ValueOrDie();
  ASSERT_EQ(stmt->from->kind, TableRef::Kind::kRmaOp);
  EXPECT_EQ(stmt->from->op, MatrixOp::kTra);
  EXPECT_EQ(stmt->from->rma_args[0].table->kind, TableRef::Kind::kRmaOp);
}

TEST(Parser, JoinsAndSubqueries) {
  const auto stmt = ParseSelect(
                        "SELECT * FROM a JOIN b ON a.x = b.y CROSS JOIN "
                        "(SELECT c FROM d) AS sub, e")
                        .ValueOrDie();
  // Left-deep join tree: ((a ⋈ b) × sub) × e.
  ASSERT_EQ(stmt->from->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(stmt->from->right->kind, TableRef::Kind::kTable);
  EXPECT_EQ(stmt->from->right->table_name, "e");
  const auto& mid = stmt->from->left;
  ASSERT_EQ(mid->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(mid->right->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(mid->right->alias, "sub");
  const auto& inner = mid->left;
  ASSERT_EQ(inner->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(inner->join_kind, TableRef::JoinKind::kInner);
  EXPECT_NE(inner->on, nullptr);
}

TEST(Parser, ExpressionPrecedence) {
  const auto stmt =
      ParseSelect("SELECT a + b * c - d FROM t").ValueOrDie();
  // (a + (b*c)) - d
  const auto& e = stmt->items[0].expr;
  ASSERT_EQ(e->kind, SqlExpr::Kind::kBinary);
  EXPECT_EQ(e->name, "-");
  EXPECT_EQ(e->args[0]->name, "+");
  EXPECT_EQ(e->args[0]->args[1]->name, "*");
}

TEST(Parser, LogicPrecedence) {
  const auto stmt =
      ParseSelect("SELECT * FROM t WHERE NOT a = 1 OR b = 2 AND c = 3")
          .ValueOrDie();
  // (NOT (a=1)) OR ((b=2) AND (c=3))
  const auto& w = stmt->where;
  ASSERT_EQ(w->name, "OR");
  EXPECT_EQ(w->args[0]->name, "NOT");
  EXPECT_EQ(w->args[1]->name, "AND");
}

TEST(Parser, CreateAndDrop) {
  const Statement c =
      Parse("CREATE TABLE x AS SELECT * FROM t").ValueOrDie();
  EXPECT_EQ(c.kind, Statement::Kind::kCreateTableAs);
  EXPECT_EQ(c.table_name, "x");
  const Statement d = Parse("DROP TABLE x;").ValueOrDie();
  EXPECT_EQ(d.kind, Statement::Kind::kDropTable);
}

TEST(Parser, Errors) {
  EXPECT_STATUS(kParseError, ParseSelect("FROM t"));
  EXPECT_STATUS(kParseError, ParseSelect("SELECT a FROM"));
  EXPECT_STATUS(kParseError, ParseSelect("SELECT a FROM t WHERE"));
  EXPECT_STATUS(kParseError, ParseSelect("SELECT * FROM INV(r)"));  // no BY
  EXPECT_STATUS(kParseError,
                ParseSelect("SELECT * FROM MMU(a BY x)"));  // arity
  EXPECT_STATUS(kParseError, ParseSelect("SELECT * FROM t extra garbage ,"));
  EXPECT_STATUS(kParseError, ParseSelect("SELECT a FROM t LIMIT x"));
}

TEST(Parser, QualifiedColumnsAndFunctions) {
  const auto stmt =
      ParseSelect("SELECT t.a, SQRT(b), COUNT(*) FROM t").ValueOrDie();
  EXPECT_EQ(stmt->items[0].expr->qualifier, "t");
  EXPECT_EQ(stmt->items[0].expr->name, "a");
  EXPECT_EQ(stmt->items[1].expr->kind, SqlExpr::Kind::kCall);
  EXPECT_EQ(stmt->items[1].expr->name, "SQRT");
  EXPECT_EQ(stmt->items[2].expr->name, "COUNT");
  EXPECT_EQ(stmt->items[2].expr->args[0]->kind, SqlExpr::Kind::kStar);
}

// --- plan-cache keys -------------------------------------------------------

/// The plan-cache key Parse builds from the statement's tokens.
std::string Key(const std::string& sql) {
  Result<Statement> stmt = Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status().ToString();
  return stmt.ok() ? stmt->plan_key : std::string();
}

TEST(NormalizeStatementTest, CaseWhitespaceAndSemicolon) {
  const std::string base = Key("select * from t");
  EXPECT_EQ(Key("SELECT  *\n FROM   t ;"), base);
  EXPECT_EQ(Key("Select * From T"), base);
  // Spacing between tokens never splits an entry.
  EXPECT_EQ(Key("SELECT * FROM QQR( m BY id )"),
            Key("SELECT * FROM QQR(m BY id)"));
  EXPECT_NE(Key("SELECT * FROM u"), base);
}

TEST(NormalizeStatementTest, PreservesStringLiterals) {
  // Literal case and spacing are data: they keep their own entries.
  const std::string spaced = Key("SELECT * FROM t WHERE s = 'A  B'");
  EXPECT_EQ(Key("select * from t where s = 'A  B'"), spaced);
  EXPECT_NE(Key("SELECT * FROM t WHERE s = 'A B'"), spaced);
  EXPECT_NE(Key("SELECT * FROM t WHERE s = 'a  b'"), spaced);
}

TEST(NormalizeStatementTest, EscapedQuoteDoesNotDesyncQuoteState) {
  // '' is an escaped quote inside a literal: the literal continues, so the
  // differing trailing characters keep the two statements on different
  // keys.
  EXPECT_NE(Key("SELECT * FROM t WHERE s = 'X''y'"),
            Key("SELECT * FROM t WHERE s = 'X''Y'"));
  EXPECT_EQ(Key("SELECT * FROM t WHERE s = 'X''Y'  "),
            Key("select * from t where s = 'X''Y'"));
  // Length prefixes keep adjacent literals apart: 'a', 'b' is not 'a'', ''b'.
  EXPECT_NE(Key("SELECT 'a', 'b' FROM t"), Key("SELECT 'a'', ''b' FROM t"));
}

TEST(NormalizeStatementTest, StripsLineComments) {
  // Comment-only differences share one plan entry, and an apostrophe
  // inside a comment does not open a literal.
  EXPECT_EQ(Key("SELECT * FROM t -- don't trip the quote tracker\n"),
            Key("SELECT * FROM t"));
  EXPECT_EQ(Key("SELECT a, -- pick a\n b FROM t"), Key("SELECT a, b FROM t"));
  // The comment separates tokens like whitespace.
  EXPECT_EQ(Key("SELECT a--c\nFROM t"), Key("select a from t"));
}

TEST(NormalizeStatementTest, StripsBlockComments) {
  EXPECT_EQ(Key("SELECT /* don't */ * FROM /* t? no: */ t"),
            Key("select * from t"));
  EXPECT_EQ(Key("SELECT a/* tight */FROM t"), Key("select a from t"));
  // Multi-line block comment, with a quote on its own line.
  EXPECT_EQ(Key("SELECT * FROM t /* line one\n 'line two'\n*/ WHERE a > 1"),
            Key("select * from t where a > 1"));
}

TEST(NormalizeStatementTest, CommentMarkersInsideLiteralsArePreserved) {
  EXPECT_NE(Key("SELECT '--x' FROM t"), Key("SELECT '' FROM t"));
  EXPECT_NE(Key("SELECT '--x' FROM t"), Key("SELECT '--y' FROM t"));
  EXPECT_NE(Key("SELECT '/* x */' FROM t"), Key("SELECT '/**/' FROM t"));
  EXPECT_EQ(Key("SELECT  '/* x */'  FROM t"), Key("select '/* x */' from t"));
}

TEST(NormalizeStatementTest, StripsExplainAnalyzePrefix) {
  const std::string base = Key("SELECT * FROM t");
  EXPECT_EQ(Key("EXPLAIN SELECT * FROM t"), base);
  EXPECT_EQ(Key("EXPLAIN ANALYZE  SELECT * FROM t;"), base);
  EXPECT_EQ(Key("explain analyze CREATE TABLE q AS SELECT * FROM t"),
            Key("CREATE TABLE q AS SELECT * FROM t"));
}

TEST(NormalizeStatementTest, OperatorSpacingSharesAKey) {
  EXPECT_EQ(Key("SELECT a+b FROM t"), Key("SELECT a + b FROM t"));
  EXPECT_EQ(Key("SELECT * FROM t WHERE a<=1"),
            Key("SELECT * FROM t WHERE a <= 1"));
  EXPECT_NE(Key("SELECT a+b FROM t"), Key("SELECT a-b FROM t"));
}

TEST(NormalizeStatementTest, IdentifierDiffersFromStringLiteral) {
  EXPECT_NE(Key("SELECT x FROM t"), Key("SELECT 'x' FROM t"));
  EXPECT_NE(Key("SELECT 1 FROM t"), Key("SELECT '1' FROM t"));
}

TEST(NormalizeStatementTest, CreateTableAsKeysItsWholeStatement) {
  const std::string select = Key("SELECT * FROM QQR(m BY id)");
  const std::string ctas = Key("CREATE TABLE q AS SELECT * FROM QQR(m BY id)");
  EXPECT_NE(ctas, select);
  EXPECT_NE(Key("CREATE TABLE r AS SELECT * FROM QQR(m BY id)"), ctas);
}

}  // namespace
}  // namespace rma::sql
