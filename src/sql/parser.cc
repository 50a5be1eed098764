#include "sql/parser.h"

#include <cctype>
#include <unordered_set>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace rma::sql {

namespace {

const std::unordered_set<std::string>& ReservedWords() {
  static const std::unordered_set<std::string> kWords = {
      "SELECT", "FROM",  "WHERE", "GROUP", "BY",    "ORDER", "ASC",
      "DESC",   "LIMIT", "AS",    "ON",    "JOIN",  "INNER", "CROSS",
      "AND",    "OR",    "NOT",   "CREATE", "TABLE", "DROP", "EXPLAIN"};
  return kWords;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (IsKeyword("CREATE")) {
      Advance();
      RMA_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      RMA_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
      RMA_RETURN_NOT_OK(ExpectKeyword("AS"));
      RMA_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
      stmt.kind = Statement::Kind::kCreateTableAs;
    } else if (IsKeyword("DROP")) {
      Advance();
      RMA_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      RMA_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
      stmt.kind = Statement::Kind::kDropTable;
    } else if (IsKeyword("EXPLAIN")) {
      Advance();
      if (IsKeyword("ANALYZE")) {
        Advance();
        stmt.analyze = true;
      }
      if (IsKeyword("CREATE")) {
        Advance();
        RMA_RETURN_NOT_OK(ExpectKeyword("TABLE"));
        RMA_ASSIGN_OR_RETURN(stmt.table_name, ExpectIdent());
        RMA_RETURN_NOT_OK(ExpectKeyword("AS"));
        stmt.explain_create = true;
      }
      RMA_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
      stmt.kind = Statement::Kind::kExplain;
    } else {
      RMA_ASSIGN_OR_RETURN(stmt.select, ParseSelectStmt());
      stmt.kind = Statement::Kind::kSelect;
    }
    if (IsSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Status::ParseError("trailing input after statement: '" +
                                Peek().text + "'");
    }
    return stmt;
  }

  Result<SelectStmtPtr> ParseSelectStmt() {
    RMA_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto stmt = std::make_shared<SelectStmt>();
    // Select list.
    while (true) {
      SelectItem item;
      if (IsSymbol("*")) {
        Advance();
        item.expr = SqlExpr::Star();
      } else {
        RMA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (IsKeyword("AS")) {
          Advance();
          RMA_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
        } else if (Peek().kind == TokenKind::kIdent && !IsReserved(Peek())) {
          item.alias = Peek().text;
          Advance();
        }
      }
      stmt->items.push_back(std::move(item));
      if (!IsSymbol(",")) break;
      Advance();
    }
    RMA_RETURN_NOT_OK(ExpectKeyword("FROM"));
    RMA_ASSIGN_OR_RETURN(stmt->from, ParseFrom());
    if (IsKeyword("WHERE")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (IsKeyword("GROUP")) {
      Advance();
      RMA_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        RMA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!IsSymbol(",")) break;
        Advance();
      }
    }
    if (IsKeyword("ORDER")) {
      Advance();
      RMA_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        RMA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (IsKeyword("ASC")) {
          Advance();
        } else if (IsKeyword("DESC")) {
          Advance();
          item.ascending = false;
        }
        stmt->order_by.push_back(std::move(item));
        if (!IsSymbol(",")) break;
        Advance();
      }
    }
    if (IsKeyword("LIMIT")) {
      Advance();
      if (Peek().kind != TokenKind::kInt) {
        return Status::ParseError("LIMIT expects an integer");
      }
      stmt->limit = Peek().int_value;
      Advance();
    }
    return stmt;
  }

 private:
  // --- FROM clause ----------------------------------------------------------

  Result<TableRefPtr> ParseFrom() {
    RMA_ASSIGN_OR_RETURN(TableRefPtr left, ParseTableRef());
    while (true) {
      if (IsSymbol(",") && LooksLikeTableRefAfterComma()) {
        Advance();
        RMA_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
        left = MakeJoin(TableRef::JoinKind::kCross, left, right, nullptr);
        continue;
      }
      if (IsKeyword("CROSS")) {
        Advance();
        RMA_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        RMA_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
        left = MakeJoin(TableRef::JoinKind::kCross, left, right, nullptr);
        continue;
      }
      if (IsKeyword("INNER") || IsKeyword("JOIN")) {
        if (IsKeyword("INNER")) Advance();
        RMA_RETURN_NOT_OK(ExpectKeyword("JOIN"));
        RMA_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
        RMA_RETURN_NOT_OK(ExpectKeyword("ON"));
        RMA_ASSIGN_OR_RETURN(SqlExprPtr on, ParseExpr());
        left = MakeJoin(TableRef::JoinKind::kInner, left, right, std::move(on));
        continue;
      }
      break;
    }
    return left;
  }

  bool LooksLikeTableRefAfterComma() {
    // In FROM, a comma always introduces another table ref in this grammar.
    return true;
  }

  static TableRefPtr MakeJoin(TableRef::JoinKind kind, TableRefPtr l,
                              TableRefPtr r, SqlExprPtr on) {
    auto j = std::make_shared<TableRef>();
    j->kind = TableRef::Kind::kJoin;
    j->join_kind = kind;
    j->left = std::move(l);
    j->right = std::move(r);
    j->on = std::move(on);
    return j;
  }

  Result<TableRefPtr> ParseTableRef() {
    RMA_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRefPrimary());
    // Optional alias.
    if (IsKeyword("AS")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(ref->alias, ExpectIdent());
    } else if (Peek().kind == TokenKind::kIdent && !IsReserved(Peek())) {
      ref->alias = Peek().text;
      Advance();
    }
    return ref;
  }

  Result<TableRefPtr> ParseTableRefPrimary() {
    if (IsSymbol("(")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SelectStmtPtr sub, ParseSelectStmt());
      RMA_RETURN_NOT_OK(ExpectSymbol(")"));
      auto ref = std::make_shared<TableRef>();
      ref->kind = TableRef::Kind::kSubquery;
      ref->subquery = std::move(sub);
      return ref;
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Status::ParseError("expected table reference, got '" +
                                Peek().text + "'");
    }
    const std::string name = Peek().text;
    // RMA table function? (INV(...), MMU(...), ...)
    auto op = ParseMatrixOp(name);
    if (op.ok() && PeekAt(1).kind == TokenKind::kSymbol &&
        PeekAt(1).text == "(") {
      Advance();  // op name
      Advance();  // (
      auto ref = std::make_shared<TableRef>();
      ref->kind = TableRef::Kind::kRmaOp;
      ref->op = *op;
      while (true) {
        RmaArg arg;
        RMA_ASSIGN_OR_RETURN(arg.table, ParseTableRef());
        RMA_RETURN_NOT_OK(ExpectKeyword("BY"));
        if (IsSymbol("(")) {
          Advance();
          while (true) {
            RMA_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
            arg.order.push_back(std::move(col));
            if (!IsSymbol(",")) break;
            Advance();
          }
          RMA_RETURN_NOT_OK(ExpectSymbol(")"));
        } else {
          RMA_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
          arg.order.push_back(std::move(col));
        }
        ref->rma_args.push_back(std::move(arg));
        if (!IsSymbol(",")) break;
        Advance();
      }
      RMA_RETURN_NOT_OK(ExpectSymbol(")"));
      const OpInfo& info = GetOpInfo(ref->op);
      if (static_cast<int>(ref->rma_args.size()) != info.arity) {
        return Status::ParseError(std::string(info.name) + " expects " +
                                  std::to_string(info.arity) + " argument(s)");
      }
      return ref;
    }
    // Plain table.
    Advance();
    auto ref = std::make_shared<TableRef>();
    ref->kind = TableRef::Kind::kTable;
    ref->table_name = name;
    return ref;
  }

  // --- expressions -----------------------------------------------------------

  Result<SqlExprPtr> ParseExpr() { return ParseOr(); }

  Result<SqlExprPtr> ParseOr() {
    RMA_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAnd());
    while (IsKeyword("OR")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAnd());
      lhs = SqlExpr::Binary("OR", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseAnd() {
    RMA_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseNot());
    while (IsKeyword("AND")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseNot());
      lhs = SqlExpr::Binary("AND", std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseNot() {
    if (IsKeyword("NOT")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr x, ParseNot());
      return SqlExpr::Unary("NOT", std::move(x));
    }
    return ParseComparison();
  }

  Result<SqlExprPtr> ParseComparison() {
    RMA_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseAddSub());
    if (Peek().kind == TokenKind::kSymbol) {
      const std::string& op = Peek().text;
      if (op == "<" || op == "<=" || op == ">" || op == ">=" || op == "=" ||
          op == "<>" || op == "!=" || op == "==") {
        Advance();
        RMA_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseAddSub());
        return SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
      }
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseAddSub() {
    RMA_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseMulDiv());
    while (IsSymbol("+") || IsSymbol("-")) {
      const std::string op = Peek().text;
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseMulDiv());
      lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseMulDiv() {
    RMA_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseUnary());
    while (IsSymbol("*") || IsSymbol("/") || IsSymbol("%")) {
      const std::string op = Peek().text;
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseUnary());
      lhs = SqlExpr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<SqlExprPtr> ParseUnary() {
    if (IsSymbol("-")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr x, ParseUnary());
      return SqlExpr::Unary("-", std::move(x));
    }
    return ParsePrimary();
  }

  Result<SqlExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kInt) {
      Advance();
      return SqlExpr::Lit(Value(t.int_value));
    }
    if (t.kind == TokenKind::kFloat) {
      Advance();
      return SqlExpr::Lit(Value(t.float_value));
    }
    if (t.kind == TokenKind::kString) {
      Advance();
      return SqlExpr::Lit(Value(t.text));
    }
    if (IsSymbol("(")) {
      Advance();
      RMA_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
      RMA_RETURN_NOT_OK(ExpectSymbol(")"));
      return e;
    }
    if (t.kind == TokenKind::kIdent) {
      if (IsReserved(t)) {
        return Status::ParseError("unexpected keyword '" + t.text + "'");
      }
      const std::string first = t.text;
      Advance();
      if (IsSymbol("(")) {  // function call / aggregate
        Advance();
        std::vector<SqlExprPtr> args;
        if (IsSymbol("*")) {  // COUNT(*)
          Advance();
          args.push_back(SqlExpr::Star());
        } else if (!IsSymbol(")")) {
          while (true) {
            RMA_ASSIGN_OR_RETURN(SqlExprPtr a, ParseExpr());
            args.push_back(std::move(a));
            if (!IsSymbol(",")) break;
            Advance();
          }
        }
        RMA_RETURN_NOT_OK(ExpectSymbol(")"));
        return SqlExpr::Call(ToUpper(first), std::move(args));
      }
      if (IsSymbol(".")) {  // qualified column
        Advance();
        RMA_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        return SqlExpr::Column(first, std::move(col));
      }
      return SqlExpr::Column("", first);
    }
    return Status::ParseError("unexpected token '" + t.text + "'");
  }

  // --- token helpers ----------------------------------------------------------

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(size_t delta) const {
    const size_t i = pos_ + delta;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  static bool IsReserved(const Token& t) {
    return t.kind == TokenKind::kIdent &&
           ReservedWords().count(ToUpper(t.text)) > 0;
  }
  bool IsKeyword(const char* kw) const {
    return Peek().kind == TokenKind::kIdent &&
           EqualsIgnoreCase(Peek().text, kw);
  }
  bool IsSymbol(const char* s) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == s;
  }
  Status ExpectKeyword(const char* kw) {
    if (!IsKeyword(kw)) {
      return Status::ParseError(std::string("expected ") + kw + ", got '" +
                                Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(const char* s) {
    if (!IsSymbol(s)) {
      return Status::ParseError(std::string("expected '") + s + "', got '" +
                                Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent || IsReserved(Peek())) {
      return Status::ParseError("expected identifier, got '" + Peek().text +
                                "'");
    }
    std::string s = Peek().text;
    Advance();
    return s;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// The plan-cache key of a lexed statement (Statement::plan_key). Each
/// token is its kind letter, its spelling and a space; no identifier,
/// number or symbol spelling holds a space, and a string literal is
/// length-prefixed, so the rendering is injective.
std::string PlanKey(const std::vector<Token>& tokens) {
  size_t begin = 0;
  auto is_ident = [&](size_t i, const char* word) {
    return i < tokens.size() && tokens[i].kind == TokenKind::kIdent &&
           EqualsIgnoreCase(tokens[i].text, word);
  };
  if (is_ident(begin, "EXPLAIN")) {
    ++begin;
    if (is_ident(begin, "ANALYZE")) ++begin;
  }
  size_t end = tokens.size() - 1;  // the kEnd token
  if (end > begin && tokens[end - 1].kind == TokenKind::kSymbol &&
      tokens[end - 1].text == ";") {
    --end;
  }
  size_t bytes = 0;  // spellings plus kind letter, space and length prefix
  for (size_t i = begin; i < end; ++i) bytes += tokens[i].text.size() + 8;
  std::string key;
  key.reserve(bytes);
  for (size_t i = begin; i < end; ++i) {
    const Token& t = tokens[i];
    switch (t.kind) {
      case TokenKind::kIdent:
        key += 'i';
        for (const char c : t.text) {
          key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        break;
      case TokenKind::kString:
        key += 's';
        key += std::to_string(t.text.size());
        key += ':';
        key += t.text;
        break;
      case TokenKind::kInt:
        key += 'n';
        key += t.text;
        break;
      case TokenKind::kFloat:
        key += 'f';
        key += t.text;
        break;
      case TokenKind::kSymbol:
        key += 'p';
        key += t.text;
        break;
      case TokenKind::kEnd:
        break;
    }
    key += ' ';
  }
  return key;
}

}  // namespace

Result<Statement> Parse(const std::string& input) {
  RMA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  std::string key = PlanKey(tokens);
  Parser p(std::move(tokens));
  RMA_ASSIGN_OR_RETURN(Statement stmt, p.ParseStatement());
  stmt.plan_key = std::move(key);
  return stmt;
}

Result<SelectStmtPtr> ParseSelect(const std::string& input) {
  RMA_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::ParseError("expected a SELECT statement");
  }
  return stmt.select;
}

Result<std::vector<std::string>> SplitStatements(const std::string& script) {
  RMA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(script));
  std::vector<std::string> out;
  size_t start = 0;
  bool has_content = false;
  for (const Token& tok : tokens) {
    if (tok.kind == TokenKind::kEnd) break;
    if (tok.kind == TokenKind::kSymbol && tok.text == ";") {
      if (has_content) {
        out.push_back(script.substr(start, tok.position - start));
      }
      start = tok.position + 1;
      has_content = false;
    } else {
      has_content = true;
    }
  }
  if (has_content) out.push_back(script.substr(start));
  return out;
}

}  // namespace rma::sql
