#ifndef RMA_SQL_PARSER_H_
#define RMA_SQL_PARSER_H_

#include <string>
#include <vector>

#include "sql/ast.h"
#include "util/result.h"

namespace rma::sql {

/// Parses one SQL statement (trailing semicolon optional) and keys it for
/// the plan cache from the tokens it lexed (Statement::plan_key).
///
/// Supported grammar (case-insensitive keywords):
///   SELECT items FROM from [WHERE e] [GROUP BY cols] [ORDER BY cols [DESC]]
///     [LIMIT n]
///   CREATE TABLE name AS select ; DROP TABLE name
///   EXPLAIN [ANALYZE] (select | CREATE TABLE name AS select)
///   from:  ref ([CROSS] JOIN ref [ON e] | ',' ref)*
///   ref:   table [AS? alias] | '(' select ')' alias
///        | RMAOP '(' arg [',' arg] ')' [alias]      -- INV, MMU, TRA, ...
///   arg:   ref BY col | ref BY '(' col, ... ')'
Result<Statement> Parse(const std::string& input);

/// Parses a bare SELECT query.
Result<SelectStmtPtr> ParseSelect(const std::string& input);

/// Splits a multi-statement script on top-level semicolons (a ';' inside a
/// string literal or a line/block comment is respected via the lexer) into
/// the original statement texts, so each one parses, and keys the plan
/// cache, exactly as a single-statement call would. Empty statements (';;',
/// trailing ';') are dropped. ParseError on malformed input.
Result<std::vector<std::string>> SplitStatements(const std::string& script);

}  // namespace rma::sql

#endif  // RMA_SQL_PARSER_H_
