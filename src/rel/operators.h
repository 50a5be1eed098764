#ifndef RMA_REL_OPERATORS_H_
#define RMA_REL_OPERATORS_H_

#include <string>
#include <vector>

#include "rel/expression.h"
#include "storage/relation.h"
#include "util/result.h"

namespace rma::rel {

/// Relational algebra over the column store. Together with the relational
/// matrix operations in src/core these implement the mixed workloads of
/// Sec. 5 and Sec. 8.6.

/// σ: rows where `predicate` evaluates to true.
Result<Relation> Select(const Relation& r, const ExprPtr& predicate);

/// π onto named attributes (fast path: shares column BATs, no copying).
Result<Relation> ProjectNames(const Relation& r,
                              const std::vector<std::string>& names);

/// Generalized π: one output column per (expression, name).
struct ProjectItem {
  ExprPtr expr;
  std::string name;
};
Result<Relation> Project(const Relation& r,
                         const std::vector<ProjectItem>& items);

/// ρ: renames attributes positionally (`new_names` covers all attributes).
Result<Relation> RenameAll(const Relation& r,
                           const std::vector<std::string>& new_names);

/// ρ: renames one attribute.
Result<Relation> Rename(const Relation& r, const std::string& old_name,
                        const std::string& new_name);

/// Equi-join (hash). Output schema is the concatenation of both schemas;
/// duplicate output names get a "_2" suffix on the right side.
Result<Relation> HashJoin(const Relation& l, const Relation& r,
                          const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys);

/// Equi-join with key columns given by position (used by the SQL layer,
/// where joined schemas may contain duplicate names).
Result<Relation> HashJoinAt(const Relation& l, const Relation& r,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys);

/// Cartesian product ×.
Result<Relation> CrossJoin(const Relation& l, const Relation& r);

/// Aggregation ϑ. `func` ∈ {COUNT, SUM, AVG, MIN, MAX}; `arg` is empty for
/// COUNT(*). Numeric aggregates produce DOUBLE (COUNT produces INT).
struct AggSpec {
  std::string func;
  std::string arg;       // attribute name; empty for COUNT(*)
  std::string out_name;  // result attribute name
};
Result<Relation> Aggregate(const Relation& r,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggSpec>& aggs);

/// Sorts by `keys` ascending (stable). Invalid when `keys` is empty.
Result<Relation> SortBy(const Relation& r, const std::vector<std::string>& keys);

/// Duplicate elimination over all attributes.
Result<Relation> Distinct(const Relation& r);

/// SQL PIVOT with COUNT: one output row per distinct `row_attr` value, one
/// DOUBLE column per distinct `col_attr` value (named by the value, sorted),
/// cells = number of matching input rows. Builds the DBLP publications
/// matrix of Sec. 8.6(3).
Result<Relation> PivotCount(const Relation& r, const std::string& row_attr,
                            const std::string& col_attr);

/// Bag union (schemas must match exactly).
Result<Relation> UnionAll(const Relation& a, const Relation& b);

/// Row range [offset, offset+count) — SQL LIMIT/OFFSET.
Result<Relation> Limit(const Relation& r, int64_t offset, int64_t count);

}  // namespace rma::rel

#endif  // RMA_REL_OPERATORS_H_
