#include "rel/operators.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "storage/bat_ops.h"
#include "util/string_util.h"

namespace rma::rel {

namespace {

// Concatenated values of column `c` from both relations (same type).
template <typename T>
std::vector<T> ConcatColumn(const Relation& a, const Relation& b, int c) {
  const auto& ca = static_cast<const TypedBat<T>&>(*a.column(c)).data();
  const auto& cb = static_cast<const TypedBat<T>&>(*b.column(c)).data();
  std::vector<T> v;
  v.reserve(ca.size() + cb.size());
  v.insert(v.end(), ca.begin(), ca.end());
  v.insert(v.end(), cb.begin(), cb.end());
  return v;
}

}  // namespace

Result<Relation> Select(const Relation& r, const ExprPtr& predicate) {
  RMA_ASSIGN_OR_RETURN(BoundExpr pred, Bind(predicate, r.schema()));
  return r.TakeRows(pred.TrueRows(r));
}

Result<Relation> ProjectNames(const Relation& r,
                              const std::vector<std::string>& names) {
  RMA_ASSIGN_OR_RETURN(std::vector<int> idx, r.schema().IndicesOf(names));
  return r.SelectColumns(idx);
}

Result<Relation> Project(const Relation& r,
                         const std::vector<ProjectItem>& items) {
  std::vector<Attribute> attrs;
  std::vector<BoundExpr> bound;
  attrs.reserve(items.size());
  bound.reserve(items.size());
  for (const auto& item : items) {
    RMA_ASSIGN_OR_RETURN(BoundExpr be, Bind(item.expr, r.schema()));
    attrs.push_back(Attribute{item.name, be.type()});
    bound.push_back(std::move(be));
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  std::vector<BatPtr> cols;
  cols.reserve(bound.size());
  for (const BoundExpr& be : bound) cols.push_back(be.EvalColumn(r));
  return Relation::Make(std::move(schema), std::move(cols), r.name());
}

Result<Relation> RenameAll(const Relation& r,
                           const std::vector<std::string>& new_names) {
  if (static_cast<int>(new_names.size()) != r.num_columns()) {
    return Status::Invalid("rename: name count mismatch");
  }
  std::vector<Attribute> attrs = r.schema().attributes();
  for (size_t i = 0; i < new_names.size(); ++i) attrs[i].name = new_names[i];
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), r.columns(), r.name());
}

Result<Relation> Rename(const Relation& r, const std::string& old_name,
                        const std::string& new_name) {
  RMA_ASSIGN_OR_RETURN(int idx, r.schema().IndexOf(old_name));
  return r.RenameColumn(idx, new_name);
}

namespace {

// Concatenates schemas, suffixing right-side duplicates with "_2".
Result<Schema> JoinedSchema(const Schema& l, const Schema& rs) {
  std::vector<Attribute> attrs = l.attributes();
  std::unordered_set<std::string> used;
  for (const auto& a : attrs) used.insert(a.name);
  for (const auto& a : rs.attributes()) {
    Attribute copy = a;
    while (used.count(copy.name) > 0) copy.name += "_2";
    used.insert(copy.name);
    attrs.push_back(std::move(copy));
  }
  return Schema::Make(std::move(attrs));
}

Relation MaterializeJoin(const Relation& l, const Relation& r,
                         const Schema& schema,
                         const std::vector<int64_t>& li,
                         const std::vector<int64_t>& ri) {
  std::vector<BatPtr> cols;
  cols.reserve(static_cast<size_t>(l.num_columns() + r.num_columns()));
  for (const auto& c : l.columns()) cols.push_back(c->Take(li));
  for (const auto& c : r.columns()) cols.push_back(c->Take(ri));
  return Relation::Make(schema, std::move(cols), l.name()).ValueOrDie();
}

}  // namespace

Result<Relation> HashJoin(const Relation& l, const Relation& r,
                          const std::vector<std::string>& left_keys,
                          const std::vector<std::string>& right_keys) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::Invalid("join: key lists must be equal-length, non-empty");
  }
  RMA_ASSIGN_OR_RETURN(std::vector<int> lki, l.schema().IndicesOf(left_keys));
  RMA_ASSIGN_OR_RETURN(std::vector<int> rki, r.schema().IndicesOf(right_keys));
  return HashJoinAt(l, r, lki, rki);
}

Result<Relation> HashJoinAt(const Relation& l, const Relation& r,
                            const std::vector<int>& lki,
                            const std::vector<int>& rki) {
  if (lki.size() != rki.size() || lki.empty()) {
    return Status::Invalid("join: key lists must be equal-length, non-empty");
  }
  std::vector<BatPtr> lkeys;
  std::vector<BatPtr> rkeys;
  for (int i : lki) lkeys.push_back(l.column(i));
  for (int i : rki) rkeys.push_back(r.column(i));
  for (size_t i = 0; i < lkeys.size(); ++i) {
    const DataType lt = lkeys[i]->type();
    const DataType rt = rkeys[i]->type();
    if (lt != rt && !(IsNumeric(lt) && IsNumeric(rt))) {
      return Status::TypeError("join: key type mismatch on " +
                               l.schema().attribute(lki[i]).name);
    }
    if (lt != rt) {
      // Normalize numeric key pairs to double for hashing/comparison.
      lkeys[i] = MakeDoubleBat(ToDoubleVector(*lkeys[i]));
      rkeys[i] = MakeDoubleBat(ToDoubleVector(*rkeys[i]));
    }
  }
  // Build on the smaller side. Output order: probe rows in order, each
  // with its matching build rows ascending (the chain order).
  const bool build_left = l.num_rows() <= r.num_rows();
  const auto& bkeys = build_left ? lkeys : rkeys;
  const auto& pkeys = build_left ? rkeys : lkeys;
  const int64_t bn = build_left ? l.num_rows() : r.num_rows();
  const int64_t pn = build_left ? r.num_rows() : l.num_rows();
  const std::vector<uint64_t> bh = bat_ops::HashKeys(bkeys);
  bat_ops::HashChains table(bn, bn);
  for (int64_t i = 0; i < bn; ++i) table.Insert(bh[static_cast<size_t>(i)], i);
  const std::vector<uint64_t> ph = bat_ops::HashKeys(pkeys);
  const bat_ops::KeyEquals eq(bkeys, pkeys);
  std::vector<int64_t> li;
  std::vector<int64_t> ri;
  for (int64_t i = 0; i < pn; ++i) {
    for (int64_t cand = table.Find(ph[static_cast<size_t>(i)]); cand >= 0;
         cand = table.Next(cand)) {
      if (!eq(cand, i)) continue;
      if (build_left) {
        li.push_back(cand);
        ri.push_back(i);
      } else {
        li.push_back(i);
        ri.push_back(cand);
      }
    }
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, JoinedSchema(l.schema(), r.schema()));
  return MaterializeJoin(l, r, schema, li, ri);
}

Result<Relation> CrossJoin(const Relation& l, const Relation& r) {
  const int64_t ln = l.num_rows();
  const int64_t rn = r.num_rows();
  std::vector<int64_t> li;
  std::vector<int64_t> ri;
  li.reserve(static_cast<size_t>(ln * rn));
  ri.reserve(static_cast<size_t>(ln * rn));
  for (int64_t i = 0; i < ln; ++i) {
    for (int64_t j = 0; j < rn; ++j) {
      li.push_back(i);
      ri.push_back(j);
    }
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, JoinedSchema(l.schema(), r.schema()));
  return MaterializeJoin(l, r, schema, li, ri);
}

namespace {

enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

Result<AggKind> ParseAggKind(const std::string& func) {
  const std::string f = ToUpper(func);
  if (f == "COUNT") return AggKind::kCount;
  if (f == "SUM") return AggKind::kSum;
  if (f == "AVG") return AggKind::kAvg;
  if (f == "MIN") return AggKind::kMin;
  if (f == "MAX") return AggKind::kMax;
  return Status::Invalid("unknown aggregate: " + func);
}

struct AggState {
  double sum = 0.0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

}  // namespace

Result<Relation> Aggregate(const Relation& r,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggSpec>& aggs) {
  RMA_ASSIGN_OR_RETURN(std::vector<int> gidx, r.schema().IndicesOf(group_by));
  std::vector<AggKind> kinds;
  std::vector<int> aidx;  // argument column; -1 for COUNT(*)
  for (const auto& a : aggs) {
    RMA_ASSIGN_OR_RETURN(AggKind k, ParseAggKind(a.func));
    kinds.push_back(k);
    if (a.arg.empty()) {
      if (k != AggKind::kCount) {
        return Status::Invalid("only COUNT may omit its argument");
      }
      aidx.push_back(-1);
    } else {
      RMA_ASSIGN_OR_RETURN(int idx, r.schema().IndexOf(a.arg));
      if (!IsNumeric(r.schema().attribute(idx).type)) {
        return Status::TypeError("aggregate over non-numeric attribute " +
                                 a.arg);
      }
      aidx.push_back(idx);
    }
  }
  std::vector<BatPtr> gkeys;
  for (int i : gidx) gkeys.push_back(r.column(i));

  const int64_t n = r.num_rows();
  std::vector<int64_t> group_of(static_cast<size_t>(n), 0);
  std::vector<int64_t> rep_rows;  // representative row per group
  if (gkeys.empty()) {
    rep_rows.push_back(0);  // single global group (present even if empty)
  } else {
    // The table chains each group's representative row; groups number in
    // order of first appearance.
    const std::vector<uint64_t> h = bat_ops::HashKeys(gkeys);
    const bat_ops::KeyEquals eq(gkeys, gkeys);
    bat_ops::HashChains table(n, 0);
    for (int64_t i = 0; i < n; ++i) {
      const uint64_t hi = h[static_cast<size_t>(i)];
      int64_t gid = -1;
      for (int64_t rep = table.Find(hi); rep >= 0; rep = table.Next(rep)) {
        if (eq(rep, i)) {
          gid = group_of[static_cast<size_t>(rep)];
          break;
        }
      }
      if (gid < 0) {
        gid = static_cast<int64_t>(rep_rows.size());
        rep_rows.push_back(i);
        table.Insert(hi, i);
      }
      group_of[static_cast<size_t>(i)] = gid;
    }
  }
  const int64_t num_groups = static_cast<int64_t>(rep_rows.size());
  std::vector<std::vector<AggState>> state(
      aggs.size(), std::vector<AggState>(static_cast<size_t>(num_groups)));
  // One pass per aggregate over its argument column; every group still
  // accumulates its rows in row order.
  for (size_t a = 0; a < aggs.size(); ++a) {
    std::vector<AggState>& groups = state[a];
    if (aidx[a] < 0) {
      for (int64_t g : group_of) groups[static_cast<size_t>(g)].count += 1;
      continue;
    }
    const Bat& col = *r.column(aidx[a]);
    std::vector<double> converted;
    const double* v = bat_ops::StableDoubles(col);
    if (v == nullptr) {
      converted.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        converted[static_cast<size_t>(i)] = col.GetDouble(i);
      }
      v = converted.data();
    }
    for (int64_t i = 0; i < n; ++i) {
      const int64_t g = group_of[static_cast<size_t>(i)];
      AggState& st = groups[static_cast<size_t>(g)];
      st.count += 1;
      st.sum += v[i];
      st.min = std::min(st.min, v[i]);
      st.max = std::max(st.max, v[i]);
    }
  }
  // Assemble output: group columns (values from representative rows) then
  // aggregate columns.
  std::vector<Attribute> attrs;
  std::vector<BatPtr> cols;
  if (!gkeys.empty()) {
    for (size_t k = 0; k < gkeys.size(); ++k) {
      attrs.push_back(Attribute{group_by[k], gkeys[k]->type()});
      cols.push_back(gkeys[k]->Take(rep_rows));
    }
  }
  const bool empty_global = gkeys.empty() && n == 0;
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (kinds[a] == AggKind::kCount) {
      std::vector<int64_t> v(static_cast<size_t>(num_groups));
      for (int64_t g = 0; g < num_groups; ++g) {
        v[static_cast<size_t>(g)] =
            empty_global ? 0 : state[a][static_cast<size_t>(g)].count;
      }
      attrs.push_back(Attribute{aggs[a].out_name, DataType::kInt64});
      cols.push_back(MakeInt64Bat(std::move(v)));
      continue;
    }
    std::vector<double> v(static_cast<size_t>(num_groups), 0.0);
    for (int64_t g = 0; g < num_groups; ++g) {
      const AggState& st = state[a][static_cast<size_t>(g)];
      switch (kinds[a]) {
        case AggKind::kSum:
          v[static_cast<size_t>(g)] = st.sum;
          break;
        case AggKind::kAvg:
          v[static_cast<size_t>(g)] = st.count == 0 ? 0.0 : st.sum / st.count;
          break;
        case AggKind::kMin:
          v[static_cast<size_t>(g)] = st.min;
          break;
        case AggKind::kMax:
          v[static_cast<size_t>(g)] = st.max;
          break;
        case AggKind::kCount:
          break;
      }
    }
    attrs.push_back(Attribute{aggs[a].out_name, DataType::kDouble});
    cols.push_back(MakeDoubleBat(std::move(v)));
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), std::move(cols), r.name());
}

Result<Relation> SortBy(const Relation& r,
                        const std::vector<std::string>& keys) {
  if (keys.empty()) return Status::Invalid("SortBy: no sort keys");
  RMA_ASSIGN_OR_RETURN(std::vector<int> idx, r.schema().IndicesOf(keys));
  std::vector<BatPtr> kb;
  for (int i : idx) kb.push_back(r.column(i));
  return r.TakeRows(bat_ops::ArgSort(kb));
}

Result<Relation> Distinct(const Relation& r) {
  const auto& cols = r.columns();
  const int64_t n = r.num_rows();
  const std::vector<uint64_t> h = bat_ops::HashKeys(cols);
  const bat_ops::KeyEquals eq(cols, cols);
  bat_ops::HashChains table(n, 0);
  std::vector<int64_t> keep;
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t hi = h[static_cast<size_t>(i)];
    bool dup = false;
    for (int64_t c = table.Find(hi); c >= 0 && !dup; c = table.Next(c)) {
      dup = eq(c, i);
    }
    if (!dup) {
      table.Insert(hi, i);
      keep.push_back(i);
    }
  }
  return r.TakeRows(keep);
}

Result<Relation> PivotCount(const Relation& r, const std::string& row_attr,
                            const std::string& col_attr) {
  RMA_ASSIGN_OR_RETURN(int ri, r.schema().IndexOf(row_attr));
  RMA_ASSIGN_OR_RETURN(int ci, r.schema().IndexOf(col_attr));
  const BatPtr& rows = r.column(ri);
  const BatPtr& cols = r.column(ci);
  // Distinct row / column values (sorted for deterministic output).
  const std::vector<int64_t> rperm = bat_ops::ArgSort({rows});
  std::vector<int64_t> rrep;  // first row index per distinct row value
  std::unordered_map<std::string, int64_t> row_id;
  for (int64_t p : rperm) {
    const std::string key = rows->GetString(p);
    if (row_id.emplace(key, static_cast<int64_t>(rrep.size())).second) {
      rrep.push_back(p);
    }
  }
  const std::vector<int64_t> cperm = bat_ops::ArgSort({cols});
  std::vector<std::string> col_names;
  std::unordered_map<std::string, int64_t> col_id;
  for (int64_t p : cperm) {
    const std::string key = cols->GetString(p);
    if (col_id.emplace(key, static_cast<int64_t>(col_names.size())).second) {
      col_names.push_back(key);
    }
  }
  const int64_t nr = static_cast<int64_t>(rrep.size());
  const int64_t nc = static_cast<int64_t>(col_names.size());
  std::vector<std::vector<double>> counts(
      static_cast<size_t>(nc), std::vector<double>(static_cast<size_t>(nr), 0.0));
  const int64_t n = r.num_rows();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t rid = row_id[rows->GetString(i)];
    const int64_t cid = col_id[cols->GetString(i)];
    counts[static_cast<size_t>(cid)][static_cast<size_t>(rid)] += 1.0;
  }
  std::vector<Attribute> attrs;
  std::vector<BatPtr> out_cols;
  attrs.push_back(Attribute{row_attr, rows->type()});
  out_cols.push_back(rows->Take(rrep));
  for (int64_t c = 0; c < nc; ++c) {
    attrs.push_back(Attribute{col_names[static_cast<size_t>(c)],
                              DataType::kDouble});
    out_cols.push_back(MakeDoubleBat(std::move(counts[static_cast<size_t>(c)])));
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), std::move(out_cols), r.name());
}

Result<Relation> UnionAll(const Relation& a, const Relation& b) {
  if (!(a.schema() == b.schema())) {
    return Status::Invalid("union: schemas differ");
  }
  std::vector<BatPtr> cols;
  for (int c = 0; c < a.num_columns(); ++c) {
    switch (a.schema().attribute(c).type) {
      case DataType::kInt64:
        cols.push_back(MakeInt64Bat(ConcatColumn<int64_t>(a, b, c)));
        break;
      case DataType::kDouble:
        cols.push_back(MakeDoubleBat(ConcatColumn<double>(a, b, c)));
        break;
      case DataType::kString:
        cols.push_back(MakeStringBat(ConcatColumn<std::string>(a, b, c)));
        break;
    }
  }
  return Relation::Make(a.schema(), std::move(cols), a.name());
}

Result<Relation> Limit(const Relation& r, int64_t offset, int64_t count) {
  if (offset < 0 || count < 0) return Status::Invalid("limit: negative bound");
  std::vector<int64_t> keep;
  const int64_t end = std::min(r.num_rows(), offset + count);
  for (int64_t i = offset; i < end; ++i) keep.push_back(i);
  return r.TakeRows(keep);
}

}  // namespace rma::rel
