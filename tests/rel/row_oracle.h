#ifndef RMA_TESTS_REL_ROW_ORACLE_H_
#define RMA_TESTS_REL_ROW_ORACLE_H_

// Row-at-a-time oracles for the column-at-a-time relational paths: the
// per-row sorts, hash join, group-by, duplicate elimination, key check, key
// alignment and expression evaluator that the column versions replaced,
// kept here so the differential tests can prove the new paths
// bit-identical to them, row order included. One deliberate change from
// the original evaluator: int64 `+ - *` and unary `-` wrap through
// uint64_t and `x % -1` is 0, which the original computed with signed
// overflow and a trapping INT64_MIN % -1.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rel/expression.h"
#include "rel/operators.h"
#include "storage/relation.h"
#include "util/string_util.h"

namespace rma::oracle {

// --- row hashing ------------------------------------------------------------

inline uint64_t HashRow(const std::vector<BatPtr>& keys, int64_t i) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const auto& k : keys) {
    const uint64_t v = k->Hash(i);
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

inline bool EqualRows(const std::vector<BatPtr>& a, int64_t i,
                      const std::vector<BatPtr>& b, int64_t j) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c]->Compare(i, *b[c], j) != 0) return false;
  }
  return true;
}

using RowIndex = std::unordered_map<uint64_t, std::vector<int64_t>>;

inline RowIndex BuildRowIndex(const std::vector<BatPtr>& keys) {
  RowIndex index;
  if (keys.empty()) return index;
  const int64_t n = keys[0]->size();
  index.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) index[HashRow(keys, i)].push_back(i);
  return index;
}

// --- ordering ---------------------------------------------------------------

inline int CompareRows(const std::vector<BatPtr>& keys, int64_t i, int64_t j) {
  for (const auto& k : keys) {
    const int c = k->Compare(i, *k, j);
    if (c != 0) return c;
  }
  return 0;
}

/// bat_ops::ArgSort before the refine sort: std::stable_sort with the
/// single-key Int64Bat and DoubleBat fast paths, else one virtual
/// Bat::Compare per key and comparison.
inline std::vector<int64_t> ArgSort(const std::vector<BatPtr>& keys) {
  const int64_t n = keys[0]->size();
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  if (keys.size() == 1 && keys[0]->type() == DataType::kInt64) {
    auto* b = dynamic_cast<const Int64Bat*>(keys[0].get());
    if (b != nullptr) {
      const auto& d = b->data();
      std::stable_sort(perm.begin(), perm.end(),
                       [&d](int64_t a, int64_t c) { return d[a] < d[c]; });
      return perm;
    }
  }
  if (keys.size() == 1 && keys[0]->type() == DataType::kDouble) {
    auto* b = dynamic_cast<const DoubleBat*>(keys[0].get());
    if (b != nullptr) {
      const auto& d = b->data();
      std::stable_sort(perm.begin(), perm.end(),
                       [&d](int64_t a, int64_t c) { return d[a] < d[c]; });
      return perm;
    }
  }
  std::stable_sort(perm.begin(), perm.end(), [&keys](int64_t a, int64_t b) {
    return CompareRows(keys, a, b) < 0;
  });
  return perm;
}

/// ArgSort plus the uniqueness pass over adjacent sorted rows.
inline std::vector<int64_t> ArgSortUnique(const std::vector<BatPtr>& keys,
                                          bool* unique) {
  std::vector<int64_t> perm = ArgSort(keys);
  *unique = true;
  for (size_t i = 1; i < perm.size(); ++i) {
    if (CompareRows(keys, perm[i - 1], perm[i]) == 0) {
      *unique = false;
      break;
    }
  }
  return perm;
}

/// SQL ORDER BY's own comparator loop before it shared ArgSort: one
/// virtual Bat::Compare per key and comparison, reversed for DESC keys.
inline std::vector<int64_t> OrderBy(const std::vector<BatPtr>& keys,
                                    const std::vector<bool>& asc) {
  std::vector<int64_t> perm(static_cast<size_t>(keys[0]->size()));
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const Bat& col = *keys[k];
      const int c = col.Compare(a, col, b);
      if (c != 0) return asc[k] ? c < 0 : c > 0;
    }
    return false;
  });
  return perm;
}

// --- key check and alignment ------------------------------------------------

inline bool IsKey(const std::vector<BatPtr>& keys) {
  if (keys.empty()) return true;
  const int64_t n = keys[0]->size();
  size_t cap = 16;
  while (cap < static_cast<size_t>(n) * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<int64_t> slot(cap, -1);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(keys, i);
    hashes[static_cast<size_t>(i)] = h;
    size_t pos = static_cast<size_t>(h) & mask;
    while (slot[pos] >= 0) {
      if (hashes[static_cast<size_t>(slot[pos])] == h &&
          EqualRows(keys, slot[pos], keys, i)) {
        return false;
      }
      pos = (pos + 1) & mask;
    }
    slot[pos] = i;
  }
  return true;
}

inline Result<std::vector<int64_t>> AlignByKey(
    const std::vector<BatPtr>& build, const std::vector<BatPtr>& probe) {
  const int64_t n = probe[0]->size();
  if (build[0]->size() != n) {
    return Status::Invalid("AlignByKey: relations differ in cardinality");
  }
  size_t cap = 16;
  while (cap < static_cast<size_t>(n) * 2) cap <<= 1;
  const size_t mask = cap - 1;
  std::vector<int64_t> slot(cap, -1);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(build, i);
    hashes[static_cast<size_t>(i)] = h;
    size_t pos = static_cast<size_t>(h) & mask;
    while (slot[pos] >= 0) {
      if (hashes[static_cast<size_t>(slot[pos])] == h &&
          EqualRows(build, slot[pos], build, i)) {
        return Status::KeyError("AlignByKey: build keys are not unique");
      }
      pos = (pos + 1) & mask;
    }
    slot[pos] = i;
  }
  std::vector<int64_t> out(static_cast<size_t>(n), -1);
  std::vector<uint8_t> consumed(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = HashRow(probe, i);
    size_t pos = static_cast<size_t>(h) & mask;
    int64_t match = -1;
    while (slot[pos] >= 0) {
      const int64_t cand = slot[pos];
      if (hashes[static_cast<size_t>(cand)] == h &&
          EqualRows(build, cand, probe, i)) {
        match = cand;
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (match < 0) {
      return Status::KeyError("AlignByKey: probe row has no matching key");
    }
    if (consumed[static_cast<size_t>(match)] != 0) {
      return Status::KeyError("AlignByKey: probe keys are not unique");
    }
    consumed[static_cast<size_t>(match)] = 1;
    out[static_cast<size_t>(i)] = match;
  }
  return out;
}

// --- hash join --------------------------------------------------------------

inline Result<Schema> JoinedSchema(const Schema& l, const Schema& rs) {
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

inline Result<Relation> HashJoinAt(const Relation& l, const Relation& r,
                                   const std::vector<int>& lki,
                                   const std::vector<int>& rki) {
  std::vector<BatPtr> lkeys;
  std::vector<BatPtr> rkeys;
  for (int i : lki) lkeys.push_back(l.column(i));
  for (int i : rki) rkeys.push_back(r.column(i));
  for (size_t i = 0; i < lkeys.size(); ++i) {
    const DataType lt = lkeys[i]->type();
    const DataType rt = rkeys[i]->type();
    if (lt != rt && !(IsNumeric(lt) && IsNumeric(rt))) {
      return Status::TypeError("join: key type mismatch");
    }
    if (lt != rt) {
      lkeys[i] = MakeDoubleBat(ToDoubleVector(*lkeys[i]));
      rkeys[i] = MakeDoubleBat(ToDoubleVector(*rkeys[i]));
    }
  }
  const bool build_left = l.num_rows() <= r.num_rows();
  const auto& bkeys = build_left ? lkeys : rkeys;
  const auto& pkeys = build_left ? rkeys : lkeys;
  RowIndex index = BuildRowIndex(bkeys);
  std::vector<int64_t> li;
  std::vector<int64_t> ri;
  const int64_t pn = build_left ? r.num_rows() : l.num_rows();
  for (int64_t i = 0; i < pn; ++i) {
    auto it = index.find(HashRow(pkeys, i));
    if (it == index.end()) continue;
    for (int64_t cand : it->second) {
      if (!EqualRows(bkeys, cand, pkeys, i)) continue;
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
  std::vector<BatPtr> cols;
  for (const auto& c : l.columns()) cols.push_back(c->Take(li));
  for (const auto& c : r.columns()) cols.push_back(c->Take(ri));
  return Relation::Make(std::move(schema), std::move(cols), l.name());
}

// --- group-by and distinct --------------------------------------------------

inline Result<Relation> Aggregate(const Relation& r,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<rel::AggSpec>& aggs) {
  RMA_ASSIGN_OR_RETURN(std::vector<int> gidx, r.schema().IndicesOf(group_by));
  std::vector<std::string> kinds;
  std::vector<int> aidx;
  for (const auto& a : aggs) {
    kinds.push_back(ToUpper(a.func));
    if (a.arg.empty()) {
      aidx.push_back(-1);
    } else {
      RMA_ASSIGN_OR_RETURN(int idx, r.schema().IndexOf(a.arg));
      aidx.push_back(idx);
    }
  }
  std::vector<BatPtr> gkeys;
  for (int i : gidx) gkeys.push_back(r.column(i));
  const int64_t n = r.num_rows();
  std::vector<int64_t> group_of(static_cast<size_t>(n), 0);
  std::vector<int64_t> rep_rows;
  if (gkeys.empty()) {
    rep_rows.push_back(0);
  } else {
    std::unordered_map<uint64_t, std::vector<int64_t>> seen;
    for (int64_t i = 0; i < n; ++i) {
      auto& cands = seen[HashRow(gkeys, i)];
      int64_t gid = -1;
      for (int64_t cand : cands) {
        if (EqualRows(gkeys, rep_rows[static_cast<size_t>(cand)], gkeys, i)) {
          gid = cand;
          break;
        }
      }
      if (gid < 0) {
        gid = static_cast<int64_t>(rep_rows.size());
        rep_rows.push_back(i);
        cands.push_back(gid);
      }
      group_of[static_cast<size_t>(i)] = gid;
    }
  }
  struct State {
    double sum = 0.0;
    int64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  const size_t groups = rep_rows.size();
  std::vector<std::vector<State>> state(aggs.size(),
                                        std::vector<State>(groups));
  for (int64_t i = 0; i < n; ++i) {
    const size_t g = static_cast<size_t>(group_of[static_cast<size_t>(i)]);
    for (size_t a = 0; a < aggs.size(); ++a) {
      State& st = state[a][g];
      st.count += 1;
      if (aidx[a] >= 0) {
        const double v = r.column(aidx[a])->GetDouble(i);
        st.sum += v;
        st.min = std::min(st.min, v);
        st.max = std::max(st.max, v);
      }
    }
  }
  std::vector<Attribute> attrs;
  std::vector<BatPtr> cols;
  for (size_t k = 0; k < gkeys.size(); ++k) {
    attrs.push_back(Attribute{group_by[k], gkeys[k]->type()});
    cols.push_back(gkeys[k]->Take(rep_rows));
  }
  const bool empty_global = gkeys.empty() && n == 0;
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (kinds[a] == "COUNT") {
      std::vector<int64_t> v(groups);
      for (size_t g = 0; g < groups; ++g) {
        v[g] = empty_global ? 0 : state[a][g].count;
      }
      attrs.push_back(Attribute{aggs[a].out_name, DataType::kInt64});
      cols.push_back(MakeInt64Bat(std::move(v)));
      continue;
    }
    std::vector<double> v(groups, 0.0);
    for (size_t g = 0; g < groups; ++g) {
      const State& st = state[a][g];
      if (kinds[a] == "SUM") v[g] = st.sum;
      if (kinds[a] == "AVG") v[g] = st.count == 0 ? 0.0 : st.sum / st.count;
      if (kinds[a] == "MIN") v[g] = st.min;
      if (kinds[a] == "MAX") v[g] = st.max;
    }
    attrs.push_back(Attribute{aggs[a].out_name, DataType::kDouble});
    cols.push_back(MakeDoubleBat(std::move(v)));
  }
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation::Make(std::move(schema), std::move(cols), r.name());
}

inline Relation Distinct(const Relation& r) {
  const auto& cols = r.columns();
  RowIndex seen;
  std::vector<int64_t> keep;
  const int64_t n = r.num_rows();
  for (int64_t i = 0; i < n; ++i) {
    auto& cands = seen[HashRow(cols, i)];
    bool dup = false;
    for (int64_t cand : cands) {
      if (EqualRows(cols, cand, cols, i)) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      cands.push_back(i);
      keep.push_back(i);
    }
  }
  return r.TakeRows(keep);
}

// --- expressions ------------------------------------------------------------

/// An expression bound for row-at-a-time evaluation; each node's type is
/// the one rel::Bind infers for it.
struct RowExpr {
  rel::Expr::Kind kind = rel::Expr::Kind::kLiteral;
  DataType type = DataType::kInt64;
  int column_index = -1;
  Value literal = Value(int64_t{0});
  std::string op;
  std::vector<RowExpr> children;
};

inline Result<RowExpr> BindRow(const rel::ExprPtr& e, const Schema& schema) {
  RMA_ASSIGN_OR_RETURN(rel::BoundExpr bound, rel::Bind(e, schema));
  RowExpr out;
  out.kind = e->kind();
  out.type = bound.type();
  out.column_index = bound.column_index();
  out.literal = e->value();
  out.op = e->kind() == rel::Expr::Kind::kCall ? e->name() : ToUpper(e->name());
  for (const auto& c : e->children()) {
    RMA_ASSIGN_OR_RETURN(RowExpr child, BindRow(c, schema));
    out.children.push_back(std::move(child));
  }
  return out;
}

inline Value Eval(const RowExpr& e, const Relation& r, int64_t row);

inline bool EvalBool(const RowExpr& e, const Relation& r, int64_t row) {
  const Value v = Eval(e, r, row);
  if (ValueType(v) == DataType::kString) {
    return !std::get<std::string>(v).empty();
  }
  return ValueToDouble(v) != 0.0;
}

inline double EvalDouble(const RowExpr& e, const Relation& r, int64_t row) {
  return ValueToDouble(Eval(e, r, row));
}

inline int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

inline Value Eval(const RowExpr& e, const Relation& r, int64_t row) {
  using Kind = rel::Expr::Kind;
  const std::string& op = e.op;
  switch (e.kind) {
    case Kind::kColumn:
      return r.Get(row, e.column_index);
    case Kind::kLiteral:
      return e.literal;
    case Kind::kUnary: {
      if (op == "-") {
        const Value v = Eval(e.children[0], r, row);
        if (ValueType(v) == DataType::kInt64) {
          return Value(Wrap(0 - static_cast<uint64_t>(std::get<int64_t>(v))));
        }
        return Value(-ValueToDouble(v));
      }
      return Value(static_cast<int64_t>(!EvalBool(e.children[0], r, row)));
    }
    case Kind::kBinary: {
      if (op == "AND") {
        return Value(static_cast<int64_t>(EvalBool(e.children[0], r, row) &&
                                          EvalBool(e.children[1], r, row)));
      }
      if (op == "OR") {
        return Value(static_cast<int64_t>(EvalBool(e.children[0], r, row) ||
                                          EvalBool(e.children[1], r, row)));
      }
      const Value lv = Eval(e.children[0], r, row);
      const Value rv = Eval(e.children[1], r, row);
      if (op == "=" || op == "==") {
        return Value(static_cast<int64_t>(ValueEquals(lv, rv)));
      }
      if (op == "<>" || op == "!=") {
        return Value(static_cast<int64_t>(!ValueEquals(lv, rv)));
      }
      if (op == "<") return Value(static_cast<int64_t>(ValueLess(lv, rv)));
      if (op == ">") return Value(static_cast<int64_t>(ValueLess(rv, lv)));
      if (op == "<=") return Value(static_cast<int64_t>(!ValueLess(rv, lv)));
      if (op == ">=") return Value(static_cast<int64_t>(!ValueLess(lv, rv)));
      if (e.type == DataType::kInt64) {
        const uint64_t a = static_cast<uint64_t>(std::get<int64_t>(lv));
        const uint64_t b = static_cast<uint64_t>(std::get<int64_t>(rv));
        if (op == "+") return Value(Wrap(a + b));
        if (op == "-") return Value(Wrap(a - b));
        if (op == "*") return Value(Wrap(a * b));
        const int64_t x = std::get<int64_t>(lv);
        const int64_t y = std::get<int64_t>(rv);
        if (op == "%") return Value(y == 0 || y == -1 ? int64_t{0} : x % y);
      }
      const double a = ValueToDouble(lv);
      const double b = ValueToDouble(rv);
      if (op == "+") return Value(a + b);
      if (op == "-") return Value(a - b);
      if (op == "*") return Value(a * b);
      if (op == "/") return Value(b == 0.0 ? 0.0 : a / b);
      if (op == "%") return Value(b == 0.0 ? 0.0 : std::fmod(a, b));
      return Value(int64_t{0});
    }
    case Kind::kCall: {
      const double a = EvalDouble(e.children[0], r, row);
      if (op == "SQRT") return Value(std::sqrt(a));
      if (op == "ABS") return Value(std::fabs(a));
      if (op == "LN") return Value(std::log(a));
      if (op == "EXP") return Value(std::exp(a));
      if (op == "POW") {
        return Value(std::pow(a, EvalDouble(e.children[1], r, row)));
      }
      return Value(0.0);
    }
  }
  return Value(int64_t{0});
}

}  // namespace rma::oracle

#endif  // RMA_TESTS_REL_ROW_ORACLE_H_
