#include <numeric>
#include <utility>

#include "core/constructors.h"
#include "core/exec_internal.h"

namespace rma::internal {

namespace {

constexpr const char* kContextAttr = kContextAttrName;

std::string OpColumnName(const OpInfo& info) { return info.name; }

/// Assembles the final relation: `lead` columns (row origins) followed by
/// the base-result columns named `result_names`.
Result<Relation> Merge(std::vector<Attribute> lead_attrs,
                       std::vector<BatPtr> lead_cols,
                       const std::vector<std::string>& result_names,
                       std::vector<BatPtr> result_cols,
                       const std::string& rel_name) {
  RMA_CHECK(result_names.size() == result_cols.size());
  std::vector<Attribute> attrs = std::move(lead_attrs);
  for (const auto& n : result_names) {
    attrs.push_back(Attribute{n, DataType::kDouble});
  }
  auto schema = Schema::Make(std::move(attrs));
  if (!schema.ok()) {
    return Status::Invalid(
        "result attribute names collide (" + schema.status().message() +
        "); rename attributes of the arguments to disambiguate");
  }
  std::vector<BatPtr> cols = std::move(lead_cols);
  for (auto& c : result_cols) cols.push_back(std::move(c));
  return Relation::Make(std::move(*schema), std::move(cols), rel_name);
}

/// Row indices of `p` in key order. Only tra, usv and opd cast a column, and
/// none of them may skip the sort (neither row_order_invariant nor
/// relative_align_ok), so an empty perm means the rows already were sorted.
std::vector<int64_t> SortedRows(const PreparedArg& p) {
  if (!p.identity()) return p.perm;
  std::vector<int64_t> rows(static_cast<size_t>(p.rows));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

/// Result column names for the base result, per Table 2/3 (column origin).
Result<std::vector<std::string>> ColumnOriginNames(const OpInfo& info,
                                                   const PreparedArg& r,
                                                   const PreparedArg* s) {
  switch (info.shape.cols) {
    case Extent::kC1:
    case Extent::kCStar:
      return SchemaCast(r.rel.schema(), r.split.app_idx);
    case Extent::kC2:
      RMA_CHECK(s != nullptr);
      return SchemaCast(s->rel.schema(), s->split.app_idx);
    case Extent::kR1:  // ▽U of r (|U| = 1)
      return ColumnCast(r.rel, r.split.order_idx[0], SortedRows(r));
    case Extent::kR2:  // ▽V of s (|V| = 1)
      RMA_CHECK(s != nullptr);
      return ColumnCast(s->rel, s->split.order_idx[0], SortedRows(*s));
    case Extent::kOne:
      return std::vector<std::string>{OpColumnName(info)};
    case Extent::kRStar:
      break;
  }
  return Status::Invalid("unsupported column extent");
}

}  // namespace

std::vector<BatPtr> ColumnsToBats(kernel::Columns cols) {
  std::vector<BatPtr> out;
  out.reserve(cols.size());
  for (auto& c : cols) out.push_back(MakeDoubleBat(std::move(c)));
  return out;
}

Result<Relation> AssembleUnary(const OpInfo& info, const PreparedArg& p,
                               std::vector<BatPtr> base) {
  const Relation& r = p.rel;
  if (info.shape.rows == Extent::kOne) {
    // det/rnk: γ(r ◦ OP(µ(r)), (C, op)).
    std::vector<Attribute> lead = {{kContextAttr, DataType::kString}};
    std::vector<BatPtr> lead_cols = {MakeStringBat({r.name()})};
    return Merge(std::move(lead), std::move(lead_cols),
                 {OpColumnName(info)}, std::move(base), r.name());
  }
  RMA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ColumnOriginNames(info, p, nullptr));
  if (info.shape.rows == Extent::kR1) {
    // Row origin: the order part of r, in sorted order.
    std::vector<Attribute> lead;
    std::vector<BatPtr> lead_cols;
    for (size_t i = 0; i < p.split.order_idx.size(); ++i) {
      lead.push_back(r.schema().attribute(p.split.order_idx[i]));
      lead_cols.push_back(p.OrderColumn(i));
    }
    return Merge(std::move(lead), std::move(lead_cols), names,
                 std::move(base), r.name());
  }
  // (c1,*): row origin is ∆Ū — attribute names of the application schema
  // as values of the new C attribute.
  std::vector<Attribute> lead = {{kContextAttr, DataType::kString}};
  std::vector<BatPtr> lead_cols = {
      MakeStringBat(SchemaCast(r.schema(), p.split.app_idx))};
  return Merge(std::move(lead), std::move(lead_cols), names,
               std::move(base), r.name());
}

Result<Relation> AssembleBinary(const OpInfo& info, const PreparedArg& pr,
                                const PreparedArg& ps,
                                std::vector<BatPtr> base) {
  const Relation& r = pr.rel;
  const Relation& s = ps.rel;
  RMA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       ColumnOriginNames(info, pr, &ps));
  std::vector<Attribute> lead;
  std::vector<BatPtr> lead_cols;
  switch (info.shape.rows) {
    case Extent::kR1:
      for (size_t i = 0; i < pr.split.order_idx.size(); ++i) {
        lead.push_back(r.schema().attribute(pr.split.order_idx[i]));
        lead_cols.push_back(pr.OrderColumn(i));
      }
      break;
    case Extent::kRStar:
      // add/sub/emu: γ(µU(r) ∥ µV(s) ∥ OP(...), U ◦ V ◦ Ū).
      for (size_t i = 0; i < pr.split.order_idx.size(); ++i) {
        lead.push_back(r.schema().attribute(pr.split.order_idx[i]));
        lead_cols.push_back(pr.OrderColumn(i));
      }
      for (size_t i = 0; i < ps.split.order_idx.size(); ++i) {
        lead.push_back(s.schema().attribute(ps.split.order_idx[i]));
        lead_cols.push_back(ps.OrderColumn(i));
      }
      break;
    case Extent::kC1:
      lead.push_back(Attribute{kContextAttr, DataType::kString});
      lead_cols.push_back(
          MakeStringBat(SchemaCast(r.schema(), pr.split.app_idx)));
      break;
    default:
      return Status::Invalid("unsupported row extent for binary op");
  }
  return Merge(std::move(lead), std::move(lead_cols), names,
               std::move(base), r.name());
}

}  // namespace rma::internal
