#include "storage/relation.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

namespace rma {

uint64_t Relation::NextIdentity() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Result<Relation> Relation::Make(Schema schema, std::vector<BatPtr> columns,
                                std::string name) {
  if (static_cast<size_t>(schema.num_attributes()) != columns.size()) {
    return Status::Invalid("schema/column count mismatch");
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) return Status::Invalid("null column");
    if (columns[i]->size() != columns[0]->size()) {
      return Status::Invalid("columns differ in length");
    }
    const DataType ct = columns[i]->type();
    const DataType st = schema.attribute(static_cast<int>(i)).type;
    if (ct != st) {
      return Status::TypeError("column '" +
                               schema.attribute(static_cast<int>(i)).name +
                               "' type mismatch");
    }
  }
  return Relation(std::move(schema), std::move(columns), std::move(name));
}

Result<BatPtr> Relation::ColumnByName(const std::string& name) const {
  RMA_ASSIGN_OR_RETURN(int idx, schema_.IndexOf(name));
  return columns_[static_cast<size_t>(idx)];
}

Relation Relation::TakeRows(const std::vector<int64_t>& indices) const {
  std::vector<BatPtr> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) cols.push_back(c->Take(indices));
  return Relation(schema_, std::move(cols), name_);
}

Relation Relation::SelectColumns(const std::vector<int>& col_indices) const {
  std::vector<BatPtr> cols;
  cols.reserve(col_indices.size());
  for (int i : col_indices) cols.push_back(columns_[static_cast<size_t>(i)]);
  return Relation(schema_.Select(col_indices), std::move(cols), name_);
}

Result<Relation> Relation::RenameColumn(int i, const std::string& new_name) const {
  std::vector<Attribute> attrs = schema_.attributes();
  attrs[static_cast<size_t>(i)].name = new_name;
  RMA_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  return Relation(std::move(schema), columns_, name_);
}

int64_t Relation::ByteSize() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c->ByteSize();
  return bytes;
}

std::string Relation::ToString(int64_t max_rows) const {
  const int ncol = num_columns();
  const int64_t nrow = num_rows();
  const int64_t shown = std::min(nrow, max_rows);
  std::vector<std::vector<std::string>> cells(static_cast<size_t>(shown + 1));
  cells[0].reserve(static_cast<size_t>(ncol));
  for (int c = 0; c < ncol; ++c) cells[0].push_back(schema_.attribute(c).name);
  for (int64_t r = 0; r < shown; ++r) {
    auto& row = cells[static_cast<size_t>(r + 1)];
    row.reserve(static_cast<size_t>(ncol));
    for (int c = 0; c < ncol; ++c) {
      row.push_back(columns_[static_cast<size_t>(c)]->GetString(r));
    }
  }
  std::vector<size_t> width(static_cast<size_t>(ncol), 0);
  for (const auto& row : cells) {
    for (int c = 0; c < ncol; ++c) {
      width[static_cast<size_t>(c)] =
          std::max(width[static_cast<size_t>(c)], row[static_cast<size_t>(c)].size());
    }
  }
  std::ostringstream out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (int c = 0; c < ncol; ++c) {
      const std::string& s = cells[r][static_cast<size_t>(c)];
      out << s << std::string(width[static_cast<size_t>(c)] - s.size(), ' ');
      if (c + 1 < ncol) out << "  ";
    }
    out << "\n";
    if (r == 0) {
      size_t total = 0;
      for (int c = 0; c < ncol; ++c) total += width[static_cast<size_t>(c)] + 2;
      out << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
    }
  }
  if (shown < nrow) out << "... (" << nrow << " rows)\n";
  return out.str();
}

Status RelationBuilder::AppendRow(std::vector<Value> row) {
  if (static_cast<int>(row.size()) != schema_.num_attributes()) {
    return Status::Invalid("row arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const DataType expect = schema_.attribute(static_cast<int>(i)).type;
    DataType got = ValueType(row[i]);
    // Allow int literals into double columns (common in tests).
    if (expect == DataType::kDouble && got == DataType::kInt64) {
      row[i] = Value(static_cast<double>(std::get<int64_t>(row[i])));
      got = DataType::kDouble;
    }
    if (got != expect) {
      return Status::TypeError("value type mismatch in column " +
                               schema_.attribute(static_cast<int>(i)).name);
    }
    cells_[i].push_back(std::move(row[i]));
  }
  return Status::OK();
}

Result<Relation> RelationBuilder::Finish(std::string name) {
  std::vector<BatPtr> cols;
  cols.reserve(cells_.size());
  for (int c = 0; c < schema_.num_attributes(); ++c) {
    const auto& vals = cells_[static_cast<size_t>(c)];
    switch (schema_.attribute(c).type) {
      case DataType::kInt64: {
        std::vector<int64_t> v;
        v.reserve(vals.size());
        for (const auto& x : vals) v.push_back(std::get<int64_t>(x));
        cols.push_back(MakeInt64Bat(std::move(v)));
        break;
      }
      case DataType::kDouble: {
        std::vector<double> v;
        v.reserve(vals.size());
        for (const auto& x : vals) v.push_back(std::get<double>(x));
        cols.push_back(MakeDoubleBat(std::move(v)));
        break;
      }
      case DataType::kString: {
        std::vector<std::string> v;
        v.reserve(vals.size());
        for (const auto& x : vals) v.push_back(std::get<std::string>(x));
        cols.push_back(MakeStringBat(std::move(v)));
        break;
      }
    }
  }
  return Relation::Make(std::move(schema_), std::move(cols), std::move(name));
}

namespace {

bool ValuesClose(const Value& a, const Value& b, double eps) {
  const DataType ta = ValueType(a);
  const DataType tb = ValueType(b);
  if (ta == DataType::kString || tb == DataType::kString) {
    return ValueEquals(a, b);
  }
  return std::fabs(ValueToDouble(a) - ValueToDouble(b)) <= eps;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

bool RowsClose(const Relation& a, int64_t i, const Relation& b, int64_t j,
               double eps) {
  for (int c = 0; c < a.num_columns(); ++c) {
    if (!ValuesClose(a.Get(i, c), b.Get(j, c), eps)) return false;
  }
  return true;
}

}  // namespace

bool RelationsEqualOrdered(const Relation& a, const Relation& b, double eps) {
  if (!(a.schema() == b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (!RowsClose(a, r, b, r, eps)) return false;
  }
  return true;
}

bool RelationsEqualUnordered(const Relation& a, const Relation& b, double eps) {
  if (!(a.schema() == b.schema())) return false;
  if (a.num_rows() != b.num_rows()) return false;
  // Match rows greedily (quadratic; fine for test-sized relations).
  std::vector<int64_t> unmatched = Iota(b.num_rows());
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    bool matched = false;
    for (size_t k = 0; k < unmatched.size(); ++k) {
      if (RowsClose(a, r, b, unmatched[k], eps)) {
        unmatched.erase(unmatched.begin() + static_cast<long>(k));
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace rma
