#ifndef RMA_STORAGE_RELATION_H_
#define RMA_STORAGE_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/bat.h"
#include "storage/schema.h"
#include "util/result.h"

namespace rma {

/// A relation: a schema plus one BAT per attribute (column-store layout).
///
/// Relations are value types holding shared column pointers; copying a
/// Relation never copies data. The optional `name` identifies the relation in
/// catalogs and appears as the row origin of (1,1)-shaped operations
/// (det/rnk, cf. Table 3 of the paper).
class Relation {
 public:
  Relation() = default;

  /// Validates column count/lengths against the schema.
  static Result<Relation> Make(Schema schema, std::vector<BatPtr> columns,
                               std::string name = "r");

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Stable identity token: assigned once per constructed relation from a
  /// process-wide monotone counter and shared by copies (copies share the
  /// immutable column data, so they denote the same contents). Derived
  /// relations (TakeRows, SelectColumns, RenameColumn, operation results)
  /// get fresh tokens. Because tokens are never reused, they are safe cache
  /// keys: a token can never silently come to denote different data, unlike
  /// raw column pointers whose addresses can recur after deallocation.
  uint64_t identity() const { return identity_; }

  int num_columns() const { return schema_.num_attributes(); }
  int64_t num_rows() const { return columns_.empty() ? 0 : columns_[0]->size(); }

  const BatPtr& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  const std::vector<BatPtr>& columns() const { return columns_; }

  /// Column position by (exact) attribute name.
  Result<int> ColumnIndex(const std::string& name) const {
    return schema_.IndexOf(name);
  }

  /// Column by name, or KeyError.
  Result<BatPtr> ColumnByName(const std::string& name) const;

  /// Boxed cell access (tests, printing, SQL).
  Value Get(int64_t row, int col) const {
    return columns_[static_cast<size_t>(col)]->GetValue(row);
  }

  /// New relation with rows at `indices`, in that order (gather all columns).
  Relation TakeRows(const std::vector<int64_t>& indices) const;

  /// New relation with only the columns at `col_indices`.
  Relation SelectColumns(const std::vector<int>& col_indices) const;

  /// New relation with attribute `i` renamed.
  Result<Relation> RenameColumn(int i, const std::string& new_name) const;

  /// Total bytes across columns (drives kernel-policy decisions).
  int64_t ByteSize() const;

  /// Aligned, human-readable table rendering (up to `max_rows` rows).
  std::string ToString(int64_t max_rows = 24) const;

 private:
  Relation(Schema schema, std::vector<BatPtr> columns, std::string name)
      : schema_(std::move(schema)),
        columns_(std::move(columns)),
        name_(std::move(name)) {}

  static uint64_t NextIdentity();

  Schema schema_;
  std::vector<BatPtr> columns_;
  std::string name_ = "r";
  uint64_t identity_ = NextIdentity();
};

/// Row-at-a-time construction helper used by tests and generators.
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema) : schema_(std::move(schema)) {
    cells_.resize(static_cast<size_t>(schema_.num_attributes()));
  }

  /// Appends one row; the value count and types must match the schema.
  Status AppendRow(std::vector<Value> row);

  /// Finishes and produces the relation.
  Result<Relation> Finish(std::string name = "r");

 private:
  Schema schema_;
  std::vector<std::vector<Value>> cells_;  // per column
};

/// Equality of contents: same schema, same multiset of rows (order
/// insensitive — relations are sets of tuples). Doubles compare within eps.
bool RelationsEqualUnordered(const Relation& a, const Relation& b,
                             double eps = 1e-9);

/// Equality of contents in row order (used when order is part of the check).
bool RelationsEqualOrdered(const Relation& a, const Relation& b,
                           double eps = 1e-9);

}  // namespace rma

#endif  // RMA_STORAGE_RELATION_H_
