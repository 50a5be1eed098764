#ifndef RMA_STORAGE_BAT_H_
#define RMA_STORAGE_BAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/data_type.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/status.h"

namespace rma {

class Bat;
using BatPtr = std::shared_ptr<Bat>;

/// A binary association table: one column of a relation (MonetDB style).
///
/// The head (OID column) is dense and implicit — element `i` has OID `i` —
/// exactly like MonetDB's dense-headed BATs. Only the tail (the values) is
/// stored. Relational and matrix operations are expressed as sequences of
/// BAT-level operations (see bat_ops.h); `Take` is MonetDB's leftfetchjoin.
class Bat {
 public:
  virtual ~Bat() = default;

  virtual DataType type() const = 0;
  virtual int64_t size() const = 0;

  /// Boxed access for row-at-a-time layers (SQL evaluation, printing).
  virtual Value GetValue(int64_t i) const = 0;

  /// Numeric access; only valid for numeric BATs.
  virtual double GetDouble(int64_t i) const = 0;

  /// Rendering of a single value.
  virtual std::string GetString(int64_t i) const = 0;

  /// leftfetchjoin: new BAT with values at `indices`, in that order.
  virtual BatPtr Take(const std::vector<int64_t>& indices) const = 0;

  /// Three-way comparison of `this[i]` vs `other[j]` (same column type).
  virtual int Compare(int64_t i, const Bat& other, int64_t j) const = 0;

  /// Hash of element `i` (used for hash joins and key alignment).
  virtual uint64_t Hash(int64_t i) const = 0;

  /// Approximate heap footprint in bytes (drives the kAuto kernel policy).
  virtual int64_t ByteSize() const = 0;

  /// Raw pointer to `size()` contiguous doubles when this BAT stores its
  /// tail that way (dense double columns), else nullptr. The single
  /// capability probe behind every raw-data fast path: gathers, packs, SIMD
  /// kernels, and the row ranges sharded operations read in place.
  ///
  /// Out-of-core columns (storage/paged_bat.h) return non-null only while
  /// pinned; see PinData/StableData below.
  virtual const double* ContiguousDoubleData() const { return nullptr; }

  /// Residency bracket for out-of-core columns. PinData guarantees that
  /// until the matching UnpinData, ContiguousDoubleData() (if the column is
  /// dense double) returns a pointer that stays valid. Pins nest. Malloc-
  /// backed BATs are always resident, so the default is a no-op; the staged
  /// executor brackets every operator's arguments (core/dispatch.cc) and
  /// per-element virtual accessors pin transiently.
  virtual Status PinData() const { return Status::OK(); }
  virtual void UnpinData() const {}

  /// True when pointers obtained from ContiguousDoubleData() remain valid
  /// for the lifetime of this BAT (malloc-backed columns). Paged columns
  /// return false — their frame can move across evict/reload — so caches
  /// must not capture raw pointers into them.
  virtual bool StableData() const { return true; }
};

/// Concrete column of `T` in (one contiguous std::vector — the MonetDB tail
/// array; also the zero-copy handoff format for numeric data).
template <typename T>
class TypedBat final : public Bat {
 public:
  TypedBat() = default;
  explicit TypedBat(std::vector<T> data) : data_(std::move(data)) {}

  DataType type() const override;
  int64_t size() const override { return static_cast<int64_t>(data_.size()); }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& mutable_data() { return data_; }

  const T& at(int64_t i) const { return data_[static_cast<size_t>(i)]; }
  void Append(T v) { data_.push_back(std::move(v)); }
  void Reserve(int64_t n) { data_.reserve(static_cast<size_t>(n)); }

  Value GetValue(int64_t i) const override { return Value(at(i)); }
  double GetDouble(int64_t i) const override;
  std::string GetString(int64_t i) const override;

  BatPtr Take(const std::vector<int64_t>& indices) const override {
    std::vector<T> out;
    out.reserve(indices.size());
    for (int64_t idx : indices) out.push_back(at(idx));
    return std::make_shared<TypedBat<T>>(std::move(out));
  }

  int Compare(int64_t i, const Bat& other, int64_t j) const override {
    if (const auto* o = dynamic_cast<const TypedBat<T>*>(&other)) {
      if (at(i) < o->at(j)) return -1;
      if (o->at(j) < at(i)) return 1;
      return 0;
    }
    // `other` holds the same column type in a different representation
    // (sparse or paged column): compare through the virtual accessors.
    if constexpr (std::is_same_v<T, std::string>) {
      const std::string a = GetString(i);
      const std::string b = other.GetString(j);
      if (a < b) return -1;
      if (b < a) return 1;
      return 0;
    } else {
      const double a = GetDouble(i);
      const double b = other.GetDouble(j);
      if (a < b) return -1;
      if (b < a) return 1;
      return 0;
    }
  }

  uint64_t Hash(int64_t i) const override {
    return std::hash<T>{}(at(i));
  }

  int64_t ByteSize() const override;

  const double* ContiguousDoubleData() const override {
    if constexpr (std::is_same_v<T, double>) {
      return data_.data();
    } else {
      return nullptr;
    }
  }

 private:
  std::vector<T> data_;
};

using Int64Bat = TypedBat<int64_t>;
using DoubleBat = TypedBat<double>;
using StringBat = TypedBat<std::string>;

/// Convenience constructors.
BatPtr MakeInt64Bat(std::vector<int64_t> v);
BatPtr MakeDoubleBat(std::vector<double> v);
BatPtr MakeStringBat(std::vector<std::string> v);

/// A BAT filled with `n` copies of `v`.
BatPtr MakeConstantBat(const Value& v, int64_t n);

/// Extracts a numeric BAT into a dense double vector (copy).
std::vector<double> ToDoubleVector(const Bat& bat);

/// Extracts `bat[perm[i]]` into a dense double vector (gather + cast).
std::vector<double> GatherDoubleVector(const Bat& bat,
                                       const std::vector<int64_t>& perm);

}  // namespace rma

#endif  // RMA_STORAGE_BAT_H_
