#include "storage/paged_bat.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "util/string_util.h"

namespace rma {

template <typename T>
PagedBat<T>::PagedBat(std::shared_ptr<Pager> pager,
                      std::shared_ptr<BufferPool> pool, uint64_t first_page,
                      uint64_t n_pages, int64_t rows)
    : pager_(std::move(pager)),
      pool_(std::move(pool)),
      first_page_(first_page),
      n_pages_(n_pages),
      rows_(rows) {
  RMA_CHECK(pager_ != nullptr && pool_ != nullptr);
}

template <typename T>
PagedBat<T>::~PagedBat() {
  MutexLock lock(mu_);
  RMA_CHECK(pins_ == 0 && "PagedBat destroyed while pinned");
}

template <>
DataType PagedBat<double>::type() const {
  return DataType::kDouble;
}
template <>
DataType PagedBat<int64_t>::type() const {
  return DataType::kInt64;
}

template <typename T>
Status PagedBat<T>::PinData() const {
  MutexLock lock(mu_);
  if (pins_ == 0) {
    auto pinned = pool_->Pin(pager_, first_page_, n_pages_,
                             rows_ * static_cast<int64_t>(sizeof(T)));
    if (!pinned.ok()) return pinned.status();
    extent_ = std::move(*pinned);
  }
  ++pins_;
  return Status::OK();
}

template <typename T>
void PagedBat<T>::UnpinData() const {
  MutexLock lock(mu_);
  RMA_CHECK(pins_ > 0 && "UnpinData without a matching PinData");
  if (--pins_ == 0) extent_.Release();
}

template <typename T>
const double* PagedBat<T>::ContiguousDoubleData() const {
  if constexpr (std::is_same_v<T, double>) {
    MutexLock lock(mu_);
    return pins_ > 0 ? ValuesLocked() : nullptr;
  } else {
    return nullptr;
  }
}

template <typename T>
T PagedBat<T>::ValueAt(int64_t i) const {
  MutexLock lock(mu_);
  if (pins_ == 0) {
    auto pinned = pool_->Pin(pager_, first_page_, n_pages_,
                             rows_ * static_cast<int64_t>(sizeof(T)));
    if (!pinned.ok()) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr, "rma: paged column read failed: %s\n",
                     pinned.status().ToString().c_str());
      }
      return T{};
    }
    const T v = reinterpret_cast<const T*>(pinned->data())[i];
    // ~PinnedExtent unpins on scope exit.
    return v;
  }
  return ValuesLocked()[i];
}

template <>
std::string PagedBat<double>::GetString(int64_t i) const {
  return FormatDouble(ValueAt(i));
}
template <>
std::string PagedBat<int64_t>::GetString(int64_t i) const {
  return std::to_string(ValueAt(i));
}

template <typename T>
BatPtr PagedBat<T>::Take(const std::vector<int64_t>& indices) const {
  std::vector<T> out(indices.size());
  if (PinData().ok()) {
    {
      MutexLock lock(mu_);
      const T* v = ValuesLocked();
      for (size_t k = 0; k < indices.size(); ++k) {
        out[k] = v[indices[k]];
      }
    }
    UnpinData();
  } else {
    // Degraded path: per-element reads carry the warn-once behaviour.
    for (size_t k = 0; k < indices.size(); ++k) out[k] = ValueAt(indices[k]);
  }
  return std::make_shared<TypedBat<T>>(std::move(out));
}

template <typename T>
Result<BatPtr> PagedBat<T>::Materialize() const {
  RMA_RETURN_NOT_OK(PinData());
  std::vector<T> v(static_cast<size_t>(rows_));
  {
    MutexLock lock(mu_);
    std::copy_n(ValuesLocked(), rows_, v.data());
  }
  UnpinData();
  return BatPtr(std::make_shared<TypedBat<T>>(std::move(v)));
}

template <typename T>
int PagedBat<T>::Compare(int64_t i, const Bat& other, int64_t j) const {
  const T a = ValueAt(i);
  // Typed comparison whenever the other side exposes T exactly (another
  // paged column or a malloc TypedBat<T>), mirroring TypedBat<T>::Compare;
  // otherwise through the double accessor like every other representation.
  if (const auto* p = dynamic_cast<const PagedBat<T>*>(&other)) {
    const T b = p->ValueAt(j);
    if (a < b) return -1;
    if (b < a) return 1;
    return 0;
  }
  if (const auto* t = dynamic_cast<const TypedBat<T>*>(&other)) {
    const T b = t->at(j);
    if (a < b) return -1;
    if (b < a) return 1;
    return 0;
  }
  const double da = static_cast<double>(a);
  const double db = other.GetDouble(j);
  if (da < db) return -1;
  if (db < da) return 1;
  return 0;
}

template class PagedBat<double>;
template class PagedBat<int64_t>;

PinnedRelations::~PinnedRelations() {
  for (auto it = pinned_.rbegin(); it != pinned_.rend(); ++it) {
    (*it)->UnpinData();
  }
}

Status PinnedRelations::Pin(const Relation& r) {
  for (const BatPtr& col : r.columns()) {
    RMA_RETURN_NOT_OK(col->PinData());
    pinned_.push_back(col);
  }
  return Status::OK();
}

Result<Relation> MaterializeUnstable(const Relation& r) {
  bool all_stable = true;
  for (const BatPtr& col : r.columns()) {
    if (!col->StableData()) {
      all_stable = false;
      break;
    }
  }
  if (all_stable) return r;

  std::vector<BatPtr> cols;
  cols.reserve(r.columns().size());
  for (const BatPtr& col : r.columns()) {
    if (col->StableData()) {
      cols.push_back(col);
      continue;
    }
    BatPtr copy;
    if (const auto* d = dynamic_cast<const PagedDoubleBat*>(col.get())) {
      RMA_ASSIGN_OR_RETURN(copy, d->Materialize());
    } else if (const auto* i = dynamic_cast<const PagedInt64Bat*>(col.get())) {
      RMA_ASSIGN_OR_RETURN(copy, i->Materialize());
    } else {
      return Status::NotImplemented("no resident copy for this column kind");
    }
    cols.push_back(std::move(copy));
  }
  RMA_ASSIGN_OR_RETURN(Relation out,
                       Relation::Make(r.schema(), std::move(cols), r.name()));
  return out;
}

}  // namespace rma
