#include "storage/buffer_pool.h"

#include <cstring>

#include "util/logging.h"

namespace rma {

struct BufferPool::Frame {
  std::shared_ptr<Pager> pager;
  uint64_t first_page = 0;
  uint64_t n_pages = 0;
  int64_t bytes = 0;        // logical payload bytes
  int64_t frame_bytes = 0;  // allocated bytes (whole pages)
  std::unique_ptr<char[]> data;
  int pins = 0;
  bool dirty = false;
  std::list<Frame*>::iterator lru_it;
  bool in_lru = false;
};

PinnedExtent::~PinnedExtent() { Release(); }

PinnedExtent::PinnedExtent(PinnedExtent&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = nullptr;
}

PinnedExtent& PinnedExtent::operator=(PinnedExtent&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

const char* PinnedExtent::data() const {
  return frame_ == nullptr
             ? nullptr
             : static_cast<BufferPool::Frame*>(frame_)->data.get();
}

char* PinnedExtent::mutable_data() const {
  return frame_ == nullptr
             ? nullptr
             : static_cast<BufferPool::Frame*>(frame_)->data.get();
}

int64_t PinnedExtent::bytes() const {
  return frame_ == nullptr ? 0
                           : static_cast<BufferPool::Frame*>(frame_)->bytes;
}

void PinnedExtent::MarkDirty() {
  if (frame_ != nullptr) {
    pool_->MarkDirty(static_cast<BufferPool::Frame*>(frame_));
  }
}

void PinnedExtent::Release() {
  if (frame_ != nullptr) {
    pool_->Unpin(static_cast<BufferPool::Frame*>(frame_));
    pool_ = nullptr;
    frame_ = nullptr;
  }
}

BufferPool::BufferPool(int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

BufferPool::~BufferPool() {
  MutexLock lock(mu_);
  // Dirty frames at teardown were never committed by a Flush; dropping them
  // is correct (the manifest never referenced the extent). Pins must be
  // gone: a live PinnedExtent outliving its pool is a caller bug.
  for (const auto& [key, f] : frames_) {
    (void)key;
    RMA_CHECK(f->pins == 0 && "BufferPool destroyed with live pins");
  }
}

Result<PinnedExtent> BufferPool::Pin(const std::shared_ptr<Pager>& pager,
                                     uint64_t first_page, uint64_t n_pages,
                                     int64_t bytes) {
  RMA_CHECK(pager != nullptr);
  MutexLock lock(mu_);
  const FrameKey key{pager->id(), first_page};
  auto it = frames_.find(key);
  if (it != frames_.end()) {
    Frame* f = it->second.get();
    if (f->in_lru) {
      lru_.erase(f->lru_it);
      f->in_lru = false;
    }
    ++f->pins;
    ++stats_.hits;
    return PinnedExtent(this, f);
  }

  ++stats_.misses;
  const int64_t payload = pager->payload_bytes();
  const int64_t frame_bytes = static_cast<int64_t>(n_pages) * payload;
  RMA_CHECK(bytes <= frame_bytes);
  RMA_RETURN_NOT_OK(EvictForLocked(frame_bytes));

  auto frame = std::make_unique<Frame>();
  frame->pager = pager;
  frame->first_page = first_page;
  frame->n_pages = n_pages;
  frame->bytes = bytes;
  frame->frame_bytes = frame_bytes;
  // Not zero-filled: the read below overwrites every byte of the frame.
  frame->data.reset(new char[static_cast<size_t>(frame_bytes)]);
  RMA_RETURN_NOT_OK(pager->ReadPages(first_page, n_pages, frame->data.get()));
  frame->pins = 1;
  Frame* f = frame.get();
  frames_.emplace(key, std::move(frame));
  stats_.resident_bytes += frame_bytes;
  return PinnedExtent(this, f);
}

Result<PinnedExtent> BufferPool::Create(const std::shared_ptr<Pager>& pager,
                                        uint64_t first_page, uint64_t n_pages,
                                        int64_t bytes) {
  RMA_CHECK(pager != nullptr);
  MutexLock lock(mu_);
  const FrameKey key{pager->id(), first_page};
  RMA_CHECK(frames_.find(key) == frames_.end() &&
            "Create over an already-resident extent");
  const int64_t payload = pager->payload_bytes();
  const int64_t frame_bytes = static_cast<int64_t>(n_pages) * payload;
  RMA_CHECK(bytes <= frame_bytes);
  RMA_RETURN_NOT_OK(EvictForLocked(frame_bytes));

  auto frame = std::make_unique<Frame>();
  frame->pager = pager;
  frame->first_page = first_page;
  frame->n_pages = n_pages;
  frame->bytes = bytes;
  frame->frame_bytes = frame_bytes;
  frame->data.reset(new char[static_cast<size_t>(frame_bytes)]);
  // The caller writes [0, bytes); zero only the page-padding tail so
  // checksummed pages never carry uninitialized heap bytes to disk.
  std::memset(frame->data.get() + bytes, 0,
              static_cast<size_t>(frame_bytes - bytes));
  frame->pins = 1;
  frame->dirty = true;
  Frame* f = frame.get();
  frames_.emplace(key, std::move(frame));
  stats_.resident_bytes += frame_bytes;
  return PinnedExtent(this, f);
}

Status BufferPool::Flush(const std::shared_ptr<Pager>& pager) {
  RMA_CHECK(pager != nullptr);
  {
    MutexLock lock(mu_);
    for (auto& [key, f] : frames_) {
      if (key.first != pager->id() || !f->dirty) continue;
      RMA_RETURN_NOT_OK(WritebackLocked(f.get()));
    }
  }
  return pager->Sync();
}

void BufferPool::Forget(uint64_t pager_id) {
  MutexLock lock(mu_);
  for (auto it = frames_.lower_bound({pager_id, 0});
       it != frames_.end() && it->first.first == pager_id;) {
    Frame* f = it->second.get();
    if (f->pins > 0) {
      ++it;
      continue;
    }
    if (f->in_lru) lru_.erase(f->lru_it);
    stats_.resident_bytes -= f->frame_bytes;
    it = frames_.erase(it);
  }
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::Unpin(Frame* f) {
  MutexLock lock(mu_);
  RMA_CHECK(f->pins > 0);
  if (--f->pins == 0) {
    f->lru_it = lru_.insert(lru_.end(), f);
    f->in_lru = true;
  }
}

void BufferPool::MarkDirty(Frame* f) {
  MutexLock lock(mu_);
  f->dirty = true;
}

Status BufferPool::EvictForLocked(int64_t need) {
  while (stats_.resident_bytes + need > capacity_bytes_ && !lru_.empty()) {
    Frame* victim = lru_.front();
    if (victim->dirty) RMA_RETURN_NOT_OK(WritebackLocked(victim));
    lru_.pop_front();
    stats_.resident_bytes -= victim->frame_bytes;
    ++stats_.evictions;
    frames_.erase({victim->pager->id(), victim->first_page});
  }
  if (stats_.resident_bytes + need > capacity_bytes_) ++stats_.overcommits;
  return Status::OK();
}

Status BufferPool::WritebackLocked(Frame* f) {
  RMA_RETURN_NOT_OK(
      f->pager->WritePages(f->first_page, f->n_pages, f->data.get()));
  f->dirty = false;
  ++stats_.writebacks;
  return Status::OK();
}

}  // namespace rma
