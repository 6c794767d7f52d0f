#include "dram/command.hpp"

namespace dl::dram {

const char* to_string(CommandKind kind) {
  switch (kind) {
    case CommandKind::kActivate:  return "ACT";
    case CommandKind::kPrecharge: return "PRE";
    case CommandKind::kRead:      return "RD";
    case CommandKind::kWrite:     return "WR";
    case CommandKind::kRefresh:   return "REF";
    case CommandKind::kRowClone:  return "AAP";
    case CommandKind::kRefreshAll: return "REFab";
  }
  return "?";
}

void CommandTrace::set_capacity(std::size_t capacity) {
  std::vector<CommandRecord> kept = records();
  if (kept.size() > capacity) {
    dropped_ += kept.size() - capacity;
    kept.erase(kept.begin(),
               kept.end() - static_cast<std::ptrdiff_t>(capacity));
  }
  ring_ = std::move(kept);
  head_ = 0;
  capacity_ = capacity;
}

void CommandTrace::record_slow(const CommandRecord& rec) {
  if (ring_.size() < capacity_) {
    ring_.push_back(rec);
    return;
  }
  ring_[head_] = rec;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++dropped_;
}

std::vector<CommandRecord> CommandTrace::records() const {
  std::vector<CommandRecord> out;
  out.reserve(ring_.size());
  const auto head = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  return out;
}

void CommandTrace::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace dl::dram
