// dl-lint: hot-path — counters go through dram::Counter, not StatSet::add.
#include "integrity/scrubber.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"

namespace dl::integrity {

using dl::dram::GlobalRowId;
using dl::dram::PhysAddr;

DramScrubber::DramScrubber(dl::dram::Controller& ctrl,
                           std::vector<GlobalRowId> rows, const Config& config)
    : ctrl_(ctrl),
      config_(config),
      rows_(std::move(rows)),
      row_index_(ctrl.geometry().total_rows(), kUnguarded) {
  const auto& g = ctrl_.geometry();
  DL_REQUIRE(!rows_.empty(), "scrubber needs at least one row");
  DL_REQUIRE(config_.group_size > 0 && g.row_bytes % config_.group_size == 0,
             "scrub group size must divide row_bytes");
  groups_per_row_ = g.row_bytes / config_.group_size;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    DL_REQUIRE(rows_[i] < g.total_rows(), "scrub row outside the geometry");
    std::size_t& index = row_index_.at(rows_[i]);
    DL_REQUIRE(index == kUnguarded, "duplicate scrub row");
    index = i;
  }
  // Boot-time registration: snapshot the rows' clean contents from the
  // backing store and checksum them.  (Registration is not accounted DRAM
  // traffic — a deployment computes checksums before the attack window.)
  snapshot_.resize(rows_.size() * g.row_bytes);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    store_row(i, std::span(snapshot_.data() + i * g.row_bytes, g.row_bytes));
  }
  checksums_ = std::make_unique<BlockChecksums>(config_, snapshot_);
}

std::uint64_t DramScrubber::chunks_per_pass() const {
  return static_cast<std::uint64_t>(rows_.size()) * groups_per_row_;
}

PhysAddr DramScrubber::addr_of(std::size_t row_idx, std::uint32_t byte) const {
  return ctrl_.mapper().row_base(rows_[row_idx]) + byte;
}

void DramScrubber::store_row(std::size_t row_idx,
                             std::span<std::uint8_t> out) const {
  const GlobalRowId phys = ctrl_.indirection().to_physical(rows_[row_idx]);
  ctrl_.data().read(phys, 0, out);
}

void DramScrubber::verify_group(std::size_t row_idx, std::size_t group_in_row,
                                std::span<const std::uint8_t> data) {
  const std::size_t g = row_idx * groups_per_row_ + group_in_row;
  const Diagnosis d = checksums_->diagnose(g, data);
  ++stats_.verified_groups;
  ctrl_.counters().add(dl::dram::Counter::kScrubChunkVerifies);
  if (d.state == Diagnosis::State::kClean) return;
  ++stats_.detections;
  if (stats_.first_detection_at == 0) stats_.first_detection_at = ctrl_.now();

  const std::uint32_t base =
      static_cast<std::uint32_t>(group_in_row) * config_.group_size;
  dl::dram::DefenseScope scope(ctrl_);
  switch (d.state) {
    case Diagnosis::State::kClean:
      break;
    case Diagnosis::State::kCorrectable: {
      if (config_.recovery == Recovery::kDetectOnly) {
        ++stats_.uncorrectable;
        break;
      }
      const std::uint8_t fixed = dl::flip_bit(data[d.byte], d.bit);
      const auto res = ctrl_.write(addr_of(row_idx, base + d.byte),
                                   std::span<const std::uint8_t>(&fixed, 1),
                                   /*can_unlock=*/true);
      ++stats_.correction_writes;
      if (res.granted) {
        ++stats_.corrected_bits;
      } else {
        ++stats_.denied_accesses;
        ++stats_.unrecoverable_faults;
      }
      break;
    }
    case Diagnosis::State::kChecksumCorrupt:
      // Checksum storage took the hit; the row data is clean.
      checksums_->rebuild(g, data);
      ++stats_.checksum_repairs;
      break;
    case Diagnosis::State::kUncorrectable: {
      // Strike the resilience layer regardless of recovery policy: an
      // uncorrectable diagnosis is evidence the row is going bad even when
      // correct-or-zero papers over this instance.
      if (fault_observer_) fault_observer_(rows_[row_idx], ctrl_.now());
      if (config_.recovery != Recovery::kCorrectOrZero) {
        ++stats_.uncorrectable;
        break;
      }
      // Sacrifice the group: overwrite with zeros and adopt them as the new
      // clean state (snapshot + checksum), so audit() reports only
      // corruption that actually survived.
      const std::vector<std::uint8_t> zeros(data.size(), 0);
      const auto res = ctrl_.write(addr_of(row_idx, base),
                                   std::span<const std::uint8_t>(zeros),
                                   /*can_unlock=*/true);
      ++stats_.correction_writes;
      if (res.granted) {
        const std::size_t snap_off =
            row_idx * ctrl_.geometry().row_bytes + base;
        for (std::size_t j = 0; j < zeros.size(); ++j) {
          if (data[j] != snapshot_[snap_off + j]) {
            ++stats_.zeroed_corrupt_bytes;
          }
          snapshot_[snap_off + j] = 0;
        }
        checksums_->rebuild(g, zeros);
        ++stats_.zeroed_groups;
      } else {
        ++stats_.denied_accesses;
        ++stats_.unrecoverable_faults;
      }
      break;
    }
  }
}

void DramScrubber::scrub_pass() {
  std::vector<std::uint8_t> buf(config_.group_size);
  dl::dram::DefenseScope scope(ctrl_);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    for (std::size_t c = 0; c < groups_per_row_; ++c) {
      const auto res = ctrl_.read(
          addr_of(i, static_cast<std::uint32_t>(c) * config_.group_size),
          std::span<std::uint8_t>(buf), /*can_unlock=*/true);
      ++stats_.scrub_reads;
      stats_.scrub_read_bytes += buf.size();
      if (!res.granted) {
        ++stats_.denied_accesses;
        continue;
      }
      verify_group(i, c, buf);
    }
  }
  ++stats_.passes;
}

void DramScrubber::on_read(PhysAddr addr,
                           std::span<const std::uint8_t> data) {
  const auto rb = ctrl_.mapper().row_and_byte(addr);
  const std::size_t index = row_index_.get(rb.row);
  if (index == kUnguarded) return;
  if (data.size() != config_.group_size || rb.byte % config_.group_size != 0) {
    return;  // not a group-aligned scrub chunk
  }
  ++stats_.scrub_reads;
  stats_.scrub_read_bytes += data.size();
  verify_group(index, rb.byte / config_.group_size, data);
}

bool DramScrubber::snapshot_row(GlobalRowId row,
                                std::vector<std::uint8_t>& out) const {
  if (row >= row_index_.rows()) return false;
  const std::size_t index = row_index_.get(row);
  if (index == kUnguarded) return false;
  const std::uint32_t row_bytes = ctrl_.geometry().row_bytes;
  out.assign(snapshot_.begin() + static_cast<std::ptrdiff_t>(index * row_bytes),
             snapshot_.begin() +
                 static_cast<std::ptrdiff_t>((index + 1) * row_bytes));
  return true;
}

Audit DramScrubber::audit() const {
  Audit a;
  const std::uint32_t row_bytes = ctrl_.geometry().row_bytes;
  std::vector<std::uint8_t> cur(row_bytes);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    store_row(i, cur);
    for (std::size_t c = 0; c < groups_per_row_; ++c) {
      const std::size_t off = c * config_.group_size;
      std::uint64_t diff = 0;
      for (std::size_t j = 0; j < config_.group_size; ++j) {
        if (cur[off + j] != snapshot_[i * row_bytes + off + j]) ++diff;
      }
      if (diff == 0) continue;
      a.corrupt_bytes += diff;
      const auto data =
          std::span<const std::uint8_t>(cur).subspan(off, config_.group_size);
      const Diagnosis d =
          checksums_->diagnose(i * groups_per_row_ + c, data);
      if (d.state == Diagnosis::State::kClean) a.missed_bytes += diff;
    }
  }
  return a;
}

}  // namespace dl::integrity
