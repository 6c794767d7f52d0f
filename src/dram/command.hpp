// DRAM command vocabulary and optional command tracing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dram/types.hpp"

namespace dl::dram {

enum class CommandKind : std::uint8_t {
  kActivate,
  kPrecharge,
  kRead,
  kWrite,
  kRefresh,      ///< targeted row refresh (defense-issued)
  kRowClone,     ///< ACT-ACT intra-subarray bulk copy
  kRefreshAll,   ///< scheduled all-bank auto-refresh (timed mode)
};

[[nodiscard]] const char* to_string(CommandKind kind);

/// One issued command, recorded by the trace when tracing is enabled.
struct CommandRecord {
  CommandKind kind;
  GlobalRowId row = 0;       ///< physical row (src for RowClone)
  GlobalRowId row2 = 0;      ///< RowClone destination, else 0
  std::uint32_t byte = 0;    ///< column byte for RD/WR
  bool defense_op = false;   ///< issued by a defense mechanism
  Picoseconds issued_at = 0;
};

/// Bounded command trace; keeps the most recent `capacity` records in a
/// ring, so recording stays O(1) once the trace is full.
class CommandTrace {
 public:
  explicit CommandTrace(std::size_t capacity = 0) : capacity_(capacity) {}

  void set_capacity(std::size_t capacity);
  [[nodiscard]] bool enabled() const { return capacity_ > 0; }

  /// No-op unless enabled(); hot callers guard with enabled() themselves
  /// so the disabled case never even builds a CommandRecord.
  void record(const CommandRecord& rec) {
    if (capacity_ == 0) return;
    record_slow(rec);
  }

  /// Retained records, oldest first (a copy: the ring itself is stored
  /// rotated once it wraps).
  [[nodiscard]] std::vector<CommandRecord> records() const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  void clear();

 private:
  std::size_t capacity_;
  std::vector<CommandRecord> ring_;  ///< grows to capacity_, then wraps
  std::size_t head_ = 0;             ///< oldest record once ring_ is full
  std::size_t dropped_ = 0;

  void record_slow(const CommandRecord& rec);
};

}  // namespace dl::dram
