// Shadow memory for dependence tracking (paper §9 "Shadow memory records a
// piece of information for each storage location — for dependency tracking
// this is usually the last dynamic instruction that modified that
// location"). One record per 8-byte word — keys are normalized to word
// granularity (addr >> 3) — holding the last writing occurrence and, when
// anti/output tracking is on, the last reading occurrence.
//
// Layout: a two-level page table instead of a hash map. The directory maps
// (word >> kPageBits) to a lazily-allocated fixed-size page of records, so
// the per-access path is two indexed loads with no hashing, no probing and
// no per-record heap allocation — the flat shadow organization the paper's
// instrumentation (and every production race detector) relies on for
// throughput. clear() is O(pages): pages are parked on a free list and
// re-zeroed only when reused, so a ShadowMemory recycled across profiling
// runs stops allocating entirely.
#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "support/coord_pool.hpp"
#include "support/int_math.hpp"

namespace pp::ddg {

/// A dynamic instance: statement id + interned iteration coordinates.
/// Trivially copyable by design — occurrences are stored by value in
/// shadow words, register slots and call frames on the profiling hot path.
struct Occurrence {
  int stmt = -1;  ///< < 0 means "no occurrence recorded"
  support::CoordRef coords;

  bool valid() const { return stmt >= 0; }
};

static_assert(std::is_trivially_copyable_v<Occurrence>);

class ShadowMemory {
 public:
  /// Shadow state of one 8-byte word.
  struct Record {
    Occurrence writer;  ///< last store to the word
    Occurrence reader;  ///< last load since that store (WAR tracking)
  };

  static constexpr std::size_t kPageBits = 12;  ///< 4096 words = 32 KiB span
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageBits;

  /// Record of the word containing byte address `addr`. With `create` its
  /// page is allocated on demand; without, nullptr if the page was never
  /// touched (never allocates).
  Record* at(i64 addr, bool create) {
    const std::size_t word = word_of(addr);
    Page* page = page_at(word >> kPageBits, create);
    return page != nullptr ? &page->words[word & (kPageWords - 1)] : nullptr;
  }
  /// Lookup only: at(addr, false).
  const Record* find(i64 addr) const {
    return const_cast<ShadowMemory*>(this)->at(addr, false);
  }
  /// Find-or-create the record of the word containing `addr`.
  Record& touch(i64 addr) { return *at(addr, true); }

  /// Record `w` as the last writer of the word at `addr`.
  void write(i64 addr, Occurrence w) { touch(addr).writer = w; }

  /// Last writer of `addr`, if any write was observed.
  const Occurrence* read(i64 addr) const {
    const Record* r = find(addr);
    return r != nullptr && r->writer.valid() ? &r->writer : nullptr;
  }

  /// Visit the records of the `n` words at addr, addr+stride, ... (byte
  /// addresses; the caller guarantees every address is non-negative) in
  /// trip order: `fn(t, Record*)`, with pages created on demand as in
  /// at(addr, create). The directory is consulted once per crossed page,
  /// not per access — the batched expansion path of compressed trace runs
  /// lives on this.
  template <typename Fn>
  void walk_strided(i64 addr, i64 stride, u64 n, bool create, Fn&& fn) {
    std::size_t cur_top = kNoPage;
    Page* page = nullptr;
    for (u64 t = 0; t < n; ++t, addr += stride) {
      const std::size_t word = word_of(addr);
      const std::size_t top = word >> kPageBits;
      if (top != cur_top) {
        page = page_at(top, create);
        cur_top = top;
      }
      fn(t, page != nullptr ? &page->words[word & (kPageWords - 1)]
                            : nullptr);
    }
  }

  /// Words with a recorded writer. O(pages · kPageWords): diagnostics and
  /// tests only, never on the profiling path.
  std::size_t tracked_words() const;

  /// Park every live page on the free list; the directory empties in
  /// O(pages). Parked pages are re-zeroed lazily on reuse.
  void clear();

  std::size_t pages_live() const { return pages_.size() - free_.size(); }
  std::size_t pages_allocated() const { return pages_.size(); }
  std::size_t pages_free() const { return free_.size(); }

 private:
  struct Page {
    Record words[kPageWords];
  };

  static constexpr std::size_t kNoPage = static_cast<std::size_t>(-1);

  /// Word index of a byte address: keys are word-granular so byte aliases
  /// of the same 8-byte word share one record.
  static std::size_t word_of(i64 addr) {
    PP_CHECK(addr >= 0, "shadow memory address must be non-negative");
    return static_cast<std::size_t>(addr) >> 3;
  }

  /// Page of directory slot `top`, allocated on demand with `create`;
  /// nullptr when absent and !create.
  Page* page_at(std::size_t top, bool create) {
    if (top >= dir_.size()) {
      if (!create) return nullptr;
      dir_.resize(top + 1, -1);
    }
    std::int32_t pi = dir_[top];
    if (pi < 0) {
      if (!create) return nullptr;
      pi = dir_[top] = grab_page();
    }
    return pages_[static_cast<std::size_t>(pi)].get();
  }

  std::int32_t grab_page();

  std::vector<std::int32_t> dir_;  ///< word >> kPageBits -> page index, -1 if absent
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<std::int32_t> free_;  ///< parked page indices (cleared lazily)
};

/// Shadow state for one frame's registers: last producing occurrence per
/// virtual register (pass-through across calls/returns, so moves through
/// the calling convention do not appear as extra DDG nodes). An invalid
/// occurrence (stmt < 0) marks a register whose value predates profiling.
struct ShadowFrame {
  std::vector<Occurrence> regs;
  ShadowFrame() = default;
  explicit ShadowFrame(std::size_t num_regs) : regs(num_regs) {}
  /// Reinitialize in place (frame pooling: reuse keeps capacity).
  void reset(std::size_t num_regs) { regs.assign(num_regs, Occurrence{}); }
};

}  // namespace pp::ddg
