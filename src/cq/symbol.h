#ifndef VBR_CQ_SYMBOL_H_
#define VBR_CQ_SYMBOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace vbr {

// A Symbol is a dense integer id for an interned string (predicate name,
// variable name, or constant name), or for a fresh name minted by
// SymbolTable::Fresh.
using Symbol = int32_t;

inline constexpr Symbol kInvalidSymbol = -1;

// First id of the fresh range; interned names stay below it.
inline constexpr Symbol kFirstFreshSymbol = Symbol{1} << 30;

// Interns strings to Symbols and back.
//
// The library routes all naming through SymbolTable::Global() so that terms
// and atoms are cheap value types (a Symbol plus a tag). The table only
// grows; Symbols are never invalidated.
//
// Two id ranges:
//  - Interned names get ids [0, kFirstFreshSymbol) in interning order. Each
//    one stores its string once, plus a name-map node.
//  - Fresh symbols get ids kFirstFreshSymbol + n, where n is a process-wide
//    counter, and are named "<prefix>$<n>". They store no string and no
//    map node: a call that mints a block of them records one 8-byte run
//    (first n, prefix symbol), and consecutive blocks under one prefix
//    share a run. NameOf computes the name from the run. Planning mints
//    fresh variables on every request (renaming apart, expansions, M3
//    drops), so this is what keeps a long-running server's table small.
//
// The fresh range holds kFreshCapacity numbers and is never recycled. Once
// a block no longer fits in it, Fresh falls back to interning each name,
// as "<prefix>$<n>" with n >= kFreshCapacity: the process keeps running,
// and each fresh symbol from then on costs a string and a map node like
// an interned name. DESIGN.md ("Symbol table") gives the time to
// exhaustion.
//
// A fresh symbol's spelling resolves to it: Intern and Find of
// "<prefix>$<n>" return the live fresh symbol. A "<p>$<n>" spelling that is
// interned before n is minted reserves n, and Fresh skips every reserved
// number, so a fresh name never equals an interned one.
//
// Thread safety: every method may be called concurrently from any number of
// threads (service workers plan concurrently, and planning mints fresh
// variables). The name->id map is sharded under std::shared_mutex, so
// Intern of an already-known name takes one shared lock on one shard.
// Resolving an id back to its string (NameOf) is LOCK-FREE: names and runs
// live in chunked, append-only storage whose entries never move, published
// with a release-store of the element count, so any Symbol a thread
// legitimately holds resolves without synchronization.
//
// Determinism: ids reflect global interning order, and fresh numbers the
// global minting order. Single-threaded runs therefore mint the same names
// in the same order on every run; under concurrency they depend on the
// interleaving, which is why the pipeline's determinism contract (see
// DESIGN.md "Threading model") is stated over query structure, not over
// fresh-name spellings.
class SymbolTable {
 public:
  // Fresh numbers available: ids kFirstFreshSymbol + n stay below
  // INT32_MAX.
  static constexpr uint32_t kFreshCapacity =
      static_cast<uint32_t>(INT32_MAX - kFirstFreshSymbol);

  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id for `name`, interning it on first use (or the fresh
  // symbol it spells).
  Symbol Intern(std::string_view name);

  // Returns the id for `name` if already interned or a live fresh symbol's
  // spelling, kInvalidSymbol otherwise.
  Symbol Find(std::string_view name) const;

  // Returns the string for an id. `sym` must have been produced by this
  // table. Lock-free.
  std::string NameOf(Symbol sym) const;

  // Mints a symbol named "<prefix>$<n>" that no other call returns and that
  // is not an interned name. Used to create fresh variables during
  // expansion.
  Symbol Fresh(std::string_view prefix) { return FreshBlock(prefix, 1); }

  // Mints `count` (>= 1) fresh symbols in one call: ids first .. first +
  // count - 1, named "<prefix>$<n>" .. "<prefix>$<n + count - 1>" (with
  // gaps in n past the fresh range).
  Symbol FreshBlock(std::string_view prefix, size_t count);

  // Number of interned names. Any id < size() is resolvable via NameOf;
  // fresh symbols are not counted.
  size_t size() const { return names_.size(); }

  // The process-wide table used by the convenience constructors in term.h
  // and the parser.
  static SymbolTable& Global();

 private:
  // Geometric chunked storage: chunk c holds 2^c * kChunkBase elements, so
  // the inline spine of kNumChunks pointers covers ~2^30 elements while
  // existing entries never reallocate (that is what makes NameOf
  // lock-free). A chunk is raw storage whose elements are constructed on
  // append, so only its filled pages are resident. Appends are serialized
  // by the caller.
  template <typename T>
  class AppendOnly {
   public:
    AppendOnly() = default;
    ~AppendOnly();
    AppendOnly(const AppendOnly&) = delete;
    AppendOnly& operator=(const AppendOnly&) = delete;

    // Appends `value` and publishes it; returns its index.
    size_t Append(T value);
    // Element `i` < size().
    const T& operator[](size_t i) const;
    size_t size() const { return size_.load(std::memory_order_acquire); }

   private:
    static constexpr size_t kChunkBase = 1024;
    static constexpr size_t kNumChunks = 20;

    std::atomic<T*> chunks_[kNumChunks] = {};
    std::atomic<size_t> size_{0};
  };

  // A block of fresh numbers [first, next run's first) minted under
  // `prefix`; a run with prefix kInvalidSymbol is a skipped (reserved) gap.
  struct Run {
    uint32_t first = 0;
    Symbol prefix = kInvalidSymbol;
  };

  // "<prefix>$<n>" split at its last '$'.
  struct FreshSpelling {
    std::string_view prefix;
    uint32_t n = 0;
  };

  // Shard count for the name->id map; must be a power of two.
  static constexpr size_t kNumShards = 16;

  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, Symbol, StringHash, std::equal_to<>> ids;
  };

  Shard& ShardOf(std::string_view name) const;

  // Splits a "<prefix>$<n>" spelling with n in canonical decimal (no sign,
  // no leading zero) inside the fresh range; nullopt for any other name.
  static std::optional<FreshSpelling> ParseFresh(std::string_view name);

  // FreshBlock once the fresh range is full: interns `count` unused
  // "<prefix>$<n>" names, n >= kFreshCapacity, under consecutive ids.
  Symbol InternFreshBlock(std::string_view prefix, size_t count);

  // The run that minted fresh number `n` (< fresh_end_).
  const Run& RunOf(uint32_t n) const;
  // The live fresh symbol `spelling` names, or kInvalidSymbol.
  Symbol LiveFresh(const FreshSpelling& spelling) const;

  mutable Shard shards_[kNumShards];

  std::mutex names_mu_;  // serializes appends to names_
  AppendOnly<std::string> names_;
  // Next suffix (past kFreshCapacity) InternFreshBlock tries; guarded by
  // names_mu_.
  uint64_t interned_fresh_ = 0;

  std::mutex fresh_mu_;  // serializes minting, runs_ appends, reserved_
  AppendOnly<Run> runs_;
  // Next unminted number; published after the run that covers it.
  std::atomic<uint32_t> fresh_end_{0};
  // Numbers >= fresh_end_ spelled by an interned "<p>$<n>" name.
  std::set<uint32_t> reserved_;
};

}  // namespace vbr

#endif  // VBR_CQ_SYMBOL_H_
