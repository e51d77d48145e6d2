#ifndef VBR_CQ_SYMBOL_H_
#define VBR_CQ_SYMBOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace vbr {

// A Symbol is a dense integer id for an interned string (predicate name,
// variable name, or constant name).
using Symbol = int32_t;

inline constexpr Symbol kInvalidSymbol = -1;

// Interns strings to Symbols and back.
//
// The library routes all naming through SymbolTable::Global() so that terms
// and atoms are cheap value types (a Symbol plus a tag). The table only
// grows; Symbols are never invalidated.
//
// Thread safety: every method may be called concurrently from any number of
// threads (service workers plan concurrently, and
// planning interns fresh variables). The name->id map is sharded under
// std::shared_mutex, so Intern of an already-known name takes one shared
// lock on one shard. Resolving an
// id back to its string (NameOf) is LOCK-FREE: names live in chunked,
// append-only storage whose entries never move, published with a
// release-store of the table size, so any Symbol a thread legitimately holds
// resolves without synchronization.
//
// Determinism: ids reflect global interning order. Single-threaded runs
// therefore assign exactly the ids the pre-threading implementation did;
// under concurrency ids depend on the interleaving, which is why the
// pipeline's determinism contract (see DESIGN.md "Threading model") is
// stated over query structure, not over fresh-name spellings.
class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id for `name`, interning it on first use.
  Symbol Intern(std::string_view name);

  // Returns the id for `name` if already interned, kInvalidSymbol otherwise.
  Symbol Find(std::string_view name) const;

  // Returns the string for an id. `sym` must have been produced by this
  // table. Lock-free.
  const std::string& NameOf(Symbol sym) const;

  // Interns and returns a name of the form "<prefix>$<n>" that was not
  // previously interned. Used to create fresh variables during expansion.
  // Concurrent callers always receive distinct symbols.
  Symbol Fresh(std::string_view prefix);

  // Number of interned names. Any id < size() is resolvable via NameOf.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  // The process-wide table used by the convenience constructors in term.h
  // and the parser.
  static SymbolTable& Global();

 private:
  // Geometric chunked storage: chunk c holds 2^c * kChunkBase names, so the
  // inline spine of kNumChunks pointers covers every id a 31-bit Symbol can
  // express while existing entries never reallocate (that is what makes
  // NameOf lock-free).
  static constexpr size_t kChunkBase = 1024;
  static constexpr size_t kNumChunks = 22;

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

  // Appends `name` to the chunked storage and publishes the new size.
  // Callers hold the unique lock of the owning shard (which serializes
  // same-name races); distinct names racing here are serialized by
  // names_mu_.
  Symbol AppendName(std::string_view name);

  mutable Shard shards_[kNumShards];

  std::mutex names_mu_;  // guards chunk allocation and appends
  std::atomic<std::string*> chunks_[kNumChunks] = {};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> fresh_counter_{0};
};

}  // namespace vbr

#endif  // VBR_CQ_SYMBOL_H_
