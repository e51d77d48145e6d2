#include "cq/symbol.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"

namespace vbr {

namespace {

// Position of element `i` in the geometric chunk layout: chunk c covers
// [(2^c - 1) * chunk_base, (2^(c+1) - 1) * chunk_base) and holds
// 2^c * chunk_base entries.
struct ChunkPos {
  size_t chunk;
  size_t offset;
};

ChunkPos PosOf(size_t i, size_t chunk_base) {
  const size_t q = i / chunk_base + 1;  // >= 1
  const size_t c = std::bit_width(q) - 1;
  const size_t start = ((size_t{1} << c) - 1) * chunk_base;
  return {c, i - start};
}

}  // namespace

template <typename T>
SymbolTable::AppendOnly<T>::~AppendOnly() {
  std::allocator<T> alloc;
  const size_t n = size_.load(std::memory_order_relaxed);
  for (size_t c = 0; c < kNumChunks; ++c) {
    T* const chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    const size_t start = ((size_t{1} << c) - 1) * kChunkBase;
    const size_t capacity = (size_t{1} << c) * kChunkBase;
    std::destroy_n(chunk, std::min(capacity, n - start));
    alloc.deallocate(chunk, capacity);
  }
}

template <typename T>
size_t SymbolTable::AppendOnly<T>::Append(T value) {
  const size_t i = size_.load(std::memory_order_relaxed);
  const ChunkPos pos = PosOf(i, kChunkBase);
  VBR_CHECK_MSG(pos.chunk < kNumChunks, "symbol table capacity exhausted");
  T* chunk = chunks_[pos.chunk].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    // Raw storage: elements are constructed as they are appended, so the
    // pages of a large chunk cost memory only once they are filled.
    chunk = std::allocator<T>().allocate((size_t{1} << pos.chunk) *
                                         kChunkBase);
    chunks_[pos.chunk].store(chunk, std::memory_order_release);
  }
  std::construct_at(chunk + pos.offset, std::move(value));
  size_.store(i + 1, std::memory_order_release);
  return i;
}

template <typename T>
const T& SymbolTable::AppendOnly<T>::operator[](size_t i) const {
  const ChunkPos pos = PosOf(i, kChunkBase);
  return chunks_[pos.chunk].load(std::memory_order_acquire)[pos.offset];
}

std::optional<SymbolTable::FreshSpelling> SymbolTable::ParseFresh(
    std::string_view name) {
  const size_t dollar = name.rfind('$');
  if (dollar == std::string_view::npos) return std::nullopt;
  const std::string_view digits = name.substr(dollar + 1);
  if (digits.empty() || digits.size() > 10 ||
      (digits.size() > 1 && digits[0] == '0')) {
    return std::nullopt;
  }
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  if (n >= kFreshCapacity) return std::nullopt;
  return FreshSpelling{name.substr(0, dollar), static_cast<uint32_t>(n)};
}

SymbolTable::SymbolTable() = default;
SymbolTable::~SymbolTable() = default;

SymbolTable::Shard& SymbolTable::ShardOf(std::string_view name) const {
  return shards_[std::hash<std::string_view>()(name) & (kNumShards - 1)];
}

const SymbolTable::Run& SymbolTable::RunOf(uint32_t n) const {
  // Runs are appended in increasing `first` order and cover [0, fresh_end_)
  // without gaps, so the run of n is the last one starting at or before it.
  size_t lo = 0;
  size_t hi = runs_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (runs_[mid].first <= n) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return runs_[lo];
}

Symbol SymbolTable::LiveFresh(const FreshSpelling& spelling) const {
  if (spelling.n >= fresh_end_.load(std::memory_order_acquire)) {
    return kInvalidSymbol;
  }
  const Run& run = RunOf(spelling.n);
  if (run.prefix == kInvalidSymbol || NameOf(run.prefix) != spelling.prefix) {
    return kInvalidSymbol;
  }
  return kFirstFreshSymbol + static_cast<Symbol>(spelling.n);
}

Symbol SymbolTable::Intern(std::string_view name) {
  if (const auto spelling = ParseFresh(name)) {
    if (const Symbol live = LiveFresh(*spelling); live != kInvalidSymbol) {
      return live;
    }
    // Not minted (yet): resolve or reserve under the minting lock, so the
    // number cannot be minted between the check and the reservation.
    std::lock_guard<std::mutex> lock(fresh_mu_);
    if (spelling->n < fresh_end_.load(std::memory_order_relaxed)) {
      if (const Symbol live = LiveFresh(*spelling); live != kInvalidSymbol) {
        return live;
      }
    } else {
      reserved_.insert(spelling->n);
    }
  }
  Shard& shard = ShardOf(name);
  {
    std::shared_lock<std::shared_mutex> read(shard.mu);
    auto it = shard.ids.find(name);
    if (it != shard.ids.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> write(shard.mu);
  auto it = shard.ids.find(name);
  if (it != shard.ids.end()) return it->second;
  Symbol id;
  {
    std::lock_guard<std::mutex> lock(names_mu_);
    id = static_cast<Symbol>(names_.Append(std::string(name)));
  }
  shard.ids.emplace(std::string(name), id);
  return id;
}

Symbol SymbolTable::Find(std::string_view name) const {
  if (const auto spelling = ParseFresh(name)) {
    if (const Symbol live = LiveFresh(*spelling); live != kInvalidSymbol) {
      return live;
    }
  }
  const Shard& shard = ShardOf(name);
  std::shared_lock<std::shared_mutex> read(shard.mu);
  auto it = shard.ids.find(name);
  return it == shard.ids.end() ? kInvalidSymbol : it->second;
}

std::string SymbolTable::NameOf(Symbol sym) const {
  if (sym < kFirstFreshSymbol) {
    VBR_CHECK(sym >= 0 && static_cast<size_t>(sym) < names_.size());
    return names_[static_cast<size_t>(sym)];
  }
  const uint32_t n = static_cast<uint32_t>(sym - kFirstFreshSymbol);
  VBR_CHECK(n < fresh_end_.load(std::memory_order_acquire));
  const Run& run = RunOf(n);
  VBR_CHECK(run.prefix != kInvalidSymbol);
  return NameOf(run.prefix) + "$" + std::to_string(n);
}

Symbol SymbolTable::FreshBlock(std::string_view prefix, size_t count) {
  VBR_CHECK(count >= 1);
  // Interned first: interning may itself take the minting lock.
  const Symbol prefix_sym = Intern(prefix);
  {
    std::lock_guard<std::mutex> lock(fresh_mu_);
    const uint32_t end = fresh_end_.load(std::memory_order_relaxed);
    uint64_t first = end;
    // Skip past every reserved number inside the block.
    auto it = reserved_.lower_bound(end);
    while (it != reserved_.end() && *it < first + count) {
      first = uint64_t{*it} + 1;
      ++it;
    }
    if (first + count <= kFreshCapacity) {
      // Reservations below the block's end are spent.
      reserved_.erase(reserved_.begin(), it);
      if (first > end) runs_.Append({end, kInvalidSymbol});
      if (runs_.size() == 0 || runs_[runs_.size() - 1].prefix != prefix_sym) {
        runs_.Append({static_cast<uint32_t>(first), prefix_sym});
      }
      fresh_end_.store(static_cast<uint32_t>(first + count),
                       std::memory_order_release);
      return kFirstFreshSymbol + static_cast<Symbol>(first);
    }
  }
  return InternFreshBlock(prefix, count);
}

Symbol SymbolTable::InternFreshBlock(std::string_view prefix, size_t count) {
  // Every shard, in index order, then the names lock: the order Intern
  // takes them in, so no deadlock. Holding the names lock for the whole
  // block keeps its ids consecutive.
  std::unique_lock<std::shared_mutex> shard_locks[kNumShards];
  for (size_t i = 0; i < kNumShards; ++i) {
    shard_locks[i] = std::unique_lock<std::shared_mutex>(shards_[i].mu);
  }
  std::lock_guard<std::mutex> lock(names_mu_);
  std::vector<std::string> block;
  block.reserve(count);
  while (block.size() < count) {
    // Numbers past the fresh range never parse as fresh spellings, so only
    // interned names can collide.
    std::string name = std::string(prefix) + "$" +
                       std::to_string(kFreshCapacity + interned_fresh_++);
    if (ShardOf(name).ids.count(name) == 0) block.push_back(std::move(name));
  }
  const Symbol first = static_cast<Symbol>(names_.size());
  for (std::string& name : block) {
    const Symbol id = static_cast<Symbol>(names_.Append(name));
    ShardOf(name).ids.emplace(std::move(name), id);
  }
  return first;
}

SymbolTable& SymbolTable::Global() {
  static SymbolTable* table = new SymbolTable;
  return *table;
}

}  // namespace vbr
