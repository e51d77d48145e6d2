// Concurrency stress tests for the sharded SymbolTable: many threads
// interning overlapping name sets must agree on every id, Fresh must never
// hand out the same symbol twice, and NameOf must resolve every id a thread
// legitimately holds. Run under ThreadSanitizer via scripts/check_tsan.sh.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cq/symbol.h"

namespace vbr {
namespace {

constexpr size_t kThreads = 8;
constexpr size_t kSharedNames = 400;

TEST(SymbolConcurrencyTest, ConcurrentInternAgreesOnIds) {
  SymbolTable table;
  std::vector<std::unordered_map<std::string, Symbol>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&table, &per_thread, t] {
        // Every thread interns ALL shared names, each in a different order:
        // the strides are coprime with kSharedNames, so each stride walks
        // the full residue ring.
        constexpr size_t kStrides[kThreads] = {1, 3, 7, 9, 11, 13, 17, 19};
        for (size_t i = 0; i < kSharedNames; ++i) {
          const size_t pick = (i * kStrides[t] + t) % kSharedNames;
          const std::string name = "shared_" + std::to_string(pick);
          const Symbol sym = table.Intern(name);
          ASSERT_EQ(table.NameOf(sym), name);
          ASSERT_EQ(table.Find(name), sym);
          per_thread[t][name] = sym;
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  // All threads resolved every shared name to the same id.
  ASSERT_EQ(table.size(), kSharedNames);
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(per_thread[t], per_thread[0]);
  }
  // Ids are dense and round-trip.
  for (size_t id = 0; id < table.size(); ++id) {
    const Symbol sym = static_cast<Symbol>(id);
    EXPECT_EQ(table.Find(table.NameOf(sym)), sym);
  }
}

TEST(SymbolConcurrencyTest, ConcurrentFreshSymbolsAreDistinct) {
  SymbolTable table;
  // Pre-intern a few names Fresh must skip over.
  table.Intern("F$0");
  table.Intern("F$5");
  constexpr size_t kFreshPerThread = 200;
  std::vector<std::vector<Symbol>> per_thread(kThreads);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&table, &per_thread, t] {
        for (size_t i = 0; i < kFreshPerThread; ++i) {
          const Symbol sym = table.Fresh("F");
          ASSERT_GE(sym, 0);
          per_thread[t].push_back(sym);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  std::set<Symbol> all;
  std::set<std::string> names;
  for (const auto& symbols : per_thread) {
    for (Symbol sym : symbols) {
      EXPECT_TRUE(all.insert(sym).second) << "duplicate fresh symbol";
      EXPECT_TRUE(names.insert(table.NameOf(sym)).second)
          << "duplicate fresh name";
      EXPECT_NE(table.NameOf(sym), "F$0");
      EXPECT_NE(table.NameOf(sym), "F$5");
    }
  }
  EXPECT_EQ(all.size(), kThreads * kFreshPerThread);
}

TEST(SymbolConcurrencyTest, MixedInternFreshAndLookup) {
  SymbolTable table;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (size_t i = 0; i < 300; ++i) {
        switch (i % 3) {
          case 0: {
            const std::string name = "mix_" + std::to_string(i % 50);
            const Symbol sym = table.Intern(name);
            ASSERT_EQ(table.NameOf(sym), name);
            break;
          }
          case 1: {
            const Symbol sym = table.Fresh("T" + std::to_string(t));
            ASSERT_EQ(table.Find(table.NameOf(sym)), sym);
            break;
          }
          default: {
            // size() is a published lower bound: every id below it must
            // resolve even while other threads keep appending.
            const size_t n = table.size();
            if (n > 0) {
              const Symbol sym = static_cast<Symbol>(n - 1);
              ASSERT_FALSE(table.NameOf(sym).empty());
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

// Crossing a chunk boundary (the first chunk holds 1024 names) while many
// threads append must keep earlier names stable and resolvable.
TEST(SymbolConcurrencyTest, GrowthAcrossChunksKeepsNamesStable) {
  SymbolTable table;
  const Symbol early = table.Intern("early_bird");
  const std::string early_name = table.NameOf(early);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (size_t i = 0; i < 1200; ++i) {
        table.Intern("bulk_" + std::to_string(t) + "_" + std::to_string(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(table.size(), 1u + kThreads * 1200);
  // The name read before the growth still resolves, unchanged (entries
  // never move).
  EXPECT_EQ(early_name, "early_bird");
  EXPECT_EQ(table.NameOf(early), early_name);
}

}  // namespace
}  // namespace vbr
