#include "cq/symbol.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace vbr {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const Symbol a = table.Intern("car");
  const Symbol b = table.Intern("loc");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, table.Intern("car"));
  EXPECT_EQ(b, table.Intern("loc"));
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, NameOfRoundTrips) {
  SymbolTable table;
  const Symbol a = table.Intern("anderson");
  EXPECT_EQ(table.NameOf(a), "anderson");
}

TEST(SymbolTableTest, FindDoesNotIntern) {
  SymbolTable table;
  EXPECT_EQ(table.Find("missing"), kInvalidSymbol);
  EXPECT_EQ(table.size(), 0u);
  const Symbol a = table.Intern("x");
  EXPECT_EQ(table.Find("x"), a);
}

TEST(SymbolTableTest, FreshNamesAreDistinct) {
  SymbolTable table;
  const Symbol a = table.Fresh("X");
  const Symbol b = table.Fresh("X");
  EXPECT_NE(a, b);
  EXPECT_NE(table.NameOf(a), table.NameOf(b));
}

TEST(SymbolTableTest, FreshAvoidsExistingNames) {
  SymbolTable table;
  table.Intern("V$0");
  const Symbol a = table.Fresh("V");
  EXPECT_NE(table.NameOf(a), "V$0");
}

TEST(SymbolTableTest, FindResolvesBlockMintedIds) {
  SymbolTable table;
  const Symbol first = table.FreshBlock("B", 5);
  EXPECT_GE(first, kFirstFreshSymbol);
  for (Symbol s = first; s < first + 5; ++s) {
    EXPECT_EQ(table.Find(table.NameOf(s)), s);
    EXPECT_EQ(table.Intern(table.NameOf(s)), s);
  }
  // A fresh symbol can prefix another; its name still round-trips.
  const Symbol nested = table.Fresh(table.NameOf(first + 2));
  EXPECT_EQ(table.NameOf(nested).rfind(table.NameOf(first + 2) + "$", 0), 0u);
  EXPECT_EQ(table.Find(table.NameOf(nested)), nested);
  // Fresh symbols store no name: only the prefix "B" was interned.
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTableTest, SpellingInternedBeforeItsNumberIsNeverMinted) {
  SymbolTable table;
  const Symbol early = table.Intern("V$3");
  EXPECT_LT(early, kFirstFreshSymbol);
  std::set<std::string> names;
  for (int i = 0; i < 6; ++i) names.insert(table.NameOf(table.Fresh("V")));
  const Symbol block = table.FreshBlock("V", 4);
  for (Symbol s = block; s < block + 4; ++s) names.insert(table.NameOf(s));
  EXPECT_EQ(names.size(), 10u);
  EXPECT_EQ(names.count("V$3"), 0u);
  EXPECT_EQ(table.Find("V$3"), early);
  EXPECT_EQ(table.Intern("V$3"), early);
  // Fresh ids sort after every interned name.
  EXPECT_GT(table.Fresh("V"), table.Intern("interned_later"));
}

TEST(SymbolTableTest, FreshRangeExhaustionFallsBackToInternedNames) {
  SymbolTable table;
  const uint32_t cap = SymbolTable::kFreshCapacity;
  // One block takes all but two numbers of the range.
  const Symbol bulk = table.FreshBlock("W", cap - 2);
  EXPECT_EQ(bulk, kFirstFreshSymbol);
  const Symbol last_bulk = bulk + static_cast<Symbol>(cap - 3);
  EXPECT_EQ(table.NameOf(last_bulk), "W$" + std::to_string(cap - 3));
  // A spelling past the range is an ordinary name and is skipped.
  const Symbol taken = table.Intern("W$" + std::to_string(cap + 1));
  // Four no longer fit: they are interned, under consecutive ids.
  const Symbol block = table.FreshBlock("W", 4);
  EXPECT_LT(block, kFirstFreshSymbol);
  std::set<std::string> names;
  for (Symbol s = block; s < block + 4; ++s) {
    EXPECT_NE(s, taken);
    EXPECT_EQ(table.Find(table.NameOf(s)), s);
    names.insert(table.NameOf(s));
  }
  // The two numbers left in the range still serve a block that fits.
  const Symbol tail = table.FreshBlock("W", 2);
  EXPECT_GE(tail, kFirstFreshSymbol);
  names.insert(table.NameOf(tail));
  names.insert(table.NameOf(tail + 1));
  for (int i = 0; i < 3; ++i) {
    const Symbol s = table.Fresh("W");
    EXPECT_EQ(table.Find(table.NameOf(s)), s);
    names.insert(table.NameOf(s));
  }
  names.insert(table.NameOf(last_bulk));
  names.insert(table.NameOf(taken));
  EXPECT_EQ(names.size(), 11u);
}

TEST(SymbolTableTest, GlobalIsStable) {
  SymbolTable& g1 = SymbolTable::Global();
  SymbolTable& g2 = SymbolTable::Global();
  EXPECT_EQ(&g1, &g2);
  const Symbol a = g1.Intern("global_probe_symbol");
  EXPECT_EQ(g2.Find("global_probe_symbol"), a);
}

}  // namespace
}  // namespace vbr
