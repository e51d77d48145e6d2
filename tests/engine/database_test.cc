#include "engine/database.h"

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "engine/value.h"

namespace vbr {
namespace {

TEST(ValueTest, NumericConstantsEncodeAsIntegers) {
  EXPECT_EQ(EncodeConstant(Const("42")), 42);
  EXPECT_EQ(EncodeConstant(Const("-7")), -7);
  EXPECT_EQ(EncodeConstant(Const("0")), 0);
}

TEST(ValueTest, SymbolicConstantsAreStableAndDisjointFromData) {
  const Value a1 = EncodeConstant(Const("anderson"));
  const Value a2 = EncodeConstant(Const("anderson"));
  const Value b = EncodeConstant(Const("boston"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_LE(a1, kSymbolicValueBase);
}

TEST(ValueTest, ValueToStringRoundTrips) {
  EXPECT_EQ(ValueToString(EncodeConstant(Const("anderson"))), "anderson");
  EXPECT_EQ(ValueToString(123), "123");
  EXPECT_EQ(ValueToString(-123), "-123");
}

TEST(DatabaseTest, GetOrCreateAndFind) {
  Database db;
  EXPECT_EQ(db.Find(SymbolTable::Global().Intern("nothing")), nullptr);
  db.AddRow("r", {1, 2});
  const Symbol r = SymbolTable::Global().Intern("r");
  ASSERT_NE(db.Find(r), nullptr);
  EXPECT_EQ(db.Find(r)->arity(), 2u);
  EXPECT_EQ(db.Find(r)->size(), 1u);
}

TEST(DatabaseTest, AddFactEncodesConstants) {
  Database db;
  const auto q = MustParseQuery("h() :- car(m,anderson)");
  db.AddFact(q.subgoal(0));
  const Relation* car = db.Find(SymbolTable::Global().Intern("car"));
  ASSERT_NE(car, nullptr);
  EXPECT_TRUE(car->Contains({EncodeConstant(Const("m")),
                             EncodeConstant(Const("anderson"))}));
}

TEST(DatabaseTest, TotalRowsAndPredicates) {
  Database db;
  db.AddRow("b_rel", {1});
  db.AddRow("a_rel", {1});
  db.AddRow("a_rel", {2});
  EXPECT_EQ(db.TotalRows(), 3u);
  const auto preds = db.Predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(SymbolTable::Global().NameOf(preds[0]), "a_rel");
}

TEST(DatabaseTest, CopiesShareRelationsUntilWritten) {
  Database db;
  db.AddRow("shared_r", {1});
  db.AddRow("shared_s", {1});
  const Symbol r = SymbolTable::Global().Intern("shared_r");
  const Symbol s = SymbolTable::Global().Intern("shared_s");
  Database copy = db;
  EXPECT_EQ(copy.Find(r), db.Find(r));
  copy.AddRow("shared_r", {2});
  // The write cloned r in the copy only; s is still shared.
  EXPECT_NE(copy.Find(r), db.Find(r));
  EXPECT_EQ(copy.Find(r)->size(), 2u);
  EXPECT_EQ(db.Find(r)->size(), 1u);
  EXPECT_EQ(copy.Find(s), db.Find(s));
  // A relation no other copy shares is written in place.
  const Relation* own = copy.Find(r);
  EXPECT_EQ(copy.FindMutable(r), own);
  ASSERT_NE(copy.FindMutable(s), nullptr);
  EXPECT_NE(copy.Find(s), db.Find(s));
  EXPECT_EQ(copy.Find(s)->size(), 1u);
}

TEST(DatabaseTest, MergeAndRemoveLeaveTheSourceIntact) {
  Database base;
  base.AddRow("merge_r", {1});
  Database added;
  added.AddRow("merge_r", {7});
  added.AddRow("merge_t", {8});
  Database merged = base;
  merged.MergeFrom(added);
  const Symbol r = SymbolTable::Global().Intern("merge_r");
  const Symbol t = SymbolTable::Global().Intern("merge_t");
  EXPECT_TRUE(merged.Find(r)->Contains({7}));
  EXPECT_FALSE(merged.Find(r)->Contains({1}));
  EXPECT_TRUE(base.Find(r)->Contains({1}));
  EXPECT_TRUE(merged.Remove(t));
  EXPECT_NE(added.Find(t), nullptr);
  EXPECT_EQ(base.TotalRows(), 1u);
}

TEST(DatabaseDeathTest, ArityMismatchAborts) {
  Database db;
  db.AddRow("r", {1, 2});
  EXPECT_DEATH(db.AddRow("r", {1}), "arity");
}

}  // namespace
}  // namespace vbr
