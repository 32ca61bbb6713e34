// Unit tests for the TLA value universe (opentla/value).

#include <gtest/gtest.h>

#include <unordered_set>

#include "opentla/value/domain.hpp"
#include "opentla/value/value.hpp"

namespace opentla {
namespace {

TEST(Value, DefaultIsFalse) {
  Value v;
  EXPECT_TRUE(v.is_bool());
  EXPECT_FALSE(v.as_bool());
}

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::boolean(true).as_bool());
  EXPECT_EQ(Value::integer(-7).as_int(), -7);
  EXPECT_EQ(Value::string("hi").as_string(), "hi");
  EXPECT_EQ(Value::tuple({Value::integer(1)}).as_tuple().size(), 1u);
}

TEST(Value, AccessorThrowsOnKindMismatch) {
  EXPECT_THROW(Value::integer(1).as_bool(), std::runtime_error);
  EXPECT_THROW(Value::boolean(true).as_int(), std::runtime_error);
  EXPECT_THROW(Value::integer(1).as_tuple(), std::runtime_error);
  EXPECT_THROW(Value::tuple({}).as_string(), std::runtime_error);
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::integer(2)}),
            Value::tuple({Value::integer(1), Value::integer(2)}));
  EXPECT_FALSE(Value::tuple({Value::integer(1)}) == Value::tuple({Value::integer(2)}));
  EXPECT_FALSE(Value::integer(0) == Value::boolean(false));
}

TEST(Value, TotalOrderAcrossKinds) {
  // Bool < Int < String < Tuple by kind index.
  EXPECT_LT(Value::boolean(true), Value::integer(0));
  EXPECT_LT(Value::integer(100), Value::string(""));
  EXPECT_LT(Value::string("zzz"), Value::tuple({}));
}

TEST(Value, TupleOrderIsLexicographic) {
  EXPECT_LT(Value::tuple({}), Value::tuple({Value::integer(0)}));
  EXPECT_LT(Value::tuple({Value::integer(0)}),
            Value::tuple({Value::integer(0), Value::integer(0)}));
  EXPECT_LT(Value::tuple({Value::integer(0), Value::integer(5)}),
            Value::tuple({Value::integer(1)}));
}

TEST(Value, HashAgreesWithEquality) {
  Value a = Value::tuple({Value::integer(3), Value::string("x")});
  Value b = Value::tuple({Value::integer(3), Value::string("x")});
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Value, ValueHash> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
}

TEST(Value, HashIsPlatformStableGolden) {
  // Value::hash is an in-house FNV-1a over fixed little-endian bytes, so
  // these values hold on every platform and standard library (the old
  // std::hash<std::string> String case varied per implementation). The
  // 64-bit state fingerprints feed persisted formats; a golden mismatch
  // here means the hash recipe changed and must be bumped deliberately.
  EXPECT_EQ(Value::boolean(false).hash(), 0xa31e272015f12c43ULL);
  EXPECT_EQ(Value::boolean(true).hash(), 0x842360170b01e222ULL);
  EXPECT_EQ(Value::integer(42).hash(), 0xed599cafa26114e8ULL);
  EXPECT_EQ(Value::integer(-1).hash(), 0x20434c8ee71f287aULL);
  EXPECT_EQ(Value::string("").hash(), 0x0521fb8fefc6fbc1ULL);
  EXPECT_EQ(Value::string("abc").hash(), 0x346d367f17090306ULL);
  EXPECT_EQ(Value::tuple({}).hash(), 0xb623e5c7dcb1e380ULL);
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::string("x")}).hash(),
            0x306b47be84abf747ULL);
}

TEST(Value, NestedEmptyTuplesHashDistinctly) {
  // Regression for the weak-mixing bug: the old hash mixed tuple elements
  // before the length, so an empty tuple contributed only a trailing zero
  // and deep nests <<>>, <<<<>>>>, ... hashed nearly identically. Length-
  // first mixing gives every nesting depth a distinct running hash.
  const Value e0 = Value::tuple({});
  const Value e1 = Value::tuple({e0});
  const Value e2 = Value::tuple({e1});
  EXPECT_NE(e0.hash(), e1.hash());
  EXPECT_NE(e1.hash(), e2.hash());
  EXPECT_NE(e0.hash(), e2.hash());
  EXPECT_EQ(e1.hash(), 0xcc8957142d4ed700ULL);
  EXPECT_EQ(e2.hash(), 0x906fa8fb5b896e5dULL);
  // Nesting is not associative for the hash either: <<<<>>, <<>>>> and
  // <<<<<<>>>>>> have the same leaf count but must hash apart.
  EXPECT_NE(Value::tuple({e0, e0}).hash(), Value::tuple({e1}).hash());
}

TEST(Value, Printing) {
  EXPECT_EQ(Value::boolean(true).to_string(), "TRUE");
  EXPECT_EQ(Value::integer(-3).to_string(), "-3");
  EXPECT_EQ(Value::string("q").to_string(), "\"q\"");
  EXPECT_EQ(Value::tuple({Value::integer(1), Value::integer(2)}).to_string(), "<<1, 2>>");
  EXPECT_EQ(Value::empty_seq().to_string(), "<<>>");
}

TEST(Value, SequenceOperations) {
  Value s = Value::tuple({Value::integer(1), Value::integer(2), Value::integer(3)});
  EXPECT_EQ(seq_head(s), Value::integer(1));
  EXPECT_EQ(seq_tail(s), Value::tuple({Value::integer(2), Value::integer(3)}));
  EXPECT_EQ(seq_append(Value::empty_seq(), Value::integer(9)),
            Value::tuple({Value::integer(9)}));
  EXPECT_EQ(seq_concat(seq_tail(s), Value::tuple({Value::integer(1)})),
            Value::tuple({Value::integer(2), Value::integer(3), Value::integer(1)}));
  EXPECT_THROW(seq_head(Value::empty_seq()), std::runtime_error);
  EXPECT_THROW(seq_tail(Value::empty_seq()), std::runtime_error);
}

TEST(Domain, SortedAndDeduplicated) {
  Domain d({Value::integer(3), Value::integer(1), Value::integer(3)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], Value::integer(1));
  EXPECT_EQ(d[1], Value::integer(3));
  EXPECT_TRUE(d.contains(Value::integer(3)));
  EXPECT_FALSE(d.contains(Value::integer(2)));
  EXPECT_EQ(d.index_of(Value::integer(3)), 1u);
  EXPECT_THROW(d.index_of(Value::integer(7)), std::runtime_error);
}

TEST(Domain, Builders) {
  EXPECT_EQ(bool_domain().size(), 2u);
  EXPECT_EQ(bit_domain().size(), 2u);
  EXPECT_EQ(range_domain(2, 5).size(), 4u);
  EXPECT_TRUE(range_domain(5, 2).empty());
}

TEST(Domain, SeqDomainCountsAllLengths) {
  // 1 + 2 + 4 + 8 sequences over two values up to length 3.
  Domain d = seq_domain(range_domain(0, 1), 3);
  EXPECT_EQ(d.size(), 15u);
  EXPECT_TRUE(d.contains(Value::empty_seq()));
  EXPECT_TRUE(d.contains(Value::tuple({Value::integer(1), Value::integer(0)})));
  EXPECT_FALSE(d.contains(Value::tuple(
      {Value::integer(0), Value::integer(0), Value::integer(0), Value::integer(0)})));
}

TEST(Domain, TupleDomainIsCartesianProduct) {
  Domain d = tuple_domain({range_domain(0, 1), range_domain(0, 2)});
  EXPECT_EQ(d.size(), 6u);
  EXPECT_TRUE(d.contains(Value::tuple({Value::integer(1), Value::integer(2)})));
}

TEST(Domain, FindReturnsSortedPositionOfEveryMember) {
  const std::vector<Domain> domains = {
      bool_domain(),
      range_domain(-3, 40),
      seq_domain(range_domain(0, 2), 4),
      tuple_domain({range_domain(0, 1), bool_domain(), range_domain(5, 7)}),
      Domain({Value::string(""), Value::string("a"), Value::string("ab"), Value::string("b")}),
      Domain({Value::boolean(true), Value::integer(1), Value::integer(0), Value::string("1"),
              Value::tuple({Value::integer(1)}), Value::empty_seq(), Value::boolean(false)}),
  };
  for (const Domain& d : domains) {
    SCOPED_TRACE(d.to_string());
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(d.find(d[i]), i);
      EXPECT_EQ(d.index_of(d[i]), i);
      EXPECT_TRUE(d.contains(d[i]));
    }
  }
  // Non-members: another kind, an integer out of range, a longer tuple.
  EXPECT_EQ(domains[0].find(Value::integer(1)), Domain::npos);
  EXPECT_EQ(domains[1].find(Value::integer(41)), Domain::npos);
  EXPECT_EQ(domains[1].find(Value::integer(-4)), Domain::npos);
  EXPECT_EQ(domains[1].find(Value::boolean(true)), Domain::npos);
  EXPECT_EQ(domains[2].find(Value::tuple({Value::integer(0), Value::integer(0), Value::integer(0),
                                          Value::integer(0), Value::integer(0)})),
            Domain::npos);
  EXPECT_EQ(domains[2].find(Value::tuple({Value::integer(3)})), Domain::npos);
  EXPECT_EQ(domains[3].find(Value::tuple({Value::integer(0), Value::boolean(true)})),
            Domain::npos);
  EXPECT_EQ(domains[4].find(Value::string("c")), Domain::npos);
  EXPECT_EQ(domains[5].find(Value::integer(2)), Domain::npos);
  EXPECT_EQ(domains[5].find(Value::string("0")), Domain::npos);
  EXPECT_FALSE(domains[4].contains(Value::integer(0)));
  EXPECT_THROW(domains[1].index_of(Value::integer(41)), std::runtime_error);
}

TEST(Domain, EmptyDomainFindsNothing) {
  for (const Domain& d : {Domain(), Domain(std::vector<Value>{}), range_domain(1, 0)}) {
    EXPECT_EQ(d.find(Value::integer(0)), Domain::npos);
    EXPECT_EQ(d.find(Value::empty_seq()), Domain::npos);
    EXPECT_FALSE(d.contains(Value::boolean(false)));
    EXPECT_THROW(d.index_of(Value::integer(0)), std::runtime_error);
  }
}

TEST(Domain, EqualityIgnoresHowTheValuesWereListed) {
  EXPECT_EQ(Domain({Value::integer(2), Value::integer(1)}), range_domain(1, 2));
  EXPECT_FALSE(Domain({Value::integer(2)}) == range_domain(1, 2));
}

}  // namespace
}  // namespace opentla
