// Tests for the base utilities: Status/Result, DynamicBitset, Rng,
// string helpers and hashing.

#include <gtest/gtest.h>

#include <set>

#include "base/dynamic_bitset.h"
#include "base/random.h"
#include "base/status.h"
#include "base/string_util.h"

namespace prefrep {
namespace {

TEST(StatusTest, OkAndErrors) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = Status::InvalidArgument("bad fd");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad fd");
}

TEST(StatusTest, ResultValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(7), 42);

  Result<int> bad = Status::NotFound("missing");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(BitsetTest, SetTestCount) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(63));
  b.reset(64);
  EXPECT_EQ(b.count(), 2u);
}

TEST(BitsetTest, SetAllRespectsUniverse) {
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  EXPECT_EQ(b.ToVector().back(), 69u);
}

TEST(BitsetTest, Algebra) {
  DynamicBitset a(100), b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(2);
  EXPECT_EQ((a & b).ToVector(), std::vector<size_t>{50});
  EXPECT_EQ((a | b).count(), 4u);
  EXPECT_EQ((a - b).ToVector(), (std::vector<size_t>{1, 99}));
  EXPECT_TRUE((a & b).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_FALSE(a.IsDisjointFrom(b));
  b.reset(50);
  EXPECT_TRUE(a.IsDisjointFrom(b));
}

TEST(BitsetTest, ForEachOrderAndFindFirst) {
  DynamicBitset b(200);
  b.set(150);
  b.set(3);
  b.set(64);
  EXPECT_EQ(b.ToVector(), (std::vector<size_t>{3, 64, 150}));
  EXPECT_EQ(b.FindFirst(), 3u);
  DynamicBitset empty(10);
  EXPECT_EQ(empty.FindFirst(), 10u);
}

TEST(BitsetTest, EqualityAndHash) {
  DynamicBitset a(65), b(65);
  a.set(64);
  EXPECT_NE(a, b);
  b.set(64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.HashValue(), b.HashValue());
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedIsInRangeAndCoversValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacement) {
  Rng rng(17);
  std::vector<size_t> s = rng.Sample(10, 4);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 4u);
  for (size_t x : s) {
    EXPECT_LT(x, 10u);
  }
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(3);
  ZipfTable zipf(100, 1.2);
  size_t low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (zipf.Sample(&rng) < 10) {
      ++low;
    }
  }
  EXPECT_GT(low, 1000u);  // heavy head
}

TEST(StringUtilTest, SplitJoinTrim) {
  EXPECT_EQ(StrSplitTrimmed(" a , b ,, c ", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  std::vector<std::string_view> pieces{"stale"};
  StrSplitTrimmedViews(" a , b ,, c ", ',', &pieces);
  EXPECT_EQ(pieces, (std::vector<std::string_view>{"a", "b", "c"}));
  StrSplitTrimmedViews(" \t ", ',', &pieces);
  EXPECT_TRUE(pieces.empty());
  EXPECT_EQ(StrJoin({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(StripAsciiWhitespace("  hi\t"), "hi");
  EXPECT_TRUE(StartsWith("relation R 2", "relation "));
  EXPECT_FALSE(StartsWith("rel", "relation"));
}

TEST(StringUtilTest, ParseUint) {
  EXPECT_EQ(ParseUint("0"), 0u);
  EXPECT_EQ(ParseUint("12345"), 12345u);
  EXPECT_FALSE(ParseUint("").has_value());
  EXPECT_FALSE(ParseUint("-3").has_value());
  EXPECT_FALSE(ParseUint("1a").has_value());
  EXPECT_FALSE(ParseUint("99999999999999999999999").has_value());
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%zu", size_t{42}), "42");
}

TEST(BitsetTest, EmptyUniverse) {
  DynamicBitset b(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.FindFirst(), 0u);  // "not found" == size()
  EXPECT_TRUE(b.ToVector().empty());
  b.set_all();  // must be a no-op, not an overflow into a phantom word
  EXPECT_EQ(b.count(), 0u);
  size_t visited = 0;
  b.ForEach([&](size_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(b, DynamicBitset(0));
}

TEST(BitsetTest, WordBoundarySizes) {
  // Sizes straddling the 64-bit word boundary: the tail word is partial
  // (63), exactly full (64), and barely spilled (65).  set_all() must not
  // set ghost bits past size(), and count()/FindFirst() must agree.
  for (size_t n : {63u, 64u, 65u}) {
    DynamicBitset b(n);
    b.set_all();
    EXPECT_EQ(b.count(), n) << "size " << n;
    EXPECT_TRUE(b.test(n - 1)) << "size " << n;
    EXPECT_EQ(b.ToVector().back(), n - 1) << "size " << n;

    DynamicBitset last(n);
    last.set(n - 1);
    EXPECT_EQ(last.FindFirst(), n - 1) << "size " << n;
    EXPECT_EQ(last.count(), 1u) << "size " << n;
    EXPECT_TRUE(last.IsSubsetOf(b)) << "size " << n;
    b -= last;
    EXPECT_EQ(b.count(), n - 1) << "size " << n;
    EXPECT_TRUE(b.IsDisjointFrom(last)) << "size " << n;
  }
}

TEST(BitsetTest, IterationAfterClear) {
  DynamicBitset b(100);
  b.set(1);
  b.set(64);
  b.set(99);
  b.clear();
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.FindFirst(), 100u);
  size_t visited = 0;
  b.ForEach([&](size_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  // The bitset must stay fully usable after clear().
  b.set(64);
  EXPECT_EQ(b.FindFirst(), 64u);
  EXPECT_EQ(b.ToVector(), (std::vector<size_t>{64}));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
}

// Helpers exercising the propagation macros the parsers are built on.
Status FailWhenNegative(int x) {
  if (x < 0) {
    return Status::OutOfRange("negative");
  }
  return Status::OK();
}

Status PropagateNotOk(int x) {
  PREFREP_RETURN_NOT_OK(FailWhenNegative(x));
  return Status::OK();
}

Result<int> DoubleIfFound(Result<int> r) {
  int value = 0;
  PREFREP_ASSIGN_OR_RETURN(value, std::move(r));
  return value * 2;
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(PropagateNotOk(5).ok());
  Status st = PropagateNotOk(-1);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(st.message(), "negative");
}

TEST(StatusTest, AssignOrReturnPropagates) {
  Result<int> good = DoubleIfFound(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = DoubleIfFound(Status::NotFound("no fact"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.status().message(), "no fact");
}

}  // namespace
}  // namespace prefrep
