// Status/Result error model and the small utility layer.
#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rma {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status st = Status::Invalid("bad order schema");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(st.message(), "bad order schema");
  EXPECT_EQ(st.ToString(), "Invalid: bad order schema");
  EXPECT_TRUE(Status::KeyError("").IsKeyError());
  EXPECT_TRUE(Status::TypeError("").IsTypeError());
  EXPECT_TRUE(Status::NumericError("").IsNumericError());
  EXPECT_TRUE(Status::ResourceExhausted("").IsResourceExhausted());
  EXPECT_TRUE(Status::ParseError("").IsParseError());
  EXPECT_TRUE(Status::NotImplemented("").IsNotImplemented());
  EXPECT_TRUE(Status::IoError("").IsIoError());
  EXPECT_TRUE(Status::OutOfRange("").IsOutOfRange());
}

TEST(StatusTest, CopyIsCheap) {
  const Status a = Status::Invalid("x");
  const Status b = a;  // shared state
  EXPECT_EQ(b.message(), "x");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::Invalid("odd");
  return v / 2;
}

Status UseHalf(int v, int* out) {
  RMA_ASSIGN_OR_RETURN(*out, Half(v));
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = Half(4);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalid());
}

TEST(ResultTest, MacroPropagation) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_TRUE(UseHalf(7, &out).IsInvalid());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  std::unique_ptr<int> v = std::move(r).ValueUnsafe();
  EXPECT_EQ(*v, 7);
}

TEST(StringUtil, JoinSplitTrim) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("qqr"), "QQR");
  EXPECT_TRUE(EqualsIgnoreCase("By", "bY"));
  EXPECT_FALSE(EqualsIgnoreCase("by", "byte"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(7.0), "7");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(7.25), "7.25");
  EXPECT_EQ(FormatDouble(0.0), "0");
}

TEST(StringUtil, ParseIntRefusesWhatItCannotRepresent) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("9223372036854775807"), INT64_MAX);
  // Garbage and trailing characters are errors, not 0 or a prefix.
  for (const char* bad : {"", "abc", "12abc", "12 ", "0x10", "1.5"}) {
    EXPECT_TRUE(ParseInt(bad).status().IsInvalid()) << "'" << bad << "'";
  }
  // Overflow is refused, not clamped.
  EXPECT_TRUE(ParseInt("9223372036854775808").status().IsInvalid());
  EXPECT_TRUE(ParseInt("-9223372036854775809").status().IsInvalid());
  // So is a value outside the caller's range, bounds included exactly.
  EXPECT_EQ(*ParseInt("65535", 0, 65535), 65535);
  const Status port = ParseInt("65536", 0, 65535).status();
  EXPECT_TRUE(port.IsInvalid());
  EXPECT_NE(port.message().find("'65536'"), std::string::npos)
      << port.ToString();
  EXPECT_TRUE(ParseInt("-1", 0, 65535).status().IsInvalid());

  // The typed form writes only a value that parsed and fits.
  uint16_t narrow = 7;
  ASSERT_OK(ParseInt("8080", 0, 65535, &narrow));
  EXPECT_EQ(narrow, 8080);
  EXPECT_FALSE(ParseInt("70000", 0, 65535, &narrow).ok());
  EXPECT_EQ(narrow, 8080);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, RangesRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double s = t.Seconds();
  EXPECT_GT(s, 0.0);
  EXPECT_GE(t.Millis(), s * 1e3);  // monotone
  t.Restart();
  EXPECT_LT(t.Seconds(), s + 1.0);
}

TEST(ValueTest, TypeAndConversions) {
  EXPECT_EQ(ValueType(Value(int64_t{1})), DataType::kInt64);
  EXPECT_EQ(ValueType(Value(1.5)), DataType::kDouble);
  EXPECT_EQ(ValueType(Value(std::string("x"))), DataType::kString);
  EXPECT_EQ(ValueToDouble(Value(int64_t{3})), 3.0);
  EXPECT_EQ(ValueToString(Value(2.5)), "2.5");
  EXPECT_TRUE(ValueLess(Value(int64_t{1}), Value(2.0)));   // cross numeric
  EXPECT_TRUE(ValueEquals(Value(int64_t{2}), Value(2.0)));
  EXPECT_TRUE(ValueLess(Value(std::string("a")), Value(std::string("b"))));
  EXPECT_FALSE(ValueEquals(Value(std::string("a")), Value(1.0)));
}

}  // namespace
}  // namespace rma
