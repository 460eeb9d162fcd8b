// Tests for the common substrate: checks, units, formatting.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "common/check.h"
#include "common/format.h"
#include "common/units.h"

namespace mepipe {
namespace {

TEST(Check, PassingConditionIsNoop) {
  EXPECT_NO_THROW(MEPIPE_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(MEPIPE_CHECK_EQ(4, 4));
  EXPECT_NO_THROW(MEPIPE_CHECK_LT(1, 2));
}

TEST(Check, FailureThrowsWithLocationAndMessage) {
  try {
    MEPIPE_CHECK_EQ(1, 2) << "custom context " << 42;
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_common.cc"), std::string::npos);
    EXPECT_NE(what.find("custom context 42"), std::string::npos);
  }
}

TEST(Check, ComparisonVariants) {
  EXPECT_THROW(MEPIPE_CHECK_NE(3, 3), CheckError);
  EXPECT_THROW(MEPIPE_CHECK_GE(1, 2), CheckError);
  EXPECT_THROW(MEPIPE_CHECK_GT(2, 2), CheckError);
  EXPECT_THROW(MEPIPE_CHECK_LE(3, 2), CheckError);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(Milliseconds(1500), 1.5);
  EXPECT_DOUBLE_EQ(ToMilliseconds(0.25), 250.0);
  EXPECT_DOUBLE_EQ(ToMicroseconds(1e-3), 1000.0);
  EXPECT_DOUBLE_EQ(ToGiB(2 * kGiB), 2.0);
  EXPECT_DOUBLE_EQ(ToTeraflops(3.5 * kTera), 3.5);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(24 * kGiB), "24.00 GiB");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(FormatSeconds(2.0), "2.000 s");
  EXPECT_EQ(FormatSeconds(0.0123), "12.3 ms");
  EXPECT_EQ(FormatSeconds(45e-6), "45.0 us");
}

TEST(Units, FormatFlopsRate) {
  EXPECT_EQ(FormatFlopsRate(330e12), "330.0 TFLOPS");
  EXPECT_EQ(FormatFlopsRate(5e9), "5.0 GFLOPS");
}

TEST(Format, StrFormat) {
  EXPECT_EQ(StrFormat("a=%d b=%s", 3, "x"), "a=3 b=x");
  EXPECT_EQ(StrFormat("%.2f", 1.23456), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(Format, StrFormatOutputOfAnyLength) {
  // Lengths around 256 bytes, where the one-pass stack buffer ends and
  // the two-pass fallback begins, and far beyond it.
  for (const int length : {0, 1, 254, 255, 256, 257, 5000}) {
    const std::string text(static_cast<std::size_t>(length), 'x');
    EXPECT_EQ(StrFormat("%s", text.c_str()), text) << length;
    // A formatted tail that crosses the boundary.
    EXPECT_EQ(StrFormat("%s/%d/%.0f", text.c_str(), 42, 7.0), text + "/42/7") << length;
  }
  EXPECT_EQ(StrFormat("analytic/%d/%.0f/%d/%d/%.0f", 1, 24.0, 16384, 8, 7200.0),
            "analytic/1/24/16384/8/7200");
}

TEST(Format, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcdef", 4), "abcd");
  EXPECT_EQ(PadLeft("7", 3), "  7");
  EXPECT_EQ(PadLeft("1234", 3), "1234");
}

TEST(Format, RenderTableAlignsColumns) {
  const std::string table = RenderTable({{"name", "value"}, {"x", "100"}, {"long-name", "2"}});
  EXPECT_NE(table.find("name       value"), std::string::npos);
  EXPECT_NE(table.find("---------  -----"), std::string::npos);
  EXPECT_NE(table.find("long-name  2"), std::string::npos);
}

TEST(Format, RenderTableRejectsRaggedRows) {
  EXPECT_THROW(RenderTable({{"a", "b"}, {"only-one"}}), CheckError);
}

}  // namespace
}  // namespace mepipe
