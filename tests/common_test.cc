/**
 * @file
 * Unit tests for src/common: bit utilities, logging macros and the
 * text-table formatter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/bitutils.hh"
#include "common/flags.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace rmb {
namespace {

TEST(BitUtils, IsPowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(4));
    EXPECT_FALSE(isPowerOfTwo(6));
    EXPECT_TRUE(isPowerOfTwo(1ull << 63));
    EXPECT_FALSE(isPowerOfTwo((1ull << 63) + 1));
}

TEST(BitUtils, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(4), 2u);
    EXPECT_EQ(log2Floor(1023), 9u);
    EXPECT_EQ(log2Floor(1024), 10u);
}

TEST(BitUtils, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(4), 2u);
    EXPECT_EQ(log2Ceil(5), 3u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Ceil(1025), 11u);
}

TEST(BitUtils, BitReverse)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b110, 3), 0b011u);
    EXPECT_EQ(bitReverse(0b101, 3), 0b101u);
    EXPECT_EQ(bitReverse(1, 1), 1u);
    EXPECT_EQ(bitReverse(0, 4), 0u);
}

TEST(BitUtils, BitReverseIsInvolution)
{
    for (std::uint64_t v = 0; v < 64; ++v)
        EXPECT_EQ(bitReverse(bitReverse(v, 6), 6), v);
}

TEST(BitUtils, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
}

TEST(Logging, AssertPassesOnTrue)
{
    rmb_assert(1 + 1 == 2, "never printed");
    SUCCEED();
}

TEST(LoggingDeathTest, AssertAbortsOnFalse)
{
    EXPECT_DEATH(rmb_assert(false, "boom ", 42), "boom 42");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("internal bug ", 7), "internal bug 7");
}

TEST(LoggingDeathTest, FatalExitsWithCode1)
{
    EXPECT_EXIT(fatal("user error"), ::testing::ExitedWithCode(1),
                "user error");
}

TEST(Flags, UintParsesTheWholeRange)
{
    using common::flagUint;
    EXPECT_EQ(flagUint<unsigned>("t", "--jobs", "0"), 0u);
    EXPECT_EQ(flagUint<unsigned>("t", "--jobs", "4294967295"),
              4294967295u);
    EXPECT_EQ(flagUint<std::uint64_t>("t", "--seed",
                                      "18446744073709551615"),
              18446744073709551615u);
}

TEST(FlagsDeathTest, MalformedUintExitsWithCode2)
{
    using common::flagUint;
    const auto refused = ::testing::ExitedWithCode(2);
    const char *message =
        "t: --jobs expects an integer in \\[0, 4294967295\\]";
    for (const char *bad : {"", "abc", "12abc", "x2", "-1", "+1", " 1",
                            "4294967296"})
        EXPECT_EXIT(flagUint<unsigned>("t", "--jobs", bad), refused,
                    message)
            << "'" << bad << "'";
    EXPECT_EXIT(flagUint<std::uint64_t>("t", "--seed",
                                        "18446744073709551616"),
                refused, "--seed expects");
}

TEST(TextTable, RendersHeadersAndRows)
{
    TextTable t("caption text", {"a", "bb", "ccc"});
    t.addRow({"1", "22", "333"});
    t.addRow({"x", "y", "z"});
    EXPECT_EQ(t.numRows(), 2u);

    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("# caption text"), std::string::npos);
    EXPECT_NE(out.find("| a |"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    TextTable t("cap", {"n", "v"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "# cap\nn,v\n1,2\n");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(std::uint64_t{12345}), "12345");
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTableDeathTest, RowArityMismatchPanics)
{
    TextTable t("cap", {"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

} // namespace
} // namespace rmb
