/**
 * @file
 * Unit tests for the utility module: RNG, strings, statistics,
 * regression and tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/regression.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/str.hh"
#include "util/table.hh"

using namespace mprobe;

// ---------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng r(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    bool lo = false, hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        lo |= v == -2;
        hi |= v == 2;
    }
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng r(13);
    double s = 0, s2 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = r.gaussian();
        s += g;
        s2 += g * g;
    }
    EXPECT_NEAR(s / n, 0.0, 0.03);
    EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaled)
{
    Rng r(17);
    double s = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        s += r.gaussian(5.0, 2.0);
    EXPECT_NEAR(s / n, 5.0, 0.1);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(23);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependent)
{
    Rng a(29);
    Rng b = a.fork();
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, StreamForkIsOrderIndependent)
{
    // fork(id) must depend only on (state, id): splitting stream 7
    // first or last, or after forking other streams, is identical.
    Rng a(31), b(31);
    Rng a7 = a.fork(7);
    (void)b.fork(3);
    (void)b.fork(12345);
    Rng b7 = b.fork(7);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a7.next(), b7.next());
}

TEST(Rng, StreamForkDoesNotAdvanceParent)
{
    Rng a(37), b(37);
    (void)a.fork(0);
    (void)a.fork(1);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamForksDiffer)
{
    Rng a(41);
    Rng s0 = a.fork(0);
    Rng s1 = a.fork(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += s0.next() == s1.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, StreamForkDiffersFromParentStream)
{
    Rng a(43);
    Rng child = a.fork(5);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == child.next();
    EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------
// Strings

TEST(Str, TrimRemovesEdges)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Str, SplitPreservesEmptyFields)
{
    auto v = split("a,,b,", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
    EXPECT_EQ(v[3], "");
}

TEST(Str, SplitWsDropsEmpty)
{
    auto v = splitWs("  one\t two \n three ");
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "one");
    EXPECT_EQ(v[2], "three");
}

TEST(Str, ToLower)
{
    EXPECT_EQ(toLower("AbC-9"), "abc-9");
}

TEST(Str, StartsWith)
{
    EXPECT_TRUE(startsWith("mulldo", "mul"));
    EXPECT_FALSE(startsWith("mu", "mul"));
}

TEST(Str, ParseIntVariants)
{
    EXPECT_EQ(parseInt("42", "t"), 42);
    EXPECT_EQ(parseInt(" -7 ", "t"), -7);
    EXPECT_EQ(parseInt("0x10", "t"), 16);
}

TEST(Str, ParseDouble)
{
    EXPECT_DOUBLE_EQ(parseDouble("2.5", "t"), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("-1e3", "t"), -1000.0);
}

TEST(StrDeath, ParseIntRejectsGarbage)
{
    EXPECT_EXIT(parseInt("12x", "ctx"),
                testing::ExitedWithCode(1), "ctx");
}

TEST(StrDeath, ParseIntRejectsOutOfRange)
{
    // strtol would clamp each to LONG_MAX or LONG_MIN.
    for (const char *bad : {"9223372036854775808", "-9223372036854775809",
                            "0xffffffffffffffff"})
        EXPECT_EXIT(parseInt(bad, "ctx"), testing::ExitedWithCode(1),
                    "out of range in ctx")
            << bad;
}

TEST(Str, ParseUint64TakesEvery64BitValue)
{
    EXPECT_EQ(parseUint64(" 42 ", "t"), 42u);
    EXPECT_EQ(parseUint64("0x8000000000000000", "t"), 1ull << 63);
    EXPECT_EQ(parseUint64("18446744073709551615", "t"), ~0ull);
    // A leading '-' is the two's complement, down to -2^63.
    EXPECT_EQ(parseUint64("-1", "t"), ~0ull);
    EXPECT_EQ(parseUint64("-0x8000000000000000", "t"), 1ull << 63);
}

TEST(StrDeath, ParseUint64RejectsOverflowAndGarbage)
{
    for (const char *bad : {"0x10000000000000000", "18446744073709551616",
                            "-0x8000000000000001"})
        EXPECT_EXIT(parseUint64(bad, "ctx"), testing::ExitedWithCode(1),
                    "out of range in ctx")
            << bad;
    for (const char *bad : {"", "12x", "1.5"})
        EXPECT_EXIT(parseUint64(bad, "ctx"), testing::ExitedWithCode(1),
                    "expected integer, got '.*' in ctx")
            << bad;
}

TEST(StrDeath, ParseDoubleRejectsNonFiniteAndOutOfRange)
{
    for (const char *bad : {"nan", "-nan", "inf", "-infinity", "1e999",
                            "-1e999", "1e-400"})
        EXPECT_EXIT(parseDouble(bad, "ctx"), testing::ExitedWithCode(1),
                    "expected a finite number in range, got '.*' in ctx")
            << bad;
}

// ---------------------------------------------------------------
// Stats

TEST(Stats, MeanAndStddev)
{
    std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(Stats, EmptyVectorsAreZero)
{
    std::vector<double> v;
    EXPECT_EQ(mean(v), 0.0);
    EXPECT_EQ(stddev(v), 0.0);
    EXPECT_EQ(minOf(v), 0.0);
    EXPECT_EQ(maxOf(v), 0.0);
}

TEST(Stats, MinMax)
{
    std::vector<double> v{3, -1, 9, 4};
    EXPECT_EQ(minOf(v), -1.0);
    EXPECT_EQ(maxOf(v), 9.0);
}

TEST(Stats, PctAbsError)
{
    EXPECT_NEAR(pctAbsError(110, 100), 10.0, 1e-12);
    EXPECT_NEAR(pctAbsError(90, 100), 10.0, 1e-12);
}

TEST(Stats, PaaeAveragesErrors)
{
    std::vector<double> pred{110, 90};
    std::vector<double> real{100, 100};
    EXPECT_NEAR(paae(pred, real), 10.0, 1e-12);
}

TEST(Stats, PaaePerfect)
{
    std::vector<double> v{5, 6, 7};
    EXPECT_DOUBLE_EQ(paae(v, v), 0.0);
}

// ---------------------------------------------------------------
// Regression

TEST(Regression, RecoversExactLinearModel)
{
    // y = 3 + 2*x0 - 0.5*x1
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng r(5);
    for (int i = 0; i < 50; ++i) {
        double a = r.uniform(0, 10), b = r.uniform(0, 10);
        x.push_back({a, b});
        y.push_back(3 + 2 * a - 0.5 * b);
    }
    auto fit = fitLeastSquares(x, y);
    EXPECT_NEAR(fit.intercept, 3.0, 1e-6);
    EXPECT_NEAR(fit.coeffs[0], 2.0, 1e-6);
    EXPECT_NEAR(fit.coeffs[1], -0.5, 1e-6);
    EXPECT_GT(fit.r2, 0.999999);
}

TEST(Regression, NonNegativeClampsAndRefits)
{
    // True weight of x1 is negative; NNLS must zero it and keep the
    // positive one close.
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng r(6);
    for (int i = 0; i < 60; ++i) {
        double a = r.uniform(0, 10), b = r.uniform(0, 10);
        x.push_back({a, b});
        y.push_back(1 + 4 * a - 0.3 * b + r.gaussian(0, 0.01));
    }
    RegressionOptions opts;
    opts.nonNegative = true;
    auto fit = fitLeastSquares(x, y, opts);
    EXPECT_GE(fit.coeffs[0], 0.0);
    EXPECT_EQ(fit.coeffs[1], 0.0);
    EXPECT_NEAR(fit.coeffs[0], 4.0, 0.2);
}

TEST(Regression, NoInterceptGoesThroughOrigin)
{
    std::vector<std::vector<double>> x{{1}, {2}, {3}};
    std::vector<double> y{2, 4, 6};
    RegressionOptions opts;
    opts.fitIntercept = false;
    auto fit = fitLeastSquares(x, y, opts);
    EXPECT_EQ(fit.intercept, 0.0);
    EXPECT_NEAR(fit.coeffs[0], 2.0, 1e-9);
}

TEST(Regression, DegenerateColumnGetsZero)
{
    std::vector<std::vector<double>> x{{1, 0}, {2, 0}, {3, 0},
                                       {4, 0}};
    std::vector<double> y{2, 4, 6, 8};
    auto fit = fitLeastSquares(x, y);
    EXPECT_NEAR(fit.coeffs[0], 2.0, 1e-4);
    EXPECT_NEAR(fit.coeffs[1], 0.0, 1e-4);
}

TEST(Regression, ResidualsSumNearZeroWithIntercept)
{
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    Rng r(8);
    for (int i = 0; i < 40; ++i) {
        double a = r.uniform(0, 5);
        x.push_back({a});
        y.push_back(1 + a + r.gaussian(0, 0.5));
    }
    auto fit = fitLeastSquares(x, y);
    double s = 0;
    for (double e : fit.residuals)
        s += e;
    EXPECT_NEAR(s, 0.0, 1e-6);
}

TEST(Regression, PredictMatchesManualDot)
{
    RegressionResult r;
    r.coeffs = {2.0, -1.0};
    r.intercept = 0.5;
    EXPECT_DOUBLE_EQ(r.predict({3.0, 4.0}), 0.5 + 6.0 - 4.0);
}

TEST(Regression, SolveLinearSystem3x3)
{
    // x = 1, y = 2, z = 3 for a well-conditioned system.
    std::vector<double> a{2, 1, 0, 1, 3, 1, 0, 1, 2};
    std::vector<double> b{2 * 1 + 2, 1 + 6 + 3, 2 + 6};
    auto x = solveLinearSystem(a, b, 3);
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 2.0, 1e-9);
    EXPECT_NEAR(x[2], 3.0, 1e-9);
}

TEST(Regression, SolveSingularReturnsEmpty)
{
    std::vector<double> a{1, 2, 2, 4};
    std::vector<double> b{1, 2};
    EXPECT_TRUE(solveLinearSystem(a, b, 2).empty());
}

// Property sweep: OLS recovers random planted models.
class RegressionRecovery : public testing::TestWithParam<int>
{
};

TEST_P(RegressionRecovery, PlantedModelRecovered)
{
    Rng r(static_cast<uint64_t>(GetParam()) * 77 + 1);
    size_t p = 1 + r.pick(5);
    std::vector<double> w(p);
    for (auto &c : w)
        c = r.uniform(-3, 3);
    double b = r.uniform(-5, 5);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 120; ++i) {
        std::vector<double> row(p);
        double t = b;
        for (size_t j = 0; j < p; ++j) {
            row[j] = r.uniform(-4, 4);
            t += w[j] * row[j];
        }
        x.push_back(std::move(row));
        y.push_back(t);
    }
    auto fit = fitLeastSquares(x, y);
    EXPECT_NEAR(fit.intercept, b, 1e-6);
    for (size_t j = 0; j < p; ++j)
        EXPECT_NEAR(fit.coeffs[j], w[j], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegressionRecovery,
                         testing::Range(0, 12));

// ---------------------------------------------------------------
// TextTable

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, CsvEscapesCommas)
{
    TextTable t({"a"});
    t.addRow({"x,y"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, RowCount)
{
    TextTable t({"a", "b"});
    EXPECT_EQ(t.rows(), 0u);
    t.addRow({"1", "2"});
    EXPECT_EQ(t.rows(), 1u);
}

// ---------------------------------------------------------------
// ArgParser

#include "util/args.hh"

TEST(ArgParser, OptionsFlagsAndPositionals)
{
    ArgParser a;
    a.addOption("size", "4096", "body size");
    a.addOption("name", "", "a name");
    a.addFlag("run", "run it");
    const char *argv[] = {"tool", "--size", "128", "--name=x",
                          "--run", "pos1", "pos2"};
    a.parse(7, argv, "test tool");
    EXPECT_EQ(a.getInt("size"), 128);
    EXPECT_EQ(a.get("name"), "x");
    EXPECT_TRUE(a.getFlag("run"));
    ASSERT_EQ(a.positional().size(), 2u);
    EXPECT_EQ(a.positional()[0], "pos1");
}

TEST(ArgParser, DefaultsApplyWhenUnset)
{
    ArgParser a;
    a.addOption("size", "4096", "body size");
    a.addFlag("run", "run it");
    const char *argv[] = {"tool"};
    a.parse(1, argv, "test tool");
    EXPECT_EQ(a.getInt("size"), 4096);
    EXPECT_FALSE(a.getFlag("run"));
}

TEST(ArgParserDeath, UnknownOptionFatal)
{
    ArgParser a;
    a.addOption("size", "1", "x");
    const char *argv[] = {"tool", "--bogus", "3"};
    EXPECT_EXIT(a.parse(3, argv, "d"), testing::ExitedWithCode(1),
                "unknown option");
}

TEST(ArgParserDeath, MissingValueFatal)
{
    ArgParser a;
    a.addOption("size", "1", "x");
    const char *argv[] = {"tool", "--size"};
    EXPECT_EXIT(a.parse(2, argv, "d"), testing::ExitedWithCode(1),
                "needs a value");
}

TEST(ArgParser, UsageListsOptions)
{
    ArgParser a;
    a.addOption("size", "4096", "loop body size");
    a.addFlag("run", "run it");
    std::string u = a.usage("tool", "desc");
    EXPECT_NE(u.find("--size"), std::string::npos);
    EXPECT_NE(u.find("loop body size"), std::string::npos);
    EXPECT_NE(u.find("--run"), std::string::npos);
}

// ---------------------------------------------------------------
// Filesystem helpers

#include <filesystem>
#include <fstream>

#include "util/fileio.hh"

namespace
{

/** Number of "<base>.tmp.*" leftovers next to @p base. */
size_t
tempCount(const std::filesystem::path &base)
{
    size_t n = 0;
    std::string prefix = base.filename().string() + ".tmp.";
    for (const auto &e :
         std::filesystem::directory_iterator(base.parent_path()))
        if (e.path().filename().string().rfind(prefix, 0) == 0)
            ++n;
    return n;
}

} // namespace

TEST(AtomicWriteFile, PublishesContent)
{
    std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "mprobe-fileio-ok";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::path target = dir / "out.txt";
    ASSERT_TRUE(atomicWriteFile(target.string(), "payload\n",
                                "test"));
    std::ifstream f(target);
    std::string line;
    ASSERT_TRUE(std::getline(f, line));
    EXPECT_EQ(line, "payload");
    EXPECT_EQ(tempCount(target), 0u);
}

TEST(AtomicWriteFile, FailedRenameRemovesTemp)
{
    // Make the final rename fail by using a non-empty directory as
    // the target path: the temp write succeeds, the publish
    // cannot. The temp must not be leaked — shard runs share cache
    // directories, and leaked .tmp.<pid>.<tid> files would
    // accumulate across processes.
    std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        "mprobe-fileio-fail";
    std::filesystem::remove_all(dir);
    std::filesystem::path target = dir / "occupied";
    std::filesystem::create_directories(target);
    std::ofstream(target / "resident") << "x";
    EXPECT_FALSE(atomicWriteFile(target.string(), "payload\n",
                                 "test"));
    EXPECT_EQ(tempCount(target), 0u);
    // The target is untouched.
    EXPECT_TRUE(std::filesystem::is_directory(target));
}

// ---------------------------------------------------------------
// Hashing

#include "util/hash.hh"

TEST(LaneHasher, EveryLaneEndsWhereItsHasherWould)
{
    // The same adds on a Hasher and on the lanes, including -0.0
    // (hashes as 0.0), a float, a negative int, a bool and a string
    // longer than the lanes' chunk.
    auto feed = [](auto &h) {
        for (int i = 0; i < 700; ++i)
            h.add(uint64_t{0x9e3779b97f4a7c15ull} * i);
        h.add(-0.0).add(1.5f).add(-7).add(true);
        h.add(std::string(5000, 'x')).add(uint64_t{1});
    };
    // Lane counts around the block width of 8: the remainder block
    // alone, one full block, full blocks plus a remainder.
    for (size_t n = 0; n <= 25; ++n) {
        std::vector<uint64_t> starts;
        std::vector<uint64_t> want;
        for (size_t i = 0; i < n; ++i) {
            Hasher h;
            h.add(static_cast<uint64_t>(i));
            starts.push_back(h.digest());
            feed(h);
            want.push_back(h.digest());
        }
        LaneHasher lanes(starts);
        feed(lanes);
        EXPECT_EQ(lanes.digests(), want) << n << " lanes";
    }
}
