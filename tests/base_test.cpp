/**
 * @file
 * Unit tests for src/base: logging, RNG, statistics.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"

namespace genesis {
namespace {

/** Sets an environment variable for one scope, unsetting on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(Env, UnsetReturnsFallbackSilently)
{
    ::unsetenv("GENESIS_TEST_KNOB");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").present);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 42), 42);
}

TEST(Env, EmptyStringIsTreatedAsUnset)
{
    ScopedEnv env("GENESIS_TEST_KNOB", "");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").present);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 7), 7);
}

TEST(Env, ValidIntegersParse)
{
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "4");
        EnvInt parsed = parseEnvInt("GENESIS_TEST_KNOB");
        EXPECT_TRUE(parsed.present);
        EXPECT_TRUE(parsed.valid);
        EXPECT_EQ(parsed.value, 4);
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), 4);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "-5");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), -5);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "+12");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 1), 12);
    }
}

TEST(Env, TrailingGarbageFallsBack)
{
    // The historical std::atoll path silently read "4x" as 4 — a typo'd
    // GENESIS_SERVICE_BOARDS=4x misconfigured the fleet without a word.
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "4x");
    EnvInt parsed = parseEnvInt("GENESIS_TEST_KNOB");
    EXPECT_TRUE(parsed.present);
    EXPECT_FALSE(parsed.valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, NonNumericFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "abc");
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, LeadingWhitespaceFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", " 4");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, OverflowFallsBack)
{
    setQuiet(true);
    ScopedEnv env("GENESIS_TEST_KNOB", "99999999999999999999999");
    EXPECT_FALSE(parseEnvInt("GENESIS_TEST_KNOB").valid);
    EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 9), 9);
    setQuiet(false);
}

TEST(Env, OutOfRangeValueFallsBack)
{
    setQuiet(true);
    {
        // A parseable value below the knob's minimum is rejected, not
        // clamped: 0 boards is as wrong as "abc" boards.
        ScopedEnv env("GENESIS_TEST_KNOB", "0");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 3, 1), 3);
    }
    {
        ScopedEnv env("GENESIS_TEST_KNOB", "500");
        EXPECT_EQ(envInt64("GENESIS_TEST_KNOB", 3, 1, 100), 3);
    }
    setQuiet(false);
}

TEST(Env, DoubleParsesWholeFiniteNumbers)
{
    ASSERT_TRUE(parseDouble("1.5").has_value());
    EXPECT_EQ(*parseDouble("1.5"), 1.5);
    EXPECT_EQ(*parseDouble("-2"), -2.0);
}

TEST(Env, DoubleRejectsGarbageEmptyAndNonFinite)
{
    // A loose parse reads these as 1.5, 0, 0 or nan, and a --require-*
    // gate given such a threshold would silently stop gating.
    for (const char *text : {"1.5x", "", "abc", "nan", "inf", " 1.5",
                             "1e999"}) {
        EXPECT_FALSE(parseDouble(text).has_value()) << "'" << text << "'";
    }
}

TEST(Env, FlagUnsetEmptyAndZeroAreOff)
{
    ::unsetenv("GENESIS_TEST_FLAG");
    EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    {
        ScopedEnv env("GENESIS_TEST_FLAG", "");
        EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    }
    {
        // "0" used to switch presence-only hatches on.
        ScopedEnv env("GENESIS_TEST_FLAG", "0");
        EXPECT_FALSE(envFlag("GENESIS_TEST_FLAG"));
    }
}

TEST(Env, FlagOneIsOn)
{
    ScopedEnv env("GENESIS_TEST_FLAG", "1");
    testing::internal::CaptureStderr();
    EXPECT_TRUE(envFlag("GENESIS_TEST_FLAG"));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Env, FlagOtherValueWarnsAndIsOn)
{
    ScopedEnv env("GENESIS_TEST_FLAG", "yes");
    testing::internal::CaptureStderr();
    EXPECT_TRUE(envFlag("GENESIS_TEST_FLAG"));
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("GENESIS_TEST_FLAG"), std::string::npos) << err;
    EXPECT_NE(err.find("yes"), std::string::npos) << err;
}

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("a%db%s", 7, "x"), "a7bx");
    EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(Logging, PanicThrowsPanicError)
{
    setQuiet(true);
    EXPECT_THROW(panic("boom %d", 1), PanicError);
    setQuiet(false);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input %s", "x"), FatalError);
}

TEST(Logging, FatalMessageContainsText)
{
    try {
        fatal("unique-marker-%d", 42);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unique-marker-42"),
                  std::string::npos);
    }
}

TEST(Logging, AssertMacroPassesAndFails)
{
    setQuiet(true);
    EXPECT_NO_THROW(GENESIS_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(GENESIS_ASSERT(1 == 2, "value %d", 3), PanicError);
    setQuiet(false);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(StatRegistry, AddGetSet)
{
    StatRegistry r;
    EXPECT_EQ(r.get("x"), 0u);
    r.add("x");
    r.add("x", 4);
    EXPECT_EQ(r.get("x"), 5u);
    r.set("x", 2);
    EXPECT_EQ(r.get("x"), 2u);
}

TEST(StatRegistry, MergeAddsCounters)
{
    StatRegistry a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 3u);
}

TEST(StatRegistry, CounterHandleAliasesNamedCounter)
{
    StatRegistry r;
    StatRegistry::Counter h = r.counter("x");
    EXPECT_EQ(r.get("x"), 0u); // interning creates the counter at zero
    ++*h;
    *h += 3;
    EXPECT_EQ(r.get("x"), 4u);
    r.add("x", 6);
    EXPECT_EQ(*h, 10u); // add() and the handle hit the same slot
    EXPECT_EQ(r.counter("x"), h); // re-interning returns the same handle
}

TEST(StatRegistry, CounterKeepsIterationOrder)
{
    StatRegistry r;
    r.counter("b");
    r.add("a");
    r.counter("c");
    std::vector<std::string> names;
    for (const auto &[name, value] : r.counters())
        names.push_back(name);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(StatRegistry, CreditDeltaMultipliesGrowth)
{
    StatRegistry r;
    r.add("grew", 5);
    r.add("steady", 7);
    std::vector<StatRegistry::Sample> samples;
    r.snapshot(samples);
    ASSERT_EQ(samples.size(), 2u);
    r.add("grew", 2);
    // Created after the snapshot, sorting before, between and after the
    // sampled names: their full value grew.
    r.add("fresh", 1);
    r.add("middle", 3);
    r.add("tail", 2);
    r.counter("untouched");
    r.creditDelta(samples, 10);
    EXPECT_EQ(r.get("grew"), 5u + 2u + 2u * 10u);
    EXPECT_EQ(r.get("steady"), 7u);
    EXPECT_EQ(r.get("fresh"), 1u + 1u * 10u);
    EXPECT_EQ(r.get("middle"), 3u + 3u * 10u);
    EXPECT_EQ(r.get("tail"), 2u + 2u * 10u);
    EXPECT_EQ(r.get("untouched"), 0u);
}

TEST(StatRegistry, CreditDeltaReadsOnlyItsOwnSegment)
{
    // The simulator samples many registries into one flat list and
    // credits each from its own segment.
    StatRegistry a, b;
    a.add("x", 1);
    b.add("x", 4);
    b.add("y", 9);
    std::vector<StatRegistry::Sample> samples;
    a.snapshot(samples);
    b.snapshot(samples);
    ASSERT_EQ(samples.size(), 3u);
    a.add("x");
    b.add("y", 3);
    b.add("z", 1);
    const std::span<const StatRegistry::Sample> all(samples);
    a.creditDelta(all.subspan(0, 1), 4);
    b.creditDelta(all.subspan(1), 4);
    EXPECT_EQ(a.get("x"), 2u + 1u * 4u);
    EXPECT_EQ(b.get("x"), 4u);
    EXPECT_EQ(b.get("y"), 12u + 3u * 4u);
    EXPECT_EQ(b.get("z"), 1u + 1u * 4u);
}

TEST(StatRegistry, ReportContainsEntries)
{
    StatRegistry r;
    r.add("alpha", 7);
    std::string report = r.report("pfx.");
    EXPECT_NE(report.find("pfx.alpha = 7"), std::string::npos);
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(5 * 1024.0 * 1024.0), "5.00 MiB");
}

TEST(Format, Seconds)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(0.002), "2.000 ms");
    EXPECT_EQ(formatSeconds(3e-6), "3.000 us");
}

} // namespace
} // namespace genesis
