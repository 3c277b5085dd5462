/**
 * @file
 * Unit tests for the util module: logging, strings, stats, tables,
 * DOT emission, and the deterministic PRNG.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/dot.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/strutil.hh"
#include "util/table.hh"

namespace tea {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input %d", 42), FatalError);
    try {
        fatal("value was %d", 7);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value was 7");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant %s", "broken"), PanicError);
}

TEST(Logging, AssertMacroPanicsOnlyWhenFalse)
{
    EXPECT_NO_THROW(TEA_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(TEA_ASSERT(1 + 1 == 3, "math broke"), PanicError);
}

TEST(RateLimiter, BurstThenThrottleThenRefill)
{
    RateLimiter rl(1.0, 3.0); // 1 token/s, burst of 3
    EXPECT_TRUE(rl.allowAt(100.0));
    EXPECT_TRUE(rl.allowAt(100.0));
    EXPECT_TRUE(rl.allowAt(100.0));
    EXPECT_FALSE(rl.allowAt(100.0)); // bucket empty
    EXPECT_FALSE(rl.allowAt(100.5)); // half a token is not a token
    EXPECT_EQ(rl.suppressedAndReset(), 2u);
    EXPECT_TRUE(rl.allowAt(101.5)); // one second refilled one token
    EXPECT_FALSE(rl.allowAt(101.6));
    EXPECT_EQ(rl.suppressedAndReset(), 1u);
    EXPECT_EQ(rl.suppressedAndReset(), 0u); // reset really resets
}

TEST(RateLimiter, RefillIsCappedAtBurst)
{
    RateLimiter rl(10.0, 2.0);
    EXPECT_TRUE(rl.allowAt(0.0));
    EXPECT_TRUE(rl.allowAt(0.0));
    // A very long quiet period refills to the cap, never beyond it.
    EXPECT_TRUE(rl.allowAt(1000.0));
    EXPECT_TRUE(rl.allowAt(1000.0));
    EXPECT_FALSE(rl.allowAt(1000.0));
}

std::vector<std::string> g_warnLines; ///< captured by captureWarn

void
captureWarn(const char *tag, const char *msg)
{
    if (std::string(tag) == "warn")
        g_warnLines.emplace_back(msg);
}

TEST(RateLimiter, WarnLimitedReportsWhatItSuppressed)
{
    RateLimiter &limiter = sharedWarnLimiter();
    while (limiter.allow()) {
    } // empty the shared bucket
    limiter.suppressedAndReset();
    g_warnLines.clear();
    setLogSink(captureWarn);

    uint64_t denied = 0;
    for (int i = 0; i < 3; ++i)
        if (!warnLimited("flood %d", i))
            ++denied;
    EXPECT_GT(denied, 0u) << "the bucket was just emptied";
    EXPECT_EQ(g_warnLines.size(), 3 - denied);

    // 5 tokens/s: a quarter second refills at least one.
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    g_warnLines.clear();
    EXPECT_TRUE(warnLimited("after %s", "the flood"));
    setLogSink(nullptr);
    ASSERT_EQ(g_warnLines.size(), 1u);
    EXPECT_EQ(g_warnLines[0],
              strprintf("after the flood; %llu similar warnings suppressed",
                        static_cast<unsigned long long>(denied)));
}

TEST(RateLimiter, ClockGoingBackwardsIsHarmless)
{
    RateLimiter rl(1.0, 1.0);
    EXPECT_TRUE(rl.allowAt(50.0));
    // Negative elapsed time clamps to zero instead of draining (or
    // manufacturing) tokens.
    EXPECT_FALSE(rl.allowAt(49.0));
    EXPECT_TRUE(rl.allowAt(50.5)); // 1.5s forward from the 49.0 stamp
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("%s-%04d", "x", 42), "x-0042");
    EXPECT_EQ(strprintf("no args"), "no args");
}

TEST(Strutil, Trim)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\t\n"), "");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strutil, Split)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strutil, SplitWhitespace)
{
    EXPECT_EQ(splitWhitespace("  a \t b\nc  "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strutil, ParseInt)
{
    int64_t v = 0;
    EXPECT_TRUE(parseInt("123", v));
    EXPECT_EQ(v, 123);
    EXPECT_TRUE(parseInt("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("x", v));
}

TEST(Strutil, HexAndAffixes)
{
    EXPECT_EQ(hex32(0x1000), "0x00001000");
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
    EXPECT_FALSE(endsWith("ar", "bar"));
    EXPECT_EQ(toLower("MiXeD"), "mixed");
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Strutil, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("tab\there\n"), "tab\\there\\n");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(jsonEscape("utf8 ümlaut"), "utf8 ümlaut");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(Json, WriterObjectsArraysAndEscaping)
{
    JsonWriter w;
    w.beginObject();
    w.key("name");
    w.value("he said \"hi\"\n");
    w.key("n");
    w.value(uint64_t(42));
    w.key("neg");
    w.value(int64_t(-7));
    w.key("pi");
    w.value(3.5);
    w.key("on");
    w.value(true);
    w.key("off");
    w.value(false);
    w.key("nothing");
    w.null();
    w.key("list");
    w.beginArray();
    w.value(uint64_t(1));
    w.value(uint64_t(2));
    w.endArray();
    w.key("empty");
    w.beginObject();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\": \"he said \\\"hi\\\"\\n\", \"n\": 42, "
              "\"neg\": -7, \"pi\": 3.5, \"on\": true, \"off\": false, "
              "\"nothing\": null, \"list\": [1, 2], \"empty\": {}}");
}

TEST(Json, WriterMisuseIsAPanic)
{
    JsonWriter w;
    w.beginObject();
    // A value directly inside an object (no key) is a structural bug.
    EXPECT_THROW(w.value(uint64_t(1)), PanicError);
    JsonWriter open;
    open.beginArray();
    EXPECT_THROW(open.str(), PanicError) << "unclosed scope";
}

TEST(Json, WriterNonfiniteDoublesBecomeZero)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.endArray();
    EXPECT_EQ(w.str(), "[0, 0]");
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({0.0, 5.0}), 5.0) << "zeros are skipped";
}

TEST(Stats, MeanStddevPercentile)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile({5, 1, 3}, 0), 1.0);
}

TEST(Stats, CounterSet)
{
    CounterSet c;
    EXPECT_EQ(c.get("x"), 0u);
    EXPECT_FALSE(c.has("x"));
    c.add("x");
    c.add("x", 4);
    EXPECT_EQ(c.get("x"), 5u);
    c.set("y", 10);
    CounterSet d;
    d.add("x", 1);
    d.add("z", 2);
    c.merge(d);
    EXPECT_EQ(c.get("x"), 6u);
    EXPECT_EQ(c.get("z"), 2u);
    EXPECT_NE(c.toString().find("y=10"), std::string::npos);
    c.clear();
    EXPECT_EQ(c.get("x"), 0u);
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addSeparator();
    t.addRow({"long-name", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("| long-name"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    // Every line has the same width.
    size_t width = out.find('\n');
    for (size_t pos = 0; pos < out.size();) {
        size_t next = out.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(Table, RejectsWrongArity)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(uint64_t{12345}), "12345");
    EXPECT_EQ(TextTable::pct(0.789), "79%");
    EXPECT_EQ(TextTable::pct(0.789, 1), "78.9%");
}

TEST(Dot, EmitsNodesAndEdges)
{
    DotGraph g("tea graph");
    g.addNode("NTE", "NTE", "doublecircle");
    g.addNode("s1", "$$T1.\"next\"");
    g.addEdge("NTE", "s1", "0x1000");
    std::string out = g.render();
    EXPECT_NE(out.find("digraph \"tea graph\""), std::string::npos);
    EXPECT_NE(out.find("doublecircle"), std::string::npos);
    EXPECT_NE(out.find("\\\"next\\\""), std::string::npos)
        << "quotes must be escaped";
    EXPECT_NE(out.find("label=\"0x1000\""), std::string::npos);
}

TEST(Random, DeterministicAcrossInstances)
{
    Xorshift64Star a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, ZeroSeedIsRemapped)
{
    Xorshift64Star z(0);
    EXPECT_NE(z.next(), 0u);
}

TEST(Random, BoundsRespected)
{
    Xorshift64Star rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(10), 10u);
        int64_t r = rng.nextRange(-5, 5);
        EXPECT_GE(r, -5);
        EXPECT_LE(r, 5);
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, RangeCoversAllValues)
{
    Xorshift64Star rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextRange(0, 7));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, BernoulliRoughlyFair)
{
    Xorshift64Star rng(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.5) ? 1 : 0;
    EXPECT_NEAR(heads, 5000, 300);
}

} // namespace
} // namespace tea
