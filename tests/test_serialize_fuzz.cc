/**
 * @file
 * Robustness fuzzing of the (de)serializers: byte-level corruption of
 * valid TEA and trace files must always surface as FatalError (bad user
 * data) — never as a PanicError (library invariant violation), a crash,
 * or a silently inconsistent object.
 */

#include <gtest/gtest.h>

#include "tea/builder.hh"
#include "tea/serialize.hh"
#include "trace/serialize.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace tea {
namespace {

/** A representative multi-trace set. */
TraceSet
sampleTraces()
{
    TraceSet set;
    Trace t1;
    t1.blocks.push_back({0x1000, 0x1010, true});
    t1.blocks.push_back({0x1020, 0x1030, false});
    t1.blocks.push_back({0x1040, 0x1048, false});
    t1.edges.push_back({0, 1});
    t1.edges.push_back({1, 2});
    t1.edges.push_back({2, 0});
    set.add(t1);
    Trace t2;
    t2.blocks.push_back({0x2000, 0x2008, true});
    t2.edges.push_back({0, 0});
    set.add(t2);
    Trace t3;
    t3.blocks.push_back({0x3000, 0x3010, true});
    t3.blocks.push_back({0x1020, 0x1030, false}); // shared guest block
    t3.edges.push_back({0, 1});
    t3.edges.push_back({1, 0});
    set.add(t3);
    return set;
}

class CorruptTea : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptTea, NeverPanicsOrCrashes)
{
    Tea tea = buildTea(sampleTraces());
    const std::vector<uint8_t> good = saveTea(tea);
    Xorshift64Star rng(GetParam());

    for (int round = 0; round < 400; ++round) {
        std::vector<uint8_t> bad = good;
        // 1-3 random byte mutations.
        int flips = 1 + static_cast<int>(rng.nextBelow(3));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] = static_cast<uint8_t>(rng.next());
        }
        try {
            Tea loaded = loadTea(bad);
            // Accepted input must at least be internally callable.
            for (StateId id = 1; id < loaded.numStates(); ++id) {
                const TeaState &s = loaded.state(id);
                EXPECT_LE(s.start, s.end);
                for (StateId t : s.succs)
                    EXPECT_LT(t, loaded.numStates());
            }
        } catch (const FatalError &) {
            // expected for corrupt data
        }
        // PanicError or a crash would fail the test.
    }
}

TEST_P(CorruptTea, TruncationsAreFatal)
{
    Tea tea = buildTea(sampleTraces());
    const std::vector<uint8_t> good = saveTea(tea);
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 100; ++round) {
        size_t keep = rng.nextBelow(good.size());
        std::vector<uint8_t> bad(good.begin(),
                                 good.begin() + static_cast<long>(keep));
        EXPECT_THROW(loadTea(bad), FatalError) << "kept " << keep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptTea,
                         ::testing::Values(11, 22, 33, 44));

/** A 1-state `.tea` image whose block-length varint is `blockLen`. */
std::vector<uint8_t>
oneStateTea(const std::vector<uint8_t> &blockLen)
{
    std::vector<uint8_t> img{
        0x41, 0x41, 0x45, 0x54, // magic 'TEAA'
        0x02, 0x00, 0x00, 0x00, // version 2
        0x01, 0x00, 0x00, 0x00, // 1 state
        0x01, 0x00, 0x00, 0x00, // 1 trace
        0x01,                   // trace 0: 1 block
        0x00,                   // narrow state ids
        0x00, 0x10, 0x00, 0x00, // state 1 start 0x1000
    };
    for (uint8_t b : blockLen)
        img.push_back(b);
    img.push_back(0x00); // flags
    img.push_back(0x00); // no transitions
    return img;
}

TEST(TeaVarint, ValueBeyond32BitsIsFatal)
{
    // The canonical image loads: block length 5.
    Tea ok = loadTea(oneStateTea({0x05}));
    ASSERT_EQ(ok.numTbbStates(), 1u);
    EXPECT_EQ(ok.state(1).end, 0x1005u);
    // 2^32 + 5 in five bytes must be rejected, not truncated to 5.
    EXPECT_THROW(loadTea(oneStateTea({0x85, 0x80, 0x80, 0x80, 0x10})),
                 FatalError);
    // Six bytes are over-long even when the value would fit.
    EXPECT_THROW(
        loadTea(oneStateTea({0x85, 0x80, 0x80, 0x80, 0x80, 0x00})),
        FatalError);
}

class CorruptTraceText : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(CorruptTraceText, NeverPanics)
{
    std::string good = saveTracesText(sampleTraces());
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 300; ++round) {
        std::string bad = good;
        int flips = 1 + static_cast<int>(rng.nextBelow(4));
        for (int f = 0; f < flips; ++f) {
            size_t pos = rng.nextBelow(bad.size());
            bad[pos] = static_cast<char>('0' + rng.nextBelow(75));
        }
        try {
            TraceSet loaded = loadTracesText(bad);
            for (const Trace &t : loaded.all())
                t.validate();
        } catch (const FatalError &) {
            // expected
        }
    }
}

TEST_P(CorruptTraceText, BinaryCorruptionNeverPanics)
{
    auto good = saveTracesBinary(sampleTraces());
    Xorshift64Star rng(GetParam());
    for (int round = 0; round < 300; ++round) {
        auto bad = good;
        size_t pos = rng.nextBelow(bad.size());
        bad[pos] = static_cast<uint8_t>(rng.next());
        try {
            loadTracesBinary(bad);
        } catch (const FatalError &) {
            // expected
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptTraceText,
                         ::testing::Values(55, 66, 77));

TEST(RoundTripStability, SaveLoadSaveIsIdentical)
{
    Tea tea = buildTea(sampleTraces());
    auto once = saveTea(tea);
    auto twice = saveTea(loadTea(once));
    EXPECT_EQ(once, twice);

    TraceSet traces = sampleTraces();
    EXPECT_EQ(saveTracesText(loadTracesText(saveTracesText(traces))),
              saveTracesText(traces));
    EXPECT_EQ(
        saveTracesBinary(loadTracesBinary(saveTracesBinary(traces))),
        saveTracesBinary(traces));
}

} // namespace
} // namespace tea
