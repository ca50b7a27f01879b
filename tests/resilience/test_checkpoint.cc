/**
 * @file
 * SweepCheckpoint contract: bit-exact double round-trips through the
 * 16-hex-digit JSON encoding, binding/mismatch safety, deterministic
 * serialization order, atomic write-temp-then-rename persistence (a
 * torn staging file never corrupts the visible checkpoint), lineage,
 * and the auto-flush cadence.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "support/checkpoint.hh"
#include "support/error.hh"

namespace ttmcas {
namespace {

class CheckpointFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Per-test directory: ctest -j runs each TEST_F in its own
        // process, so a shared fixed path would let one test's SetUp
        // wipe another's files mid-run.
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = std::filesystem::temp_directory_path() /
              (std::string("ttmcas_checkpoint_") + info->name());
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string path(const char* name) const
    {
        return (dir / name).string();
    }

    std::filesystem::path dir;
};

TEST(SweepCheckpoint, BindIsIdempotentAndMismatchThrows)
{
    SweepCheckpoint checkpoint;
    EXPECT_FALSE(checkpoint.bound());
    checkpoint.bind("sampleTtm", 7, 100);
    EXPECT_TRUE(checkpoint.bound());
    EXPECT_EQ(checkpoint.kernel(), "sampleTtm");
    EXPECT_EQ(checkpoint.seed(), 7u);
    EXPECT_EQ(checkpoint.totalPoints(), 100u);

    checkpoint.bind("sampleTtm", 7, 100); // identical re-bind: no-op
    EXPECT_THROW(checkpoint.bind("sobolAnalyze", 7, 100), ModelError);
    EXPECT_THROW(checkpoint.bind("sampleTtm", 8, 100), ModelError);
    EXPECT_THROW(checkpoint.bind("sampleTtm", 7, 99), ModelError);

    checkpoint.requireMatches("sampleTtm", 7, 100);
    EXPECT_THROW(checkpoint.requireMatches("sampleCas", 7, 100),
                 ModelError);
}

TEST(SweepCheckpoint, RoundTripsNastyDoublesBitExactly)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("sampleTtm", 1, 16);
    const double values[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        -12345.6789e300,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        0x1.fffffffffffffp-2,
    };
    for (std::size_t i = 0; i < std::size(values); ++i)
        checkpoint.record(i, values[i]);

    const SweepCheckpoint reloaded =
        SweepCheckpoint::fromJson(checkpoint.toJson());
    EXPECT_EQ(reloaded.completedCount(), std::size(values));
    for (std::size_t i = 0; i < std::size(values); ++i) {
        ASSERT_TRUE(reloaded.has(i));
        const double restored = reloaded.value(i);
        // Bitwise, not ==: -0.0 and signaling patterns must survive.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(restored),
                  std::bit_cast<std::uint64_t>(values[i]))
            << "point " << i;
    }
    EXPECT_FALSE(reloaded.has(15));
    EXPECT_THROW(reloaded.value(15), ModelError);
}

TEST(SweepCheckpoint, SerializationOrderIsRecordingOrderInvariant)
{
    SweepCheckpoint forward;
    forward.bind("k", 0, 8);
    SweepCheckpoint backward;
    backward.bind("k", 0, 8);
    for (std::size_t i = 0; i < 8; ++i) {
        forward.record(i, static_cast<double>(i) * 1.5);
        backward.record(7 - i, static_cast<double>(7 - i) * 1.5);
    }
    EXPECT_EQ(forward.toJson(), backward.toJson());
}

TEST(SweepCheckpoint, OutOfRangeRecordThrows)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("k", 0, 4);
    EXPECT_THROW(checkpoint.record(4, 1.0), ModelError);
}

TEST(SweepCheckpoint, MalformedDocumentsAreRejected)
{
    EXPECT_THROW(SweepCheckpoint::fromJson("{"), ModelError);
    EXPECT_THROW(SweepCheckpoint::fromJson("{}"), ModelError);
    // Wrong-length and non-hex bit patterns.
    EXPECT_THROW(SweepCheckpoint::fromJson(
                     R"({"kernel":"k","seed":0,"total_points":2,)"
                     R"("parent":"","points":[{"index":0,"bits":"ff"}]})"),
                 ModelError);
    EXPECT_THROW(SweepCheckpoint::fromJson(
                     R"({"kernel":"k","seed":0,"total_points":2,)"
                     R"("parent":"","points":)"
                     R"([{"index":0,"bits":"zz00000000000000"}]})"),
                 ModelError);
    // Point index outside the bound sweep.
    EXPECT_THROW(SweepCheckpoint::fromJson(
                     R"({"kernel":"k","seed":0,"total_points":2,)"
                     R"("parent":"","points":)"
                     R"([{"index":5,"bits":"0000000000000000"}]})"),
                 ModelError);
}

TEST_F(CheckpointFileTest, WriteAtomicRoundTripsAndSetsLineage)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("sobolAnalyze", 9, 32);
    checkpoint.record(3, 1.0 / 7.0);
    checkpoint.record(21, -2.5);
    const std::string file = path("ck.json");
    checkpoint.writeAtomic(file);

    // The staging file must not survive a successful write.
    EXPECT_FALSE(std::filesystem::exists(file + ".tmp"));

    const SweepCheckpoint loaded = SweepCheckpoint::load(file);
    EXPECT_EQ(loaded.kernel(), "sobolAnalyze");
    EXPECT_EQ(loaded.completedCount(), 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded.value(3)),
              std::bit_cast<std::uint64_t>(1.0 / 7.0));
    // load() stamps the source path as lineage parent.
    EXPECT_EQ(loaded.parent(), file);
}

TEST_F(CheckpointFileTest, TornStagingFileNeverCorruptsTheCheckpoint)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("sampleTtm", 2, 8);
    checkpoint.record(0, 4.0);
    const std::string file = path("ck.json");
    checkpoint.writeAtomic(file);

    // Simulate a kill mid-write: a later writer died after emitting a
    // torn staging file but before the rename. The visible checkpoint
    // must still be the previous complete document.
    {
        std::ofstream torn(file + ".tmp", std::ios::trunc);
        torn << R"({"kernel":"sampleTtm","seed":2,"total_po)";
    }
    const SweepCheckpoint loaded = SweepCheckpoint::load(file);
    EXPECT_EQ(loaded.completedCount(), 1u);
    EXPECT_EQ(loaded.value(0), 4.0);
}

TEST_F(CheckpointFileTest, WriteAtomicReplacesThePreviousCheckpoint)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("k", 0, 8);
    const std::string file = path("ck.json");
    checkpoint.record(0, 1.0);
    checkpoint.writeAtomic(file);
    checkpoint.record(1, 2.0);
    checkpoint.writeAtomic(file);
    EXPECT_EQ(SweepCheckpoint::load(file).completedCount(), 2u);
}

TEST_F(CheckpointFileTest, AutoFlushPersistsOnTheCadence)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("k", 0, 16);
    const std::string file = path("auto.json");
    checkpoint.enableAutoFlush(file, 2);

    checkpoint.record(0, 1.0);
    EXPECT_FALSE(std::filesystem::exists(file));
    checkpoint.record(1, 2.0);
    ASSERT_TRUE(std::filesystem::exists(file));
    EXPECT_EQ(SweepCheckpoint::load(file).completedCount(), 2u);

    checkpoint.record(2, 3.0); // below cadence: not yet flushed
    EXPECT_EQ(SweepCheckpoint::load(file).completedCount(), 2u);
    checkpoint.record(3, 4.0);
    EXPECT_EQ(SweepCheckpoint::load(file).completedCount(), 4u);

    // The final flush is the caller's job.
    checkpoint.record(4, 5.0);
    checkpoint.writeAtomic(file);
    EXPECT_EQ(SweepCheckpoint::load(file).completedCount(), 5u);
}

TEST_F(CheckpointFileTest, AutoFlushCadenceStretchesWithTheSweep)
{
    // A 640-point sweep flushes every 640 / 64 = 10 records, not on
    // every record: the whole run rewrites its file at most 64 times.
    SweepCheckpoint checkpoint;
    checkpoint.bind("k", 0, 640);
    const std::string file = path("stretched.json");
    checkpoint.enableAutoFlush(file, 1);

    std::size_t flushes = 0;
    for (std::size_t point = 0; point < 640; ++point) {
        checkpoint.record(point, static_cast<double>(point));
        if (std::filesystem::exists(file) &&
            SweepCheckpoint::load(file).completedCount() == point + 1) {
            EXPECT_EQ((point + 1) % 10, 0u) << "flushed at " << point;
            ++flushes;
        }
    }
    EXPECT_EQ(flushes, SweepCheckpoint::kMaxAutoFlushes);
}

TEST_F(CheckpointFileTest, AutoFlushValidatesItsArguments)
{
    SweepCheckpoint checkpoint;
    EXPECT_THROW(checkpoint.enableAutoFlush(path("x.json"), 0),
                 ModelError);
    EXPECT_THROW(checkpoint.enableAutoFlush("", 4), ModelError);
}

TEST_F(CheckpointFileTest, LoadRejectsMissingFiles)
{
    EXPECT_THROW(SweepCheckpoint::load(path("missing.json")),
                 ModelError);
}

TEST_F(CheckpointFileTest, ParentLineageRoundTripsThroughJson)
{
    SweepCheckpoint checkpoint;
    checkpoint.bind("k", 0, 4);
    checkpoint.setParent("runs/previous.json");
    const SweepCheckpoint reloaded =
        SweepCheckpoint::fromJson(checkpoint.toJson());
    EXPECT_EQ(reloaded.parent(), "runs/previous.json");
}

} // namespace
} // namespace ttmcas
