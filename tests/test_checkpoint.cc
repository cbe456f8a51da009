/**
 * @file
 * Checkpoint tests: the shared checksum, trainer blob validation and
 * corruption fuzzing, replicated-store envelope fuzzing, and resume of
 * a SoCFlowTrainer from checkpoint bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ckpt/replicated_store.hh"
#include "core/checkpoint.hh"
#include "core/socflow_trainer.hh"
#include "data/synthetic.hh"
#include "sim/cluster.hh"

using namespace socflow;
using namespace socflow::core;

namespace {

data::DataBundle
tinyBundle()
{
    data::SyntheticParams p;
    p.name = "ckpt";
    p.classes = 4;
    p.channels = 1;
    p.height = 8;
    p.width = 8;
    p.trainSamples = 192;
    p.testSamples = 64;
    p.noise = 0.3;
    p.seed = 31;
    return data::makeSynthetic(p);
}

SoCFlowConfig
tinyConfig()
{
    SoCFlowConfig cfg;
    cfg.modelFamily = "mlp";
    cfg.numSocs = 8;
    cfg.numGroups = 2;
    cfg.groupBatch = 16;
    return cfg;
}

} // namespace

TEST(CheckpointChecksum, DeterministicAndSensitive)
{
    std::vector<std::uint8_t> a = {1, 2, 3};
    std::vector<std::uint8_t> b = {1, 2, 4};
    EXPECT_EQ(checkpointChecksum(a), checkpointChecksum(a));
    EXPECT_NE(checkpointChecksum(a), checkpointChecksum(b));
    // 64-bit FNV-1a: the empty input hashes to the offset basis.
    EXPECT_EQ(checkpointChecksum({}), 0xcbf29ce484222325ULL);
}

// --------------------------------------------- trainer blob validation

namespace {

/** One trained trainer + a valid checkpoint blob for corruption. */
struct BlobFixture {
    data::DataBundle bundle = tinyBundle();
    SoCFlowTrainer trainer{tinyConfig(), bundle};
    std::vector<std::uint8_t> blob;

    BlobFixture()
    {
        trainer.runEpoch();
        blob = trainer.saveCheckpoint();
    }

    /** Load must throw, leaving the trainer usable. */
    void
    expectRejected(const std::vector<std::uint8_t> &bad,
                   const char *what_substr)
    {
        const auto weightsBefore = trainer.globalWeights();
        const std::size_t epochsBefore = trainer.epochsDone();
        try {
            trainer.loadCheckpoint(bad);
            FAIL() << "expected CheckpointError (" << what_substr
                   << ")";
        } catch (const CheckpointError &e) {
            EXPECT_NE(std::string(e.what()).find(what_substr),
                      std::string::npos)
                << "actual message: " << e.what();
        }
        // State untouched; training still works.
        EXPECT_EQ(trainer.globalWeights(), weightsBefore);
        EXPECT_EQ(trainer.epochsDone(), epochsBefore);
        EXPECT_GT(trainer.runEpoch().simSeconds, 0.0);
    }
};

} // namespace

TEST(TrainerCheckpointBlob, TruncatedBufferRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad(fx.blob.begin(),
                                  fx.blob.begin() + 11);
    fx.expectRejected(bad, "truncated");
}

TEST(TrainerCheckpointBlob, EmptyBufferRejected)
{
    BlobFixture fx;
    fx.expectRejected({}, "truncated");
}

TEST(TrainerCheckpointBlob, BitFlipInWeightsRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[bad.size() / 2] ^= 0x40;  // flip one bit mid-payload
    fx.expectRejected(bad, "checksum");
}

TEST(TrainerCheckpointBlob, BitFlipInHeaderRejected)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[2] ^= 0x01;  // corrupt the magic itself
    fx.expectRejected(bad, "magic");
}

TEST(TrainerCheckpointBlob, WrongSizeBufferRejected)
{
    BlobFixture fx;
    // One trailing byte too many: the declared weight count no
    // longer matches the buffer length.
    std::vector<std::uint8_t> bad = fx.blob;
    bad.push_back(0);
    fx.expectRejected(bad, "size mismatch");
}

TEST(TrainerCheckpointBlob, ForeignModelSizeRejected)
{
    BlobFixture fx;
    // A valid blob from a *different* model (bigger MLP input):
    // magic and checksum pass, but the weight count must not match.
    data::SyntheticParams p;
    p.name = "other";
    p.classes = 7;
    p.channels = 1;
    p.height = 12;
    p.width = 12;
    p.trainSamples = 64;
    p.testSamples = 32;
    p.seed = 5;
    data::DataBundle other = data::makeSynthetic(p);
    SoCFlowTrainer foreign(tinyConfig(), other);
    fx.expectRejected(foreign.saveCheckpoint(), "model");
}

TEST(TrainerCheckpointBlob, ValidBlobStillLoadsAfterRejections)
{
    BlobFixture fx;
    std::vector<std::uint8_t> bad = fx.blob;
    bad[bad.size() / 2] ^= 0x40;
    EXPECT_THROW(fx.trainer.loadCheckpoint(bad), CheckpointError);
    EXPECT_NO_THROW(fx.trainer.loadCheckpoint(fx.blob));
    EXPECT_EQ(fx.trainer.epochsDone(), 1u);
}

// ------------------------------------------------- bit-flip fuzzing

TEST(TrainerCheckpointBlob, EverySingleByteCorruptionRejected)
{
    // Exhaustive single-byte fuzz over a real trainer checkpoint:
    // whatever byte is damaged -- magic, epoch, alpha, weight count,
    // any weight, or the checksum itself -- loadCheckpoint must raise
    // a typed CheckpointError. No corruption ever loads silently.
    BlobFixture fx;
    for (std::size_t i = 0; i < fx.blob.size(); ++i) {
        std::vector<std::uint8_t> bad = fx.blob;
        bad[i] ^= 0xff;
        EXPECT_THROW(fx.trainer.loadCheckpoint(bad), CheckpointError)
            << "byte " << i << " corrupted but the blob loaded";
    }
    // The pristine blob still loads: the fuzz loop never poisoned
    // the trainer.
    EXPECT_NO_THROW(fx.trainer.loadCheckpoint(fx.blob));
}

namespace {

/** 3-rack fleet for the replicated-store fuzz runs. */
sim::ClusterConfig
fuzzFleetConfig()
{
    sim::ClusterConfig cfg;
    cfg.numRacks = 3;
    cfg.boardsPerRack = 2;
    cfg.socsPerBoard = 2;
    cfg.numSocs = cfg.numRacks * cfg.socsPerRack();
    return cfg;
}

} // namespace

TEST(ReplicatedManifestFuzz, EveryManifestByteCorruptionIsTyped)
{
    // Exhaustive single-byte fuzz over the replicated store's
    // generation manifest, corrupting EVERY copy at once (so no
    // intact sibling can mask the damage): restore must raise a
    // typed CheckpointError -- a damaged manifest never elects a
    // checkpoint.
    sim::Cluster cluster(fuzzFleetConfig());
    BlobFixture fx;
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore probe(cluster, sc);
    ASSERT_TRUE(probe.write(1, fx.blob).acked);
    const std::size_t manifestLen = probe.manifestData(0).size();

    for (std::size_t i = 0; i < manifestLen; ++i) {
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(1, fx.blob).acked);
        store.manifestData(0)[i] ^= 0xff;
        store.manifestData(1)[i] ^= 0xff;
        EXPECT_THROW(store.restore(0), CheckpointError)
            << "manifest byte " << i
            << " corrupted in every copy yet restore succeeded";
    }
}

TEST(ReplicatedDataFuzz, CorruptDataEnvelopeNeverRestoresSilently)
{
    // Single-byte fuzz over the sealed replica data envelope,
    // corrupting every copy: header and checksum regions are swept
    // exhaustively, the payload by stride (the checksum math is
    // position-independent, so the sample proves the class). Restore
    // must throw -- never return damaged weights.
    sim::Cluster cluster(fuzzFleetConfig());
    BlobFixture fx;
    ckpt::CkptStoreConfig sc;
    sc.replicas = 2;
    ckpt::ReplicatedCkptStore probe(cluster, sc);
    ASSERT_TRUE(probe.write(1, fx.blob).acked);
    const std::size_t envLen = probe.replicaData(0).size();

    std::vector<std::size_t> positions;
    for (std::size_t i = 0; i < 16 && i < envLen; ++i)
        positions.push_back(i); // magic + length header
    for (std::size_t i = envLen >= 8 ? envLen - 8 : 0; i < envLen; ++i)
        positions.push_back(i); // trailing checksum
    const std::size_t stride =
        std::max<std::size_t>(1, envLen / 256);
    for (std::size_t i = 16; i + 8 < envLen; i += stride)
        positions.push_back(i); // payload sample

    for (const std::size_t i : positions) {
        ckpt::ReplicatedCkptStore store(cluster, sc);
        ASSERT_TRUE(store.write(1, fx.blob).acked);
        store.replicaData(0)[i] ^= 0xff;
        store.replicaData(1)[i] ^= 0xff;
        EXPECT_THROW(store.restore(0), CheckpointError)
            << "data envelope byte " << i
            << " corrupted in every copy yet restore succeeded";
    }
}

TEST(TrainerCheckpointBlob, TrainerResumesFromBytes)
{
    data::DataBundle bundle = tinyBundle();

    double accBefore = 0.0;
    std::size_t epochsBefore = 0;
    std::vector<std::uint8_t> bytes;
    {
        SoCFlowTrainer first(tinyConfig(), bundle);
        first.runEpoch();
        first.runEpoch();
        first.runEpoch();
        accBefore = first.testAccuracy();
        epochsBefore = first.epochsDone();
        bytes = first.saveCheckpoint();
    }  // the first trainer is gone; only its bytes survive

    SoCFlowTrainer resumed(tinyConfig(), bundle);
    resumed.loadCheckpoint(bytes);
    EXPECT_EQ(resumed.epochsDone(), epochsBefore);
    EXPECT_NEAR(resumed.testAccuracy(), accBefore, 1e-9);

    // Training continues productively after resume.
    resumed.runEpoch();
    resumed.runEpoch();
    EXPECT_GE(resumed.testAccuracy(), accBefore - 0.05);
}
