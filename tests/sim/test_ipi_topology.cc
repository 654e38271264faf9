#include <gtest/gtest.h>

#include "stramash/sim/ipi_topology.hh"

using namespace stramash;

namespace stramash
{

// Without a printer gtest dumps the model's bytes, std::string pointer
// included, and CTest puts that dump into the test name, which then
// changes from one build to the next. Print the machine name instead.
void
PrintTo(const IpiTopologyModel &m, std::ostream *os)
{
    *os << m.name;
}

} // namespace stramash

class IpiModels : public testing::TestWithParam<IpiTopologyModel>
{
};

TEST_P(IpiModels, MatrixShapeAndDiagonal)
{
    const auto &m = GetParam();
    auto mat = m.latencyMatrixNs(4, 1);
    ASSERT_EQ(mat.size(), m.numCores);
    for (unsigned f = 0; f < m.numCores; ++f) {
        ASSERT_EQ(mat[f].size(), m.numCores);
        EXPECT_EQ(mat[f][f], 0.0);
        for (unsigned t = 0; t < m.numCores; ++t) {
            if (f != t) {
                EXPECT_GT(mat[f][t], 0.0);
            }
        }
    }
}

TEST_P(IpiModels, CrossingBoundariesCostsMore)
{
    const auto &m = GetParam();
    Rng rng(7);
    // Average many samples to wash out jitter.
    auto avg = [&](unsigned f, unsigned t) {
        double s = 0;
        for (int i = 0; i < 200; ++i)
            s += m.measureNs(f, t, rng);
        return s / 200;
    };
    // Same cluster vs different cluster.
    double same = avg(0, 1);
    double cross = avg(0, m.coresPerCluster);
    EXPECT_GT(cross, same);
    // Different socket (when the machine has two).
    unsigned perSocket = m.coresPerCluster * m.clustersPerSocket;
    if (perSocket < m.numCores) {
        double socket = avg(0, perSocket);
        EXPECT_GT(socket, cross);
    }
}

TEST_P(IpiModels, DeterministicForFixedSeed)
{
    const auto &m = GetParam();
    auto a = m.latencyMatrixNs(3, 42);
    auto b = m.latencyMatrixNs(3, 42);
    EXPECT_EQ(a, b);
    auto c = m.latencyMatrixNs(3, 43);
    EXPECT_NE(a, c);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, IpiModels,
    testing::Values(IpiTopologyModel::smallArm(),
                    IpiTopologyModel::bigArm(),
                    IpiTopologyModel::smallX86(),
                    IpiTopologyModel::bigX86()),
    [](const auto &info) {
        std::string n = info.param.name;
        for (auto &ch : n) {
            if (!isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return n;
    });

TEST(IpiTopology, BigMachinesAverageAboutTwoMicroseconds)
{
    // §9.1.1: "The average IPI latency is about 2 us in large
    // machine pairs, and we have used this value as our simulated
    // cross-ISA IPI cost."
    for (const auto &m :
         {IpiTopologyModel::bigArm(), IpiTopologyModel::bigX86()}) {
        auto mat = m.latencyMatrixNs(8, 99);
        double mean = IpiTopologyModel::meanOffDiagonalNs(mat);
        EXPECT_GT(mean, 1500.0) << m.name;
        EXPECT_LT(mean, 2600.0) << m.name;
    }
}

TEST(IpiTopology, SmallMachinesAreSubMicrosecond)
{
    for (const auto &m : {IpiTopologyModel::smallArm(),
                          IpiTopologyModel::smallX86()}) {
        auto mat = m.latencyMatrixNs(8, 99);
        double mean = IpiTopologyModel::meanOffDiagonalNs(mat);
        EXPECT_LT(mean, 1200.0) << m.name;
    }
}

TEST(IpiTopologyDeath, CoreOutOfRange)
{
    auto m = IpiTopologyModel::smallArm();
    Rng rng(1);
    EXPECT_DEATH(m.measureNs(0, 99, rng), "out of range");
}
