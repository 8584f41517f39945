/** Tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <ostream>

#include "trace/generator.hh"
#include "trace/spec2000.hh"

using namespace dcg;

namespace {

Profile
simpleProfile()
{
    Profile p;
    p.name = "test";
    p.mix = {0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.1, 0.2};
    p.phases.lowIlpFraction = 0.0;  // stationary for these tests
    return p;
}

} // namespace

TEST(TraceGenerator, DeterministicPerSeed)
{
    const Profile p = simpleProfile();
    TraceGenerator a(p, 42), b(p, 42);
    for (int i = 0; i < 5000; ++i) {
        const MicroOp x = a.next();
        const MicroOp y = b.next();
        EXPECT_EQ(x.cls, y.cls);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.effAddr, y.effAddr);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.srcDist[0], y.srcDist[0]);
    }
}

TEST(TraceGenerator, DifferentSeedsProduceDifferentStreams)
{
    const Profile p = simpleProfile();
    TraceGenerator a(p, 1), b(p, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next().cls == b.next().cls;
    EXPECT_LT(same, 900);
}

TEST(TraceGenerator, CountsGeneratedInstructions)
{
    TraceGenerator g(simpleProfile(), 1);
    for (int i = 0; i < 137; ++i)
        g.next();
    EXPECT_EQ(g.generated(), 137u);
}

TEST(TraceGenerator, MemOpsHaveAddressesOthersDoNot)
{
    TraceGenerator g(simpleProfile(), 7);
    for (int i = 0; i < 10000; ++i) {
        const MicroOp op = g.next();
        if (op.isMem())
            EXPECT_GE(op.effAddr, TraceGenerator::kDataBase);
        else
            EXPECT_EQ(op.effAddr, 0u);
    }
}

TEST(TraceGenerator, PcsStayInCodeFootprint)
{
    Profile p = simpleProfile();
    p.codeFootprintBytes = 16 * 1024;
    TraceGenerator g(p, 3);
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = g.next();
        EXPECT_GE(op.pc, TraceGenerator::kCodeBase);
        EXPECT_LT(op.pc, TraceGenerator::kCodeBase + p.codeFootprintBytes);
        EXPECT_EQ(op.pc % 4, 0u);
    }
}

TEST(TraceGenerator, StoresAlwaysHaveTwoSources)
{
    TraceGenerator g(simpleProfile(), 5);
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = g.next();
        if (op.isStore())
            EXPECT_EQ(op.numSrcs, 2u);
    }
}

TEST(TraceGenerator, DependenceDistancesRespectCap)
{
    Profile p = simpleProfile();
    p.deps.depDistCap = 16;
    TraceGenerator g(p, 9);
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = g.next();
        for (unsigned s = 0; s < op.numSrcs; ++s)
            EXPECT_LE(op.srcDist[s], 16u);
    }
}

TEST(TraceGenerator, ReadyFractionMatchesProfile)
{
    Profile p = simpleProfile();
    p.deps.srcReadyProb = 0.7;
    p.deps.frac2Src = 0.0;  // exactly one source per op
    TraceGenerator g(p, 11);
    int ready = 0, total = 0;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp op = g.next();
        if (op.isStore())
            continue;  // store data source is re-rolled
        ++total;
        ready += op.srcDist[0] == 0;
    }
    EXPECT_NEAR(ready / static_cast<double>(total), 0.7, 0.02);
}

TEST(TraceGenerator, BranchPcsAreStableStatics)
{
    Profile p = simpleProfile();
    p.numStaticBranches = 32;
    TraceGenerator g(p, 13);
    // Each branch PC must always map to the same target set {target,
    // fallthrough} — i.e. branch identity is stable.
    std::map<Addr, Addr> target_of;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp op = g.next();
        if (!op.isBranch())
            continue;
        auto [it, inserted] = target_of.emplace(op.pc, op.target);
        if (!inserted)
            EXPECT_EQ(it->second, op.target) << "pc " << std::hex << op.pc;
    }
    EXPECT_LE(target_of.size(), 32u);
    EXPECT_GE(target_of.size(), 16u);  // most statics get exercised
}

TEST(TraceGenerator, LoopBranchesArePeriodic)
{
    Profile p = simpleProfile();
    p.branches = {0.0, 0.0, 1.0, 0.0};  // all loop branches
    p.numStaticBranches = 1;
    TraceGenerator g(p, 17);
    // A single loop branch: exactly one not-taken per period.
    int taken_run = 0;
    std::map<int, int> run_lengths;
    for (int i = 0; i < 20000; ++i) {
        const MicroOp op = g.next();
        if (!op.isBranch())
            continue;
        if (op.taken) {
            ++taken_run;
        } else {
            ++run_lengths[taken_run];
            taken_run = 0;
        }
    }
    // All runs between not-takens must have the same length (period-1).
    EXPECT_EQ(run_lengths.size(), 1u);
}

TEST(TraceGenerator, PhaseAlternationApproximatesFraction)
{
    Profile p = simpleProfile();
    p.phases.lowIlpFraction = 0.4;
    p.phases.meanPhaseLen = 500;
    TraceGenerator g(p, 19);
    std::uint64_t low = 0;
    const std::uint64_t n = 400000;
    for (std::uint64_t i = 0; i < n; ++i) {
        g.next();
        low += g.inLowIlpPhase();
    }
    EXPECT_NEAR(low / static_cast<double>(n), 0.4, 0.08);
}

TEST(TraceGenerator, PhasesDisabledStaysHigh)
{
    Profile p = simpleProfile();
    p.phases.lowIlpFraction = 0.0;
    TraceGenerator g(p, 21);
    for (int i = 0; i < 10000; ++i) {
        g.next();
        EXPECT_FALSE(g.inLowIlpPhase());
    }
}

TEST(TraceGenerator, LowPhaseShortensDependences)
{
    Profile p = simpleProfile();
    p.phases.lowIlpFraction = 0.5;
    p.phases.meanPhaseLen = 2000;
    p.deps.srcReadyProb = 0.6;
    TraceGenerator g(p, 23);
    double ready_high = 0, n_high = 0, ready_low = 0, n_low = 0;
    for (int i = 0; i < 200000; ++i) {
        const MicroOp op = g.next();
        if (op.isStore() || op.numSrcs == 0)
            continue;
        if (g.inLowIlpPhase()) {
            ready_low += op.srcDist[0] == 0;
            ++n_low;
        } else {
            ready_high += op.srcDist[0] == 0;
            ++n_high;
        }
    }
    EXPECT_GT(ready_high / n_high, ready_low / n_low + 0.2);
}

namespace dcg {

/**
 * gtest printer for the MixConvergence parameter. Without it gtest dumps
 * the object's raw bytes, whose first word is the name string's heap
 * address, so the discovered ctest names would change with the binary's
 * layout and the build directory's path.
 */
void
PrintTo(const Profile &p, std::ostream *os)
{
    *os << p.name;
}

} // namespace dcg

/** Instruction-mix convergence for every shipped SPEC2000 profile. */
class MixConvergence : public ::testing::TestWithParam<Profile> {};

TEST_P(MixConvergence, EmpiricalMixMatchesProfile)
{
    const Profile &p = GetParam();
    TraceGenerator g(p, 33);
    std::array<std::uint64_t, kNumOpClasses> counts{};
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<unsigned>(g.next().cls)];
    for (unsigned c = 0; c < kNumOpClasses; ++c) {
        const double want = p.mixFraction(static_cast<OpClass>(c));
        const double got = counts[c] / static_cast<double>(n);
        EXPECT_NEAR(got, want, 0.01)
            << p.name << " class " << opClassName(static_cast<OpClass>(c));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProfiles, MixConvergence,
    ::testing::ValuesIn(allSpecProfiles()),
    [](const ::testing::TestParamInfo<Profile> &info) {
        return info.param.name;
    });
