/** Tests for the gating-scheme registry and its catalog surface. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gating/policy.hh"
#include "gating/registry.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"

using namespace dcg;
using namespace dcg::gating;

TEST(Registry, CatalogHoldsAllBuiltinSchemes)
{
    const auto names = schemes().names();
    for (const char *expected :
         {"base", "cgooo", "dcg", "ddcg", "plb-ext", "plb-orig"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_GE(names.size(), 6u);
}

TEST(Registry, CatalogIsSortedAndUnique)
{
    // Deterministic enumeration order is what makes catalog-driven
    // sweeps (custom_workload, the CI scheme matrix) byte-stable.
    const auto names = schemes().names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    const std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());

    const auto catalog = schemes().catalog();
    ASSERT_EQ(catalog.size(), names.size());
    for (std::size_t i = 0; i < catalog.size(); ++i)
        EXPECT_EQ(catalog[i].name, names[i]);
}

TEST(Registry, EveryEntryCarriesDescriptionAndLookups)
{
    for (const SchemeInfo &info : schemes().catalog()) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        const auto *entry = schemes().find(info.name);
        ASSERT_NE(entry, nullptr) << info.name;
        const SchemeInfo *found = &entry->info;
        EXPECT_EQ(found->name, info.name);
        EXPECT_EQ(found->knobs.size(), info.knobs.size());
        for (const SchemeKnob &knob : info.knobs) {
            EXPECT_FALSE(knob.name.empty()) << info.name;
            EXPECT_FALSE(knob.description.empty()) << info.name;
            EXPECT_FALSE(knob.defaultValue.empty()) << info.name;
        }
    }
}

TEST(Registry, UnknownNamesAreRejected)
{
    EXPECT_EQ(schemes().find("warp"), nullptr);
    EXPECT_EQ(schemes().find(""), nullptr);
    EXPECT_EQ(schemes().find("DCG"), nullptr);  // case-sensitive
}

TEST(Registry, JoinedNamesMatchCatalogOrder)
{
    std::string expected;
    for (const std::string &name : schemes().names()) {
        if (!expected.empty())
            expected += '|';
        expected += name;
    }
    EXPECT_EQ(schemes().joined(), expected);

    std::string commas = schemes().joined(',');
    EXPECT_NE(commas.find("base,"), std::string::npos);
    EXPECT_EQ(commas.find('|'), std::string::npos);
}

TEST(Registry, FactoriesBuildPoliciesNamedAfterTheirKey)
{
    for (const std::string &name : schemes().names()) {
        SimConfig cfg = table1Config(name);
        StatRegistry stats;
        const auto policy = makePolicy(cfg, stats);
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(std::string(policy->name()), name);
    }
}
