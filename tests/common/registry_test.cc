/** Tests for the Registry template on a toy Info/Fn pair. */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/registry.hh"

using namespace dcg;

namespace {

struct ToyInfo
{
    std::string name;
    int weight = 0;
};

using ToyFn = std::function<int(int)>;
using ToyRegistry = Registry<ToyInfo, ToyFn>;

unsigned hookCalls = 0;

void
countingHook()
{
    ++hookCalls;
}

/** A registry holding "b", "c", "a" (registered in that order). */
ToyRegistry
threeEntries()
{
    ToyRegistry reg("toy", &countingHook);
    reg.add({"b", 2}, [](int x) { return x * 2; });
    reg.add({"c", 3}, [](int x) { return x * 3; });
    reg.add({"a", 1}, [](int x) { return x; });
    return reg;
}

} // namespace

TEST(RegistryTemplate, CatalogAndNamesAreSortedByName)
{
    ToyRegistry reg = threeEntries();
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"a", "b", "c"}));
    const std::vector<ToyInfo> catalog = reg.catalog();
    ASSERT_EQ(catalog.size(), 3u);
    EXPECT_EQ(catalog[0].name, "a");
    EXPECT_EQ(catalog[1].weight, 2);
    EXPECT_EQ(catalog[2].name, "c");
}

TEST(RegistryTemplate, JoinedUsesTheSeparator)
{
    ToyRegistry reg = threeEntries();
    EXPECT_EQ(reg.joined(), "a|b|c");
    EXPECT_EQ(reg.joined(','), "a,b,c");
}

TEST(RegistryTemplate, FindReturnsTheEntryOrNullptr)
{
    ToyRegistry reg = threeEntries();
    const auto *entry = reg.find("c");
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->info.weight, 3);
    EXPECT_EQ(entry->fn(5), 15);
    EXPECT_EQ(reg.find("d"), nullptr);
    EXPECT_EQ(reg.find(""), nullptr);
    EXPECT_EQ(reg.find("A"), nullptr);  // case-sensitive
}

TEST(RegistryTemplate, LookupsRunTheHookAndAddNeverDoes)
{
    ToyRegistry reg("toy", &countingHook);
    hookCalls = 0;
    reg.add({"a", 1}, [](int x) { return x; });
    EXPECT_EQ(hookCalls, 0u);
    reg.find("a");
    reg.catalog();
    reg.names();
    EXPECT_EQ(hookCalls, 3u);
}

TEST(RegistryTemplate, RefusesAnEmptyName)
{
    ToyRegistry reg("toy", &countingHook);
    EXPECT_EXIT(reg.add({"", 0}, [](int x) { return x; }),
                ::testing::ExitedWithCode(1), "toy: empty name");
}

TEST(RegistryTemplate, RefusesANullFunction)
{
    ToyRegistry reg("toy", &countingHook);
    EXPECT_EXIT(reg.add({"a", 0}, ToyFn()),
                ::testing::ExitedWithCode(1), "toy 'a': null function");
}

TEST(RegistryTemplate, RefusesADuplicateName)
{
    ToyRegistry reg = threeEntries();
    EXPECT_EXIT(reg.add({"b", 9}, [](int x) { return x; }),
                ::testing::ExitedWithCode(1), "toy 'b': duplicate name");
}
