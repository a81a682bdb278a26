// test_radix_sort — stats/radix_sort.h against std::stable_sort: the LSD
// radix sort must give exactly the stable order of its key, whether it
// scatters an odd or an even number of times (the copy-back branch), skips
// constant byte columns, or skips every column.
#include "stats/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace dynamips::stats {
namespace {

struct Item {
  std::uint64_t key;
  std::uint32_t index;  ///< input position: ties must keep it ascending
};

std::vector<Item> make_items(std::size_t n, std::uint64_t constant,
                             std::uint64_t varying_mask,
                             std::uint32_t seed = 7) {
  std::mt19937_64 rng(seed);
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < n; ++i)
    items.push_back({constant | (rng() & varying_mask), i});
  return items;
}

template <unsigned KeyBytes>
void expect_matches_stable_sort(std::vector<Item> items) {
  auto expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) { return a.key < b.key; });
  std::vector<Item> scratch(items.size());
  radix_sort<KeyBytes>(items.data(), scratch.data(), items.size(),
                       [](const Item& it) { return it.key; });
  ASSERT_EQ(items.size(), expected.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].key, expected[i].key) << "at " << i;
    ASSERT_EQ(items[i].index, expected[i].index) << "at " << i;
  }
}

TEST(RadixSort, MatchesStableSortAtSmallAndMediumSizes) {
  for (std::size_t n : {0u, 1u, 2u, 1000u})
    expect_matches_stable_sort<8>(make_items(n, 0, ~std::uint64_t(0)));
}

TEST(RadixSort, KeepsInputOrderOfEqualKeys) {
  // 1000 items over 8 distinct keys: long tie runs.
  expect_matches_stable_sort<8>(make_items(1000, 0, 0x0700000000000000ull));
}

TEST(RadixSort, AllKeysEqualSkipsEveryColumn) {
  auto items = make_items(1000, 0x20010db800001234ull, 0);
  expect_matches_stable_sort<8>(items);
}

TEST(RadixSort, OddNumberOfPassesCopiesBack) {
  // Only the low byte varies: one scatter leaves the result in scratch.
  expect_matches_stable_sort<8>(make_items(1000, 0x20010db8aa000000ull, 0xff));
  // Three varying bytes, two constant ones between them.
  expect_matches_stable_sort<8>(
      make_items(1000, 0x20010db800000000ull, 0x00ff0000ffff0000ull));
}

TEST(RadixSort, EvenNumberOfPassesEndsInPlace) {
  // Constant high bytes, like the /64s of one ISP's pools.
  expect_matches_stable_sort<8>(
      make_items(1000, 0x20010db800000000ull, 0xffffull));
  expect_matches_stable_sort<8>(
      make_items(1000, 0x2a02800000000000ull, 0x0000ff00ff000000ull));
}

TEST(RadixSort, HonoursKeyWidth) {
  // A 5-byte key, laid out as the /24 pair key (address << 8 | length):
  // the length byte and the host byte are constant, bytes above the key
  // width are ignored even when set.
  std::mt19937 rng(3);
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    std::uint64_t addr = 0x0a000000u | ((rng() % 300) << 8);
    items.push_back({(addr << 8) | 24, i});
  }
  expect_matches_stable_sort<5>(items);

  for (auto& it : items) it.key |= 0xff00000000000000ull;
  auto expected = items;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Item& a, const Item& b) {
                     return (a.key & 0xffffffffffull) <
                            (b.key & 0xffffffffffull);
                   });
  std::vector<Item> scratch(items.size());
  radix_sort<5>(items.data(), scratch.data(), items.size(),
                [](const Item& it) { return it.key; });
  for (std::size_t i = 0; i < items.size(); ++i)
    ASSERT_EQ(items[i].index, expected[i].index) << "at " << i;
}

}  // namespace
}  // namespace dynamips::stats
