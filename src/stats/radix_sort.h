// radix_sort.h — stable LSD radix sort on a fixed-width unsigned key.
//
// CdnAnalyzer::add_log groups each log's tuples by /64 and its incidence
// pairs by /24. Both keys are fixed-width bit strings (a 64-bit net64, a
// 40-bit `(v4.addr << 8) | v4.length`), so a least-significant-digit radix
// sort replaces the comparison sorts with a handful of linear passes:
//
//  * one pass builds the byte histograms of every key column at once;
//  * a column in which every key has the same byte is skipped — one ISP's
//    /64s sit under a few pools, so their high bytes are mostly constant,
//    and a /24's host byte and prefix length never vary;
//  * each remaining column is one stable scatter, ping-ponging between the
//    input and a caller-provided scratch buffer of the same size. After an
//    odd number of scatters the result is copied back into the input.
//
// Stability: every scatter keeps the relative order of equal digits, so
// the result equals std::stable_sort on `key(a) < key(b)`. The scratch may
// be raw (uninitialized) storage; elements are moved with memcpy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

namespace dynamips::stats {

/// Stable sort of data[0, n) by the low `KeyBytes` bytes of `key(element)`
/// (a std::uint64_t), using scratch[0, n) as the ping-pong buffer.
template <unsigned KeyBytes, typename T, typename KeyFn>
void radix_sort(T* data, T* scratch, std::size_t n, KeyFn key) {
  static_assert(KeyBytes >= 1 && KeyBytes <= 8, "key is 1 to 8 bytes");
  static_assert(std::is_trivially_copyable_v<T>,
                "elements are moved with memcpy");
  if (n < 2) return;

  std::size_t counts[KeyBytes][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(data[i]);
    for (unsigned b = 0; b < KeyBytes; ++b) ++counts[b][(k >> (8 * b)) & 0xff];
  }

  const std::uint64_t first = key(data[0]);
  T* src = data;
  T* dst = scratch;
  for (unsigned b = 0; b < KeyBytes; ++b) {
    std::size_t* offsets = counts[b];
    const unsigned shift = 8 * b;
    if (offsets[(first >> shift) & 0xff] == n) continue;  // constant column
    std::size_t sum = 0;
    for (unsigned d = 0; d < 256; ++d) {
      const std::size_t c = offsets[d];
      offsets[d] = sum;
      sum += c;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = offsets[(key(src[i]) >> shift) & 0xff]++;
      std::memcpy(static_cast<void*>(dst + at), &src[i], sizeof(T));
    }
    std::swap(src, dst);
  }
  if (src != data)
    std::memcpy(static_cast<void*>(data), src, n * sizeof(T));
}

}  // namespace dynamips::stats
