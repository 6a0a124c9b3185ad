// Differential fuzz of every compiled-in SIMD table against the scalar
// reference table (the oracle), mirroring the bitstream_ref pattern: the
// scalar bodies define the wrap-mod-256 semantics, and every vector
// implementation must be byte-identical on exhaustive and randomized inputs,
// at every length and alignment offset (to exercise the vector/tail split).

#include "simd/batch_kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "bitpack/nbits.hpp"
#include "image/rng.hpp"

namespace swc::simd {

// Print a table parameter by its name, not its address: gtest appends the
// printed parameter to each test's listed name, and an address would change
// from run to run.
void PrintTo(const BatchKernelTable* table, std::ostream* os) { *os << table->name; }

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  image::SplitMix64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& v : out) v = static_cast<std::uint8_t>(rng.next());
  return out;
}

// Lengths chosen to cover empty, sub-vector, exact multiples of 16/32, and
// every tail residue around them.
const std::size_t kLengths[] = {0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 100, 255, 256, 1000};

class BatchTable : public ::testing::TestWithParam<const BatchKernelTable*> {};

TEST_P(BatchTable, HaarForwardExhaustiveAllPairs) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  // All 256 x 256 (x0, x1) pairs as one 65536-lane batch.
  constexpr std::size_t kN = 256 * 256;
  std::vector<std::uint8_t> x0(kN), x1(kN), l(kN), h(kN), l_ref(kN), h_ref(kN);
  for (std::size_t a = 0; a < 256; ++a) {
    for (std::size_t b = 0; b < 256; ++b) {
      x0[a * 256 + b] = static_cast<std::uint8_t>(a);
      x1[a * 256 + b] = static_cast<std::uint8_t>(b);
    }
  }
  table.haar_forward(x0.data(), x1.data(), l.data(), h.data(), kN);
  ref.haar_forward(x0.data(), x1.data(), l_ref.data(), h_ref.data(), kN);
  ASSERT_EQ(l, l_ref);
  ASSERT_EQ(h, h_ref);

  // Inverse of the forward output must reproduce the inputs bit-exactly
  // (wrap-mod-256 losslessness), and must match the scalar inverse.
  std::vector<std::uint8_t> r0(kN), r1(kN), r0_ref(kN), r1_ref(kN);
  table.haar_inverse(l.data(), h.data(), r0.data(), r1.data(), kN);
  ref.haar_inverse(l.data(), h.data(), r0_ref.data(), r1_ref.data(), kN);
  ASSERT_EQ(r0, x0);
  ASSERT_EQ(r1, x1);
  ASSERT_EQ(r0, r0_ref);
  ASSERT_EQ(r1, r1_ref);
}

TEST_P(BatchTable, HaarRandomSpansAndOffsets) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  for (const std::size_t n : kLengths) {
    for (std::size_t offset = 0; offset < 3; ++offset) {
      const auto x0 = random_bytes(n + offset, 11 * n + offset);
      const auto x1 = random_bytes(n + offset, 13 * n + offset);
      std::vector<std::uint8_t> l(n + offset), h(n + offset), l_ref(n + offset),
          h_ref(n + offset);
      table.haar_forward(x0.data() + offset, x1.data() + offset, l.data() + offset,
                         h.data() + offset, n);
      ref.haar_forward(x0.data() + offset, x1.data() + offset, l_ref.data() + offset,
                       h_ref.data() + offset, n);
      ASSERT_EQ(l, l_ref) << "n=" << n << " offset=" << offset;
      ASSERT_EQ(h, h_ref) << "n=" << n << " offset=" << offset;

      std::vector<std::uint8_t> r0(n + offset), r1(n + offset);
      table.haar_inverse(l.data() + offset, h.data() + offset, r0.data() + offset,
                         r1.data() + offset, n);
      // Short-circuit n == 0: memcmp's pointers are declared nonnull, and a
      // zero-length vector's data() may be null (UBSan nonnull-attribute).
      ASSERT_TRUE(n == 0 || std::memcmp(r0.data() + offset, x0.data() + offset, n) == 0)
          << "n=" << n;
      ASSERT_TRUE(n == 0 || std::memcmp(r1.data() + offset, x1.data() + offset, n) == 0)
          << "n=" << n;
    }
  }
}

TEST_P(BatchTable, ThresholdAllValuesAllEdgeThresholds) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  // All 256 stored values, including -128 (|v| = 128 must survive t <= 128).
  std::vector<std::uint8_t> in(256);
  for (std::size_t i = 0; i < 256; ++i) in[i] = static_cast<std::uint8_t>(i);
  for (const int t : {-1, 0, 1, 2, 5, 127, 128, 129, 255, 300}) {
    std::vector<std::uint8_t> out(256), out_ref(256);
    table.threshold(in.data(), out.data(), 256, t);
    ref.threshold(in.data(), out_ref.data(), 256, t);
    ASSERT_EQ(out, out_ref) << "threshold=" << t;
    // Against the codec's significance predicate directly.
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint8_t expect = bitpack::is_significant(in[i], t) ? in[i] : std::uint8_t{0};
      ASSERT_EQ(out[i], expect) << "threshold=" << t << " value=" << i;
    }
    // In-place operation.
    std::vector<std::uint8_t> inplace = in;
    table.threshold(inplace.data(), inplace.data(), 256, t);
    ASSERT_EQ(inplace, out_ref) << "in-place threshold=" << t;
  }
  // Random spans at tail-exercising lengths.
  for (const std::size_t n : kLengths) {
    const auto data = random_bytes(n, 31 * n + 7);
    std::vector<std::uint8_t> out(n), out_ref(n);
    table.threshold(data.data(), out.data(), n, 3);
    ref.threshold(data.data(), out_ref.data(), n, 3);
    ASSERT_EQ(out, out_ref) << "n=" << n;
  }
}

TEST_P(BatchTable, NBitsOrBusMatchesGateTree) {
  const auto& table = *GetParam();
  for (const std::size_t n : kLengths) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const auto coeffs = random_bytes(n, 1000 * n + seed);
      const std::uint8_t bus = table.nbits_or_bus(coeffs.data(), n);
      ASSERT_EQ(bus, scalar_table().nbits_or_bus(coeffs.data(), n)) << "n=" << n;
      // End-to-end: OR bus + priority encode == the Fig. 7 gate tree == the
      // arithmetic group width.
      ASSERT_EQ(bitpack::nbits_from_or_bus(bus), bitpack::nbits_gate_tree(coeffs)) << "n=" << n;
      ASSERT_EQ(bitpack::nbits_from_or_bus(bus), bitpack::group_nbits(coeffs)) << "n=" << n;
    }
  }
}

TEST_P(BatchTable, NBitsOrAccumulateMatchesScalar) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  for (const std::size_t n : kLengths) {
    const auto coeffs = random_bytes(n, 77 * n + 5);
    auto acc = random_bytes(n, 99 * n + 1);
    auto acc_ref = acc;
    table.nbits_or_accumulate(coeffs.data(), acc.data(), n);
    ref.nbits_or_accumulate(coeffs.data(), acc_ref.data(), n);
    ASSERT_EQ(acc, acc_ref) << "n=" << n;
  }
}

TEST_P(BatchTable, DeinterleaveInterleaveRoundTrip) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  for (const std::size_t n : kLengths) {
    const auto in = random_bytes(2 * n, 55 * n + 3);
    std::vector<std::uint8_t> even(n), odd(n), even_ref(n), odd_ref(n), back(2 * n);
    table.deinterleave(in.data(), even.data(), odd.data(), n);
    ref.deinterleave(in.data(), even_ref.data(), odd_ref.data(), n);
    ASSERT_EQ(even, even_ref) << "n=" << n;
    ASSERT_EQ(odd, odd_ref) << "n=" << n;
    table.interleave(even.data(), odd.data(), back.data(), n);
    ASSERT_EQ(back, in) << "n=" << n;
  }
}

std::vector<std::int32_t> random_i32(std::size_t n, std::uint64_t seed) {
  image::SplitMix64 rng(seed);
  std::vector<std::int32_t> out(n);
  // Moderate range so the scalar reference's intermediate sums cannot
  // overflow (the LeGall datapath values are small anyway).
  for (auto& v : out) {
    v = static_cast<std::int32_t>(rng.next_below(2'000'001)) - 1'000'000;
  }
  return out;
}

TEST_P(BatchTable, LegallPredictMatchesScalar) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  for (const std::size_t n : kLengths) {
    const auto even = random_i32(n, 3 * n + 1);
    const auto even_next = random_i32(n, 5 * n + 2);
    const auto odd = random_i32(n, 7 * n + 3);
    for (const int sign : {-1, +1}) {
      std::vector<std::int32_t> out(n), out_ref(n);
      table.legall_predict(even.data(), even_next.data(), odd.data(), out.data(), n, sign);
      ref.legall_predict(even.data(), even_next.data(), odd.data(), out_ref.data(), n, sign);
      ASSERT_EQ(out, out_ref) << "n=" << n << " sign=" << sign;
    }
  }
}

TEST_P(BatchTable, LegallUpdateMatchesScalar) {
  const auto& table = *GetParam();
  const auto& ref = scalar_table();
  for (const std::size_t n : kLengths) {
    const auto base = random_i32(n, 13 * n + 1);
    const auto d_prev = random_i32(n, 17 * n + 2);
    const auto d = random_i32(n, 19 * n + 3);
    for (const int sign : {-1, +1}) {
      std::vector<std::int32_t> out(n), out_ref(n);
      table.legall_update(base.data(), d_prev.data(), d.data(), out.data(), n, sign);
      ref.legall_update(base.data(), d_prev.data(), d.data(), out_ref.data(), n, sign);
      ASSERT_EQ(out, out_ref) << "n=" << n << " sign=" << sign;
    }
  }
}

std::string table_name(const ::testing::TestParamInfo<const BatchKernelTable*>& info) {
  return info.param->name;
}

INSTANTIATE_TEST_SUITE_P(AllTables, BatchTable,
                         ::testing::ValuesIn(available_tables().begin(),
                                             available_tables().end()),
                         table_name);

TEST(BatchDispatch, ScalarAlwaysAvailableAndBestLast) {
  const auto tables = available_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.front()->name, "scalar");
  // The dispatched table is one of the available ones.
  const auto& active = batch();
  bool found = false;
  for (const auto* t : tables) found = found || (t == &active);
  EXPECT_TRUE(found);
  EXPECT_STREQ(active.name, active_name());
}

TEST(BatchDispatch, TableForFindsEveryAvailableTable) {
  for (const auto* t : available_tables()) {
    EXPECT_EQ(table_for(t->name), t) << t->name;
  }
  EXPECT_EQ(table_for("no_such_isa"), nullptr);
}

}  // namespace
}  // namespace swc::simd
