// Tests for support-set bitsets (Bitset64 and DynBitset share semantics).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bitset/bitset64.hpp"
#include "bitset/dynbitset.hpp"
#include "bitset/traits.hpp"
#include "support/random.hpp"

namespace elmo {
namespace {

TEST(Bitset64, SetTestResetCount) {
  Bitset64 s;
  EXPECT_TRUE(s.empty());
  s.set(0);
  s.set(63);
  s.set(17);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.test(0));
  EXPECT_TRUE(s.test(63));
  EXPECT_FALSE(s.test(1));
  s.reset(17);
  EXPECT_EQ(s.count(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(Bitset64, SubsetAndIntersection) {
  Bitset64 a;
  a.set(1);
  a.set(3);
  Bitset64 b;
  b.set(1);
  b.set(3);
  b.set(5);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  Bitset64 c;
  c.set(7);
  EXPECT_TRUE(c.is_subset_of(c | a));
  EXPECT_EQ((a & c).count(), 0u);
}

TEST(Bitset64, UnionPopcountIsTheCandidatePreTest) {
  // The paper's summary rejection: |supp(u) ∪ supp(v)| vs rank+2.
  Bitset64 u;
  u.set(0);
  u.set(1);
  u.set(2);
  Bitset64 v;
  v.set(2);
  v.set(3);
  EXPECT_EQ((u | v).count(), 4u);
}

TEST(Bitset64, OrderingMatchesWordValue) {
  Bitset64 a(0b0110);
  Bitset64 b(0b1001);
  EXPECT_LT(a, b);
  EXPECT_EQ(Bitset64(5), Bitset64(5));
}

TEST(DynBitset, MultiWordBasics) {
  DynBitset s(200);
  EXPECT_GE(s.capacity(), 200u);
  s.set(0);
  s.set(64);
  s.set(128);
  s.set(199);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.test(128));
  EXPECT_FALSE(s.test(127));
  s.reset(64);
  EXPECT_EQ(s.count(), 3u);
}

TEST(DynBitset, SubsetAcrossWords) {
  DynBitset a(130);
  DynBitset b(130);
  a.set(5);
  a.set(100);
  b.set(5);
  b.set(100);
  b.set(129);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 2u);
}

TEST(DynBitset, OrderingIsMostSignificantWordFirst) {
  DynBitset a(130);
  DynBitset b(130);
  a.set(129);  // high word
  b.set(0);    // low word
  EXPECT_GT(a, b);
}

TEST(BitsetTraits, FactoryRespectsCapacity) {
  auto small = make_support<Bitset64>(40);
  EXPECT_TRUE(small.empty());
  EXPECT_THROW(make_support<Bitset64>(65), InvalidArgumentError);
  auto big = make_support<DynBitset>(500);
  EXPECT_GE(big.capacity(), 500u);
}

// Property: Bitset64 and DynBitset agree on all operations for <=64 bits.
TEST(BitsetProperty, RepresentationsAgree) {
  Rng rng(3);
  for (int iter = 0; iter < 500; ++iter) {
    Bitset64 a64;
    Bitset64 b64;
    DynBitset adyn(64);
    DynBitset bdyn(64);
    for (int k = 0; k < 12; ++k) {
      std::size_t i = rng.below(64);
      std::size_t j = rng.below(64);
      a64.set(i);
      adyn.set(i);
      b64.set(j);
      bdyn.set(j);
    }
    EXPECT_EQ(a64.count(), adyn.count());
    EXPECT_EQ((a64 | b64).count(), (adyn | bdyn).count());
    EXPECT_EQ((a64 & b64).count(), (adyn & bdyn).count());
    EXPECT_EQ(a64.is_subset_of(b64), adyn.is_subset_of(bdyn));
    EXPECT_EQ(a64 == b64, adyn == bdyn);
    EXPECT_EQ(a64 < b64, adyn < bdyn);
    EXPECT_TRUE(std::ranges::equal(a64.words(), adyn.words()));
    EXPECT_EQ(Bitset64::from_words(a64.words()), a64);
  }
}

// Property: DynBitset against a std::vector<bool> model at widths on both
// sides of the inline/heap boundary (3 words inline, 4 and more on the
// heap), including copies and moves between the two storages.
using Model = std::vector<bool>;

DynBitset random_set(std::size_t bits, Rng& rng, Model& model) {
  DynBitset out(bits);
  model.assign(bits, false);
  for (std::size_t k = 0; k < 1 + rng.below(bits / 4 + 1); ++k) {
    const std::size_t i = rng.below(bits);
    out.set(i);
    model[i] = true;
  }
  return out;
}

void expect_matches(const DynBitset& set, const Model& model) {
  ASSERT_EQ(set.words().size(), (model.size() + 63) / 64);
  for (std::size_t i = 0; i < model.size(); ++i)
    ASSERT_EQ(set.test(i), model[i]) << "bit " << i;
  EXPECT_EQ(set.count(),
            static_cast<std::size_t>(std::ranges::count(model, true)));
}

/// Most-significant bit first, as DynBitset orders its words.
std::strong_ordering model_order(const Model& a, const Model& b) {
  for (std::size_t i = a.size(); i-- > 0;)
    if (a[i] != b[i]) return a[i] ? std::strong_ordering::greater
                                   : std::strong_ordering::less;
  return std::strong_ordering::equal;
}

TEST(BitsetProperty, DynBitsetMatchesBoolModel) {
  Rng rng(7);
  for (std::size_t bits : {130u, 192u, 193u, 500u}) {
    SCOPED_TRACE(bits);
    const bool heap = (bits + 63) / 64 > DynBitset::kInlineWords;
    for (int iter = 0; iter < 200; ++iter) {
      Model ma;
      Model mb;
      DynBitset a = random_set(bits, rng, ma);
      DynBitset b = random_set(bits, rng, mb);
      expect_matches(a, ma);
      EXPECT_EQ(a.storage_bytes(), heap ? a.words().size() * 8 : 0u);

      const std::size_t r = rng.below(bits);
      a.reset(r);
      ma[r] = false;
      expect_matches(a, ma);

      EXPECT_EQ(a == b, ma == mb);
      EXPECT_EQ(a <=> b, model_order(ma, mb));
      EXPECT_TRUE(a.is_subset_of(a | b));

      Model m_or(bits);
      Model m_and(bits);
      for (std::size_t i = 0; i < bits; ++i) {
        m_or[i] = ma[i] || mb[i];
        m_and[i] = ma[i] && mb[i];
      }
      DynBitset u = a;
      u |= b;
      expect_matches(u, m_or);
      DynBitset x = a;
      x &= b;
      expect_matches(x, m_and);
      expect_matches(a, ma);  // the copies were deep

      const DynBitset round = DynBitset::from_words(a.words());
      EXPECT_EQ(round, a);
      EXPECT_EQ(round <=> a, std::strong_ordering::equal);
    }
  }
}

TEST(BitsetProperty, DynBitsetCopiesAndMovesAcrossStorages) {
  Rng rng(11);
  for (std::size_t from : {130u, 192u, 193u, 500u}) {
    for (std::size_t to : {130u, 192u, 193u, 500u}) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      Model model;
      Model other;
      const DynBitset source = random_set(from, rng, model);

      DynBitset copied(source);
      expect_matches(copied, model);
      DynBitset moved(std::move(copied));
      expect_matches(moved, model);

      DynBitset assigned = random_set(to, rng, other);
      assigned = source;
      expect_matches(assigned, model);
      assigned.set(0);
      expect_matches(source, model);  // no shared words
      const DynBitset& self = assigned;
      assigned = self;
      EXPECT_TRUE(assigned.test(0));

      DynBitset move_assigned = random_set(to, rng, other);
      DynBitset temp(source);
      move_assigned = std::move(temp);
      expect_matches(move_assigned, model);
      temp = source;  // a moved-from set can be assigned again
      expect_matches(temp, model);
    }
  }
}

}  // namespace
}  // namespace elmo
