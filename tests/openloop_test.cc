// Open-loop generator tests (src/workload/openloop.h).
//
// Determinism first: the generated stream must be a pure function of the
// config — the bench's "controller-detached runs are bit-identical"
// claim rests on it. Then statistical sanity: the base process really is
// Poisson (chi-square on the inter-arrival distribution), thinning
// really tracks the modulation envelope (burst windows, diurnal crest
// vs. trough), and the structural fields (region bounds, alignment,
// write fraction, block-size mix) honor the config.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "workload/openloop.h"

namespace nvmetro::workload {
namespace {

bool SameArrival(const Arrival& a, const Arrival& b) {
  return a.at == b.at && a.tenant_id == b.tenant_id &&
         a.is_write == b.is_write && a.slba == b.slba && a.nlb == b.nlb;
}

OpenLoopConfig BaseConfig(u64 seed) {
  OpenLoopConfig cfg;
  cfg.seed = seed;
  cfg.horizon_ns = 200 * kMs;
  for (u32 i = 1; i <= 3; i++) {
    TenantLoad t;
    t.tenant_id = i;
    t.base_iops = 4'000.0 * i;
    t.write_fraction = 0.3;
    t.first_lba = (i - 1) * (1ull << 20);
    t.region_nlb = 1ull << 20;
    t.mix = {{1, 1}, {8, 2}, {32, 1}};
    cfg.tenants.push_back(t);
  }
  // Tenant 2 gets random burst episodes, tenant 3 a diurnal envelope, so
  // the determinism claim covers every modulation path.
  cfg.tenants[1].burst_multiplier = 5.0;
  cfg.tenants[1].burst_mean_interval_ns = 20 * kMs;
  cfg.tenants[1].burst_mean_duration_ns = 2 * kMs;
  cfg.tenants[2].diurnal_amplitude = 0.4;
  cfg.tenants[2].diurnal_period_ns = 50 * kMs;
  return cfg;
}

// --- Determinism -------------------------------------------------------------

TEST(OpenLoopTest, SameSeedBitIdenticalStream) {
  OpenLoopGenerator g1(BaseConfig(42));
  OpenLoopGenerator g2(BaseConfig(42));
  std::vector<Arrival> s1 = g1.GenerateAll();
  std::vector<Arrival> s2 = g2.GenerateAll();
  ASSERT_GT(s1.size(), 1000u);
  ASSERT_EQ(s1.size(), s2.size());
  for (usize i = 0; i < s1.size(); i++) {
    ASSERT_TRUE(SameArrival(s1[i], s2[i])) << "diverged at arrival " << i;
  }
}

TEST(OpenLoopTest, DifferentSeedDifferentStream) {
  std::vector<Arrival> s1 = OpenLoopGenerator(BaseConfig(42)).GenerateAll();
  std::vector<Arrival> s2 = OpenLoopGenerator(BaseConfig(43)).GenerateAll();
  bool differs = s1.size() != s2.size();
  for (usize i = 0; !differs && i < s1.size(); i++) {
    differs = !SameArrival(s1[i], s2[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(OpenLoopTest, TenantStreamsAreIndependent) {
  // Removing one tenant must not perturb another tenant's arrivals: each
  // stream owns its Rng, derived from (seed, tenant_id).
  OpenLoopConfig both = BaseConfig(7);
  OpenLoopConfig solo = both;
  solo.tenants = {both.tenants[2]};
  std::vector<Arrival> merged = OpenLoopGenerator(both).GenerateAll();
  std::vector<Arrival> alone = OpenLoopGenerator(solo).GenerateAll();
  std::vector<Arrival> filtered;
  for (const Arrival& a : merged) {
    if (a.tenant_id == 3) filtered.push_back(a);
  }
  ASSERT_EQ(filtered.size(), alone.size());
  for (usize i = 0; i < alone.size(); i++) {
    ASSERT_TRUE(SameArrival(filtered[i], alone[i])) << "at arrival " << i;
  }
}

TEST(OpenLoopTest, MergedStreamIsTimeOrdered) {
  OpenLoopGenerator gen(BaseConfig(9));
  Arrival a;
  SimTime prev = 0;
  u64 n = 0;
  while (gen.Next(&a)) {
    ASSERT_GE(a.at, prev) << "out of order at arrival " << n;
    ASSERT_LT(a.at, gen.config().horizon_ns);
    prev = a.at;
    n++;
  }
  EXPECT_GT(n, 1000u);
}

// --- Statistical sanity ------------------------------------------------------

TEST(OpenLoopTest, ConstantRatePoissonChiSquare) {
  // Unmodulated single tenant: inter-arrival gaps must be exponential
  // with mean 1/rate. Chi-square over 10 equiprobable exponential bins;
  // threshold 27.88 is the 0.999 quantile at 9 degrees of freedom, so a
  // correct generator fails ~1/1000 seeds — and the seed is pinned.
  OpenLoopConfig cfg;
  cfg.seed = 1234;
  cfg.horizon_ns = 2'000 * kMs;
  TenantLoad t;
  t.tenant_id = 1;
  t.base_iops = 10'000.0;
  cfg.tenants = {t};
  std::vector<Arrival> s = OpenLoopGenerator(cfg).GenerateAll();
  ASSERT_GT(s.size(), 10'000u);

  const double mean_ns = 1e9 / t.base_iops;
  constexpr int kBins = 10;
  // Equiprobable bin edges of Exp(mean): -mean * ln(1 - i/k).
  double edges[kBins + 1];
  for (int i = 0; i <= kBins; i++) {
    edges[i] = i == kBins ? 1e18
                          : -mean_ns * std::log(1.0 - static_cast<double>(i) /
                                                          kBins);
  }
  u64 observed[kBins] = {};
  double sum_ns = 0;
  for (usize i = 1; i < s.size(); i++) {
    double gap = static_cast<double>(s[i].at - s[i - 1].at);
    sum_ns += gap;
    for (int b = 0; b < kBins; b++) {
      if (gap >= edges[b] && gap < edges[b + 1]) {
        observed[b]++;
        break;
      }
    }
  }
  const double n = static_cast<double>(s.size() - 1);
  // Sample mean within 3% of 1/rate.
  EXPECT_NEAR(sum_ns / n, mean_ns, 0.03 * mean_ns);
  const double expected = n / kBins;
  double chi2 = 0;
  for (u64 o : observed) {
    double d = static_cast<double>(o) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 27.88) << "inter-arrival distribution is not exponential";
}

TEST(OpenLoopTest, ForcedBurstMultipliesArrivalRate) {
  OpenLoopConfig cfg;
  cfg.seed = 5;
  cfg.horizon_ns = 300 * kMs;
  TenantLoad t;
  t.tenant_id = 1;
  t.base_iops = 5'000.0;
  t.burst_multiplier = 10.0;
  t.forced_burst_at_ns = 100 * kMs;
  t.forced_burst_duration_ns = 100 * kMs;
  cfg.tenants = {t};
  OpenLoopGenerator gen(cfg);
  EXPECT_DOUBLE_EQ(gen.RateFactorAt(0, 50 * kMs), 1.0);
  EXPECT_DOUBLE_EQ(gen.RateFactorAt(0, 150 * kMs), 10.0);
  EXPECT_DOUBLE_EQ(gen.RateFactorAt(0, 250 * kMs), 1.0);

  u64 before = 0, during = 0;
  for (const Arrival& a : gen.GenerateAll()) {
    if (a.at < 100 * kMs) before++;
    else if (a.at < 200 * kMs) during++;
  }
  // 100 ms at 5k -> ~500 arrivals; 100 ms at 50k -> ~5000. Allow wide
  // Poisson slack: the ratio must still be clearly ~10x.
  ASSERT_GT(before, 350u);
  double ratio = static_cast<double>(during) / static_cast<double>(before);
  EXPECT_GT(ratio, 7.0);
  EXPECT_LT(ratio, 13.0);
}

TEST(OpenLoopTest, DiurnalCrestOutweighsTrough) {
  OpenLoopConfig cfg;
  cfg.seed = 11;
  cfg.horizon_ns = 100 * kMs;
  TenantLoad t;
  t.tenant_id = 1;
  t.base_iops = 20'000.0;
  t.diurnal_amplitude = 0.5;
  t.diurnal_period_ns = 100 * kMs;  // crest in the first half, trough second
  cfg.tenants = {t};
  OpenLoopGenerator gen(cfg);
  EXPECT_NEAR(gen.RateFactorAt(0, 25 * kMs), 1.5, 1e-9);
  EXPECT_NEAR(gen.RateFactorAt(0, 75 * kMs), 0.5, 1e-9);
  u64 crest = 0, trough = 0;
  for (const Arrival& a : gen.GenerateAll()) {
    (a.at < 50 * kMs ? crest : trough)++;
  }
  // Mean factor over the crest half is 1 + 2*A/pi ~ 1.318, over the
  // trough half ~ 0.682: the count ratio must reflect it.
  double ratio = static_cast<double>(crest) / static_cast<double>(trough);
  EXPECT_GT(ratio, 1.6);
  EXPECT_LT(ratio, 2.3);
}

// --- Structural fields -------------------------------------------------------

TEST(OpenLoopTest, FieldsHonorConfig) {
  OpenLoopConfig cfg;
  cfg.seed = 3;
  cfg.horizon_ns = 400 * kMs;
  TenantLoad t;
  t.tenant_id = 17;
  t.base_iops = 10'000.0;
  t.write_fraction = 0.25;
  t.first_lba = 1 << 16;
  t.region_nlb = 1 << 12;
  t.mix = {{1, 1}, {8, 3}};
  cfg.tenants = {t};
  u64 writes = 0, total = 0, nlb1 = 0, nlb8 = 0;
  for (const Arrival& a : OpenLoopGenerator(cfg).GenerateAll()) {
    total++;
    if (a.is_write) writes++;
    ASSERT_EQ(a.tenant_id, 17u);
    ASSERT_TRUE(a.nlb == 1 || a.nlb == 8) << a.nlb;
    (a.nlb == 1 ? nlb1 : nlb8)++;
    ASSERT_GE(a.slba, t.first_lba);
    ASSERT_LT(a.slba + a.nlb, t.first_lba + t.region_nlb + a.nlb);
    ASSERT_EQ((a.slba - t.first_lba) % a.nlb, 0u) << "unaligned slba";
  }
  ASSERT_GT(total, 1000u);
  EXPECT_NEAR(static_cast<double>(writes) / total, 0.25, 0.03);
  EXPECT_NEAR(static_cast<double>(nlb8) / total, 0.75, 0.03);
}

TEST(OpenLoopTest, BuildSkewedTenantsZipfShares) {
  std::vector<TenantLoad> ts = BuildSkewedTenants(4, 10, 100'000.0, 1.0,
                                                  1 << 20);
  ASSERT_EQ(ts.size(), 4u);
  double sum = 0;
  for (usize i = 0; i < ts.size(); i++) {
    EXPECT_EQ(ts[i].tenant_id, 10u + i);
    sum += ts[i].base_iops;
    if (i) {
      EXPECT_LT(ts[i].base_iops, ts[i - 1].base_iops);
    }
    // Equal disjoint LBA slices.
    EXPECT_EQ(ts[i].first_lba, i * ((1ull << 20) / 4));
    EXPECT_EQ(ts[i].region_nlb, (1ull << 20) / 4);
  }
  EXPECT_NEAR(sum, 100'000.0, 1.0);
  // theta=1: head share = (1/1)/(1+1/2+1/3+1/4) = 48% of the aggregate.
  EXPECT_NEAR(ts[0].base_iops, 48'000.0, 500.0);
}

TEST(OpenLoopTest, ZeroRateTenantYieldsNothing) {
  OpenLoopConfig cfg;
  cfg.seed = 2;
  cfg.horizon_ns = 10 * kMs;
  TenantLoad quiet;
  quiet.tenant_id = 1;
  quiet.base_iops = 0.0;
  TenantLoad busy = quiet;  // a second default-built mix misleads GCC 12
  busy.tenant_id = 2;
  busy.base_iops = 1'000.0;
  cfg.tenants = {quiet, busy};
  for (const Arrival& a : OpenLoopGenerator(cfg).GenerateAll()) {
    EXPECT_EQ(a.tenant_id, 2u);
  }
}

}  // namespace
}  // namespace nvmetro::workload
