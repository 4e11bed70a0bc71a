// Tests for the CSR sparse matrix: construction, canonical form, and MVMs
// that agree bit for bit with the dense kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/ops.hpp"
#include "linalg/sparse.hpp"
#include "lp/problem.hpp"
#include "obs/cost_ledger.hpp"

namespace memlp {
namespace {

TEST(Csr, FromDenseRoundTrip) {
  const Matrix dense{{1, 0, 2}, {0, 0, 0}, {-3, 4, 0}};
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  EXPECT_EQ(csr.nnz(), 4u);
  EXPECT_EQ(csr.to_dense(), dense);
  EXPECT_DOUBLE_EQ(csr.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(csr.at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(csr.at(2, 0), -3.0);
}

TEST(Csr, ThresholdDropsSmallEntries) {
  const Matrix dense{{1.0, 1e-15}, {1e-15, 2.0}};
  const CsrMatrix csr = CsrMatrix::from_dense(dense, 1e-12);
  EXPECT_EQ(csr.nnz(), 2u);
}

TEST(Csr, FromTripletsSumsDuplicates) {
  const CsrMatrix csr = CsrMatrix::from_triplets(
      2, 3, {{0, 1, 2.0}, {0, 1, 3.0}, {1, 2, -1.0}, {1, 0, 4.0}});
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_DOUBLE_EQ(csr.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(csr.at(1, 0), 4.0);
  std::vector<CsrMatrix::Triplet> out_of_range{{2, 0, 1.0}};
  EXPECT_THROW((void)CsrMatrix::from_triplets(2, 2, out_of_range),
               DimensionError);
}

TEST(Csr, DensityAccounting) {
  EXPECT_DOUBLE_EQ(CsrMatrix().density(), 0.0);
  const CsrMatrix csr =
      CsrMatrix::from_dense(Matrix{{1, 0}, {0, 1}});
  EXPECT_DOUBLE_EQ(csr.density(), 0.5);
}

class CsrMvmSweep : public ::testing::TestWithParam<double> {};

TEST_P(CsrMvmSweep, MatchesDenseAcrossSparsity) {
  const double sparsity = GetParam();
  Rng rng(static_cast<std::uint64_t>(sparsity * 100) + 5);
  Matrix dense(17, 11);
  for (std::size_t i = 0; i < dense.rows(); ++i)
    for (std::size_t j = 0; j < dense.cols(); ++j)
      if (rng.uniform() > sparsity) dense(i, j) = rng.normal();
  const CsrMatrix csr = CsrMatrix::from_dense(dense);
  Vec x(11);
  for (double& v : x) v = rng.normal();
  Vec xt(17);
  for (double& v : xt) v = rng.normal();
  // Zeros in the operands too: the transposed kernels skip zero entries of x.
  for (std::size_t k = 0; k < x.size(); k += 3) x[k] = 0.0;
  for (std::size_t k = 0; k < xt.size(); k += 3) xt[k] = 0.0;
  // The CSR walk drops only ±0 addends of the dense sum, so the two kernels
  // agree bit for bit, not just within a tolerance.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const Vec y_sparse = csr.multiply(x);
  const Vec y_dense = gemv(dense, x);
  const Vec yt_sparse = csr.multiply_transposed(xt);
  const Vec yt_dense = gemv_transposed(dense, xt);
  ASSERT_EQ(y_sparse.size(), y_dense.size());
  ASSERT_EQ(yt_sparse.size(), yt_dense.size());
  for (std::size_t i = 0; i < y_dense.size(); ++i)
    EXPECT_EQ(bits(y_sparse[i]), bits(y_dense[i])) << "row " << i;
  for (std::size_t j = 0; j < yt_dense.size(); ++j)
    EXPECT_EQ(bits(yt_sparse[j]), bits(yt_dense[j])) << "column " << j;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsrMvmSweep,
                         ::testing::Values(0.0, 0.3, 0.7, 0.95, 1.0));

TEST(Csr, ResidualMvmChargesTwoFlopsPerStoredEntry) {
  // A partly dense A (every other entry nonzero, density 0.5): the residual
  // MVM runs the CSR kernel, so the ledger sees 2·nnz flops, not 2·m·n.
  Rng rng(21);
  Matrix dense(12, 10);
  for (std::size_t i = 0; i < dense.rows(); ++i)
    for (std::size_t j = (i % 2); j < dense.cols(); j += 2)
      dense(i, j) = rng.uniform(0.5, 1.5);
  lp::LinearProgram problem;
  problem.a = dense;
  problem.b.assign(12, 1.0);
  problem.c.assign(10, 1.0);
  ASSERT_DOUBLE_EQ(problem.a.density(), 0.5);
  const Vec x(10, 1.0);
  const Vec w(12, 0.5);

  obs::CostLedger ledger;
  obs::CostLedger::set_active(&ledger);
  const double residual = problem.primal_infeasibility(x, w);
  obs::CostLedger::set_active(nullptr);
  EXPECT_GT(residual, 0.0);
  EXPECT_EQ(ledger.total().flops, 2u * problem.a.nnz());
}

}  // namespace
}  // namespace memlp
