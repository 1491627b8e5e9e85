// Property tests for the barrier solver: randomized programs with planted
// optima must be solved to the planted point, satisfy the KKT conditions
// there, and give the same answer warm-started as cold-started and through
// a reused workspace as through a fresh one. Also pins the allocation-free
// linalg variants (multiply/solve) against their allocating counterparts,
// since the barrier hot loop runs entirely on the in-place forms.
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "convex/barrier.hpp"
#include "convex/functions.hpp"
#include "convex/kkt.hpp"
#include "convex/workspace.hpp"
#include "linalg/cholesky.hpp"
#include "util/rng.hpp"

namespace protemp::convex {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ------------------------------------------------------------- generators --

/// Random symmetric positive definite matrix A A^T / n + I.
Matrix random_spd(util::Rng& rng, std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = a.multiply(a.transposed());
  spd *= 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

Vector random_vector(util::Rng& rng, std::size_t n, double lo, double hi) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.uniform(lo, hi);
  return v;
}

/// A strictly convex QP  min 1/2 x^T P x + q^T x  s.t.  G x <= h  whose
/// unique optimum x_star is known in closed form. The first `active` rows
/// pass through x_star with multipliers lambda > 0, the rest keep a
/// positive slack, and q = -P x_star - G_A^T lambda makes the KKT
/// conditions hold exactly. Every row is oriented so that x = 0 is
/// strictly feasible.
struct PlantedProgram {
  BarrierProblem problem;
  Vector x_star;
  Vector duals;  ///< one multiplier per row (0 on the inactive ones)
};

PlantedProgram planted_program(util::Rng& rng, std::size_t n) {
  const std::size_t m = n + 2 + rng.uniform_index(n + 1);
  const std::size_t active = 1 + rng.uniform_index(n);
  PlantedProgram out;
  // Components bounded away from 0 keep x_star away from the origin (the
  // start point), so the row redraw below always terminates quickly.
  out.x_star = random_vector(rng, n, 0.25, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.uniform(-1.0, 1.0) < 0.0) out.x_star[j] = -out.x_star[j];
  }
  out.duals = Vector(m);
  Matrix g(m, n);
  Vector h(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Redraw rows nearly orthogonal to x_star: they would put the origin
    // (the start point) on or near the boundary.
    double at_star = 0.0;
    while (std::abs(at_star) < 0.1) {
      at_star = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        g(i, j) = rng.uniform(-1.0, 1.0);
        at_star += g(i, j) * out.x_star[j];
      }
    }
    if (at_star < 0.0) {
      for (std::size_t j = 0; j < n; ++j) g(i, j) = -g(i, j);
      at_star = -at_star;
    }
    h[i] = at_star;
    if (i < active) {
      out.duals[i] = rng.uniform(0.5, 2.0);
    } else {
      h[i] += rng.uniform(0.1, 1.0);
    }
  }
  const Matrix p = random_spd(rng, n);
  Vector q = p * out.x_star;
  g.multiply_transposed_add_into(out.duals, q);
  q *= -1.0;
  out.problem.objective = std::make_shared<QuadraticFunction>(p, q, 0.0);
  out.problem.linear = LinearConstraints{std::move(g), std::move(h)};
  return out;
}

// ------------------------------------------- barrier: planted optima --

/// The barrier's multipliers 1 / (t * slack) are exact only at a perfectly
/// centered iterate. On this sweep they land within ~3e-4 of the planted
/// multipliers while x sits within ~1e-8 of the optimum.
constexpr double kPlantedDualTolerance = 1e-3;

/// A final centering stage that stops short leaves a stationarity residual
/// with the solver's own multipliers far above the primal error (measured up
/// to ~1e-3 on this sweep, and ~9e-3 on a warm-started n = 23 program).
constexpr double kOwnDualKktTolerance = 1e-2;

TEST(BarrierProperty, LandsOnPlantedOptimum) {
  util::Rng rng(0xA11CE);
  for (std::size_t n = 2; n <= 40; ++n) {
    const PlantedProgram planted = planted_program(rng, n);
    const Solution sol = solve_barrier(planted.problem, Vector(n));
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(sol.x[i], planted.x_star[i], 1e-7)
          << "n=" << n << " component " << i;
    }
    for (std::size_t i = 0; i < planted.duals.size(); ++i) {
      EXPECT_NEAR(sol.duals[i], planted.duals[i], kPlantedDualTolerance)
          << "n=" << n << " row " << i;
    }
    // With the planted multipliers the solver's x is a KKT point to
    // near machine precision; with its own estimates, to
    // kOwnDualKktTolerance.
    EXPECT_TRUE(check_kkt(planted.problem, sol.x, planted.duals).within(1e-6))
        << "n=" << n;
    const KktResiduals kkt =
        check_kkt(planted.problem, sol.x, sol.duals);
    EXPECT_LT(kkt.worst(), kOwnDualKktTolerance) << "n=" << n;
    EXPECT_LE(kkt.primal_infeasibility, 0.0) << "n=" << n;
    EXPECT_LT(kkt.complementarity, 1e-8) << "n=" << n;
  }
}

TEST(BarrierProperty, WorkspaceReuseMatchesFreshSolves) {
  // One workspace across changing shapes (its buffers resize in place)
  // must reproduce throwaway-workspace solves bit for bit.
  util::Rng rng(0xBEEF);
  SolverWorkspace workspace;
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial * 7) % 30;
    const PlantedProgram planted = planted_program(rng, n);
    const Solution fresh = solve_barrier(planted.problem, Vector(n));
    const Solution reused =
        solve_barrier(planted.problem, Vector(n), {}, &workspace);
    ASSERT_EQ(fresh.status, SolveStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(reused.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_EQ(fresh.iterations, reused.iterations) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fresh.x[i], reused.x[i]) << "trial " << trial;
    }
  }
}

// -------------------------------------------------- barrier: warm == cold --

TEST(BarrierProperty, WarmStartMatchesColdStart) {
  util::Rng rng(0xC01D);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 5;
    const PlantedProgram planted = planted_program(rng, n);
    const BarrierProblem& problem = planted.problem;
    const Vector interior(n);

    SolverWorkspace workspace(/*warm_start=*/true);
    const Solution cold = solve_barrier(problem, interior, {}, &workspace);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "trial " << trial;

    // Warm start: seed from the cold optimum pulled epsilon into the
    // interior (the strictly feasible warm point a sweep would supply).
    Vector seed = cold.x;
    seed *= 0.999;
    seed.axpy(0.001, interior);
    ASSERT_TRUE(problem.strictly_feasible(seed));
    const Solution warm = solve_barrier(problem, seed, {}, &workspace);
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "trial " << trial;

    // Strictly convex objective: the optimum is unique, so the two paths
    // must agree to solver tolerance, and both sit on the planted point.
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(cold.x[i], warm.x[i], 1e-8)
          << "trial " << trial << " component " << i;
      EXPECT_NEAR(warm.x[i], planted.x_star[i], 1e-7)
          << "trial " << trial << " component " << i;
    }
    EXPECT_NEAR(cold.objective, warm.objective, 1e-8);
    EXPECT_TRUE(check_kkt(problem, warm.x, planted.duals).within(1e-6))
        << "trial " << trial;
    const KktResiduals kkt = check_kkt(problem, warm.x, warm.duals);
    EXPECT_LT(kkt.worst(), 1e-3) << "trial " << trial;
    EXPECT_LE(kkt.primal_infeasibility, 0.0) << "trial " << trial;
  }
}

TEST(BarrierProperty, WorkspaceStatsCountSolves) {
  util::Rng rng(0x57A7);
  const PlantedProgram planted = planted_program(rng, 3);
  SolverWorkspace workspace;
  EXPECT_EQ(workspace.stats().solves, 0u);
  (void)solve_barrier(planted.problem, Vector(3), {}, &workspace);
  (void)solve_barrier(planted.problem, Vector(3), {}, &workspace);
  EXPECT_EQ(workspace.stats().solves, 2u);
  EXPECT_GT(workspace.stats().newton_steps, 0u);
}

TEST(BarrierProperty, HintSlotsAreIndependent) {
  SolverWorkspace workspace(/*warm_start=*/true);
  EXPECT_EQ(workspace.hint(SolverWorkspace::kMain), nullptr);
  workspace.remember(SolverWorkspace::kMain, Vector{1.0, 2.0});
  ASSERT_NE(workspace.hint(SolverWorkspace::kMain), nullptr);
  EXPECT_EQ(workspace.hint(SolverWorkspace::kThroughput), nullptr);
  workspace.forget();
  EXPECT_EQ(workspace.hint(SolverWorkspace::kMain), nullptr);

  // Disabled warm start never serves hints.
  SolverWorkspace off(/*warm_start=*/false);
  off.remember(SolverWorkspace::kMain, Vector{1.0});
  EXPECT_EQ(off.hint(SolverWorkspace::kMain), nullptr);
}

// ------------------------------------------------- in-place linalg parity --

TEST(InPlaceLinalg, MultiplyIntoMatchesMultiply) {
  util::Rng rng(0x11AC);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t rows = 1 + trial, cols = 1 + (trial * 3) % 7;
    Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.uniform(-3.0, 3.0);
    }
    const Vector x = random_vector(rng, cols, -2.0, 2.0);
    const Vector y = random_vector(rng, rows, -2.0, 2.0);

    Vector out;  // deliberately wrong-sized: *_into must resize
    a.multiply_into(x, out);
    EXPECT_TRUE(out.approx_equal(a * x, 0.0));

    a.multiply_transposed_into(y, out);
    EXPECT_TRUE(out.approx_equal(a.multiply_transposed(y), 0.0));

    // Accumulating forms add exactly one product.
    Vector acc(rows, 1.0);
    a.multiply_add_into(x, acc);
    Vector expected = a * x;
    for (std::size_t i = 0; i < rows; ++i) expected[i] += 1.0;
    EXPECT_TRUE(acc.approx_equal(expected, 1e-15));

    const Vector d = random_vector(rng, rows, 0.1, 2.0);
    Matrix gram;
    a.gram_weighted_into(d, gram);
    EXPECT_TRUE(gram.approx_equal(a.gram_weighted(d), 0.0));
  }
}

TEST(InPlaceLinalg, CholeskyRefactorAndSolveInto) {
  util::Rng rng(0xFAC);
  linalg::Cholesky chol;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 2 + trial;
    const Matrix a = random_spd(rng, n);
    const Vector b = random_vector(rng, n, -1.0, 1.0);
    ASSERT_TRUE(chol.refactor(a));  // reused across trials, shapes change
    Vector x;
    chol.solve_into(b, x);
    const auto fresh = linalg::Cholesky::factor(a);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_TRUE(x.approx_equal(fresh->solve(b), 1e-12));
    // Residual check: A x == b.
    EXPECT_TRUE((a * x).approx_equal(b, 1e-9));
  }
  // Refactor must report indefinite matrices without throwing.
  Matrix indef = Matrix::identity(3);
  indef(2, 2) = -1.0;
  EXPECT_FALSE(chol.refactor(indef));
}

}  // namespace
}  // namespace protemp::convex
