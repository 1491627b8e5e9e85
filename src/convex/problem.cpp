#include "convex/problem.hpp"

namespace protemp::convex {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kMaxIterations: return "max_iterations";
    case SolveStatus::kBudgetExpired: return "budget_expired";
    case SolveStatus::kNumericalFailure: return "numerical_failure";
  }
  return "?";
}

}  // namespace protemp::convex
