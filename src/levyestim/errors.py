"""Exception hierarchy with stable machine codes.

Every abnormal outcome a caller may want to branch on maps to one subclass
of :class:`LevyEstimError`.  The command line layer serializes these as
``{"code": ..., "message": ..., "context": {...}}``, so ``code`` strings are
part of the public contract and must not change.
"""

from __future__ import annotations

import math


def _plain(value):
    # keep error payloads strict JSON: numpy scalars carry .item(), and
    # NaN/inf have no JSON spelling, so they become null
    if hasattr(value, "item"):
        value = value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class LevyEstimError(Exception):
    """Base type for all package errors."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "context": {k: _plain(v) for k, v in self.context.items()},
        }


class DomainError(LevyEstimError):
    """A parameter lies outside its admissible region."""

    code = "domain_error"


# the three domain rules shared across modules; each raises DomainError with
# the argument's name as its context key

def positive(name: str, value) -> None:
    """A scale, mesh or rate: a finite number > 0."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be a finite number > 0",
                          **{name: value})


def stable_index(beta) -> None:
    """A stable index beta in (0, 2]."""
    if not 0.0 < beta <= 2.0:
        raise DomainError("index beta must lie in (0, 2]", beta=beta)


def skew(rho) -> None:
    """A skewness rho in [-1, 1]."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError("skew rho must lie in [-1, 1]", rho=rho)


class DataError(LevyEstimError):
    """Malformed or inconsistent input data."""

    code = "data_error"


class QuadratureError(LevyEstimError):
    """A numerical integral failed to reach its accuracy target."""

    code = "quadrature_error"


class NoSignChange(LevyEstimError):
    """Root bracket endpoints evaluate to the same sign."""

    code = "no_sign_change"


class MaxIterExceeded(LevyEstimError):
    """Iteration budget exhausted before meeting the tolerance."""

    code = "max_iter_exceeded"


class EstimationError(LevyEstimError):
    """An estimator could not produce a value from the given sample.

    Monte Carlo drivers count these as failures and exclude the replication
    from summary statistics; anything else propagates.
    """

    code = "estimation_error"


class NonpositiveVarianceGap(EstimationError):
    """Empirical log-residual variance does not exceed pi^2/12, so the
    index estimate 1/sqrt(gap) is undefined."""

    code = "nonpositive_variance_gap"


class ZeroResidual(EstimationError):
    """An increment ties the sample median exactly, so its log residual
    is -inf."""

    code = "zero_residual"


class DenominatorNearZero(EstimationError):
    """The known-scale index estimate has a vanishing denominator."""

    code = "denominator_near_zero"


class RootOutOfBracket(EstimationError):
    """The estimating equation has no root inside the admissible index
    interval."""

    code = "root_out_of_bracket"


class SingularJacobian(EstimationError):
    """The estimating-equation Jacobian is numerically singular, so no
    delta-method covariance exists."""

    code = "singular_jacobian"


class InadmissiblePositivity(EstimationError):
    """A positivity estimate is incompatible with a skewed stable law of
    the fitted index."""

    code = "inadmissible_positivity"


class NotPositiveDefinite(EstimationError):
    """A covariance matrix evaluated at the fitted parameters is not
    positive definite."""

    code = "not_positive_definite"


class NonpositiveK(EstimationError):
    """The gamma-subordinator likelihood statistic K is nonpositive (all
    increments equal) or at rounding level (equal to working precision), so
    the shape equation has no root that double precision can locate."""

    code = "nonpositive_k"


class NonpositiveBrace(EstimationError):
    """The inverse-Gaussian shape expression is nonpositive (all increments
    equal)."""

    code = "nonpositive_brace"
