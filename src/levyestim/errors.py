"""Exception hierarchy with stable machine codes.

Every abnormal outcome a caller may want to branch on maps to one subclass
of :class:`LevyEstimError`.  The command line layer serializes these as
``{"code": ..., "message": ..., "context": {...}}``, so ``code`` strings are
part of the public contract and must not change.
"""

from __future__ import annotations

import math


def plain(value):
    # strict JSON for error contexts and report extras: numpy arrays and
    # scalars become lists and numbers (.tolist()), NaN/inf become null
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
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
            "context": plain(self.context),
        }


class DomainError(LevyEstimError):
    """A parameter lies outside its admissible region."""

    code = "domain_error"


# the domain rules shared across modules; each raises DomainError with the
# argument's name as its context key

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


def sample_size(n) -> None:
    """A sample size n >= 1."""
    if n < 1:
        raise DomainError("sample size n must be >= 1", n=n)


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
    """A skewed moment formula or estimating equation is undefined at the
    estimates: a positivity estimate p with |p - 1/2| >= 1/(2 beta), where
    cos(beta pi (p - 1/2)) <= 0 (fewer p than the law's range
    (1 - 1/beta, 1/beta) leaves out), vanishing power sums, or a
    nonpositive scale functional."""

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


# A block core estimates every row of a (rows, n) block of samples and
# returns one result per row: the row's point estimate, or the
# EstimationError it failed with.  Any other error propagates, as it does
# from a single sample.

def _attempt(point, args):
    # point(*args), or the EstimationError it raised.  No frame that the
    # error's traceback keeps holds the result list, so a failed row
    # leaves no reference cycle that would keep a block's arrays alive
    try:
        return point(*args)
    except EstimationError as exc:
        return exc


def each_row(point, *columns) -> list:
    """point(*args) for the args of each row, taken across ``columns``; a
    row whose call raises an EstimationError yields that error."""
    return [_attempt(point, args) for args in zip(*columns)]


def only_row(results: list):
    """The result of a one-row block: its point estimate, or its error
    raised."""
    (result,) = results
    if isinstance(result, EstimationError):
        try:
            raise result
        finally:  # this frame, kept by the traceback, drops the error
            results = result = None
    return result
