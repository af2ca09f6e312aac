"""Maximum-likelihood fitting of grouped binomial counts with a logit link.

Newton-Raphson with step-halving on the grouped log-likelihood; covariance
comes in two flavours: the inverse observed information, and an
over-dispersion-adjusted version scaled by deviance/df (the quasi-binomial
adjustment).

Everything runs on numpy. scipy.linalg is imported only when the numpy rank
screen cannot rule out a rank-deficient design, to name the redundant
column by pivoted QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult",
    "fit",
    "log_likelihood",
    "score",
    "observed_information",
    "deviance",
    "SingularDesignError",
]

SCORE_TOL = 1e-8
STEP_TOL = 1e-10
MAX_ITER = 100
MAX_HALVINGS = 30
# coefficients this large, or fitted probabilities this close to 0/1 in a fit
# that did not converge, are treated as (quasi-)complete separation
SEPARATION_PROB = 1e-10
SEPARATION_COEF = 15.0


class SingularDesignError(np.linalg.LinAlgError):
    """Design matrix is rank deficient; `column` names an offending column."""

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    cov_model: np.ndarray
    cov_robust: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    dispersion: float
    message: str = ""


def expit(x):
    """Logistic function 1 / (1 + exp(-x)); 0.0 where exp(-x) overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def xlogy(x, y):
    """x * log(y), and 0 where x == 0 (even at y == 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def log_likelihood(coefficients, design, successes, totals):
    """Grouped binomial log-likelihood (binomial coefficients omitted)."""
    p = expit(design @ coefficients)
    return float(np.sum(xlogy(successes, p) + xlogy(totals - successes, 1.0 - p)))


def score(coefficients, design, successes, totals):
    """Gradient of the log-likelihood: X' (s - n p)."""
    p = expit(design @ coefficients)
    return design.T @ (successes - totals * p)


def observed_information(coefficients, design, totals):
    """Negative Hessian at `coefficients`: X' W X with w_i = n_i p_i (1 - p_i)."""
    p = expit(design @ coefficients)
    w = totals * p * (1.0 - p)
    return (design * w[:, None]).T @ design


def deviance(coefficients, design, successes, totals):
    """Residual deviance against the saturated grouped model."""
    p = expit(design @ coefficients)
    mu = totals * p
    return float(
        2.0
        * np.sum(
            xlogy(successes, successes)
            - xlogy(successes, mu)
            + xlogy(totals - successes, totals - successes)
            - xlogy(totals - successes, totals - mu)
        )
    )


def _dispersion(coefficients, design, successes, totals, inv):
    """(phi, phi * inv) with phi = deviance / df; with df <= 0, (NaN, 0 * inv)."""
    df = design.shape[0] - design.shape[1]
    if df <= 0:
        return float("nan"), 0.0 * inv
    phi = deviance(coefficients, design, successes, totals) / df
    with np.errstate(over="ignore"):  # a separated fit's inverse may reach 1e303
        return phi, phi * inv


def _check_rank(design):
    """Raise SingularDesignError naming a redundant column if rank deficient."""
    n, k = design.shape
    if n < k:
        raise SingularDesignError(
            f"design has {n} rows but {k} columns", column=None
        )
    # The verdict is pivoted QR's below. It flags pivot r only when
    # |R_rr| <= tol, and then the trailing block bounds sigma_min by
    # sqrt(k) * tol. Unpivoted R has the design's column norms and singular
    # values, so a sigma_min clear of that bound by 4x needs no scipy.
    R = np.linalg.qr(design, mode="r")
    tol = max(n, k) * np.finfo(float).eps * np.linalg.norm(R, axis=0).max(initial=0.0)
    if k and np.linalg.svd(R, compute_uv=False)[-1] > 4.0 * np.sqrt(k) * tol:
        return
    # QR with pivoting: the first rank-deficient pivot names the column that
    # is linearly dependent on its predecessors
    from scipy.linalg import qr

    _, R, piv = qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(design.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    bad = np.where(diag <= tol)[0]
    if bad.size:
        col = int(piv[bad[0]])
        raise SingularDesignError(
            f"design matrix is rank deficient: column {col} is linearly "
            "dependent on the others",
            column=col,
        )


def fit(design, successes, totals) -> FitResult:
    """Maximize the grouped binomial log-likelihood by Newton-Raphson.

    Non-convergence (including quasi-complete separation) is reported via
    converged=False, never silently.
    """
    design = np.asarray(design, dtype=float)
    successes = np.asarray(successes, dtype=float)
    totals = np.asarray(totals, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    if np.any(totals < 1) or np.any(successes < 0) or np.any(successes > totals):
        raise ValueError("counts must satisfy 0 <= successes <= totals, totals >= 1")
    _check_rank(design)

    beta = np.zeros(design.shape[1])
    # start the intercept (a constant column, if any) at the pooled logit
    const_cols = np.where(np.all(design == 1.0, axis=0))[0]
    if const_cols.size:
        pooled = successes.sum() / totals.sum()
        beta[const_cols[0]] = float(
            np.clip(np.log(pooled / (1.0 - pooled)) if 0 < pooled < 1 else 0.0, -10, 10)
        )

    ll = log_likelihood(beta, design, successes, totals)
    converged = False
    message = "iteration cap reached"
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        g = score(beta, design, successes, totals)
        if np.max(np.abs(g)) < SCORE_TOL:
            converged = True
            message = "score criterion met"
            iterations -= 1
            break
        info = observed_information(beta, design, totals)
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            message = "singular information matrix during iteration"
            break
        # step-halving keeps the log-likelihood non-decreasing
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = beta + scale * step
            cand_ll = log_likelihood(cand, design, successes, totals)
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            message = "step-halving failed to improve the log-likelihood"
            break
        delta = scale * step
        beta = beta + delta
        ll = cand_ll
        if np.max(np.abs(delta)) < STEP_TOL:
            converged = True
            message = "coefficient change below tolerance"
            break

    p = expit(design @ beta)
    if np.any(np.abs(beta) > SEPARATION_COEF) or (not converged and (
            np.any(p > 1.0 - SEPARATION_PROB) or np.any(p < SEPARATION_PROB))):
        converged = False
        message = (
            "possible quasi-complete separation: fitted probabilities or "
            "coefficients diverged"
        )

    info = observed_information(beta, design, totals)
    try:  # the design passed _check_rank above
        cov_model = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SingularDesignError("observed information is singular") from None
    phi, cov_robust = _dispersion(beta, design, successes, totals, cov_model)
    return FitResult(
        coefficients=beta,
        cov_model=cov_model,
        cov_robust=cov_robust,
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        dispersion=phi,
        message=message,
    )
