"""Maximum-likelihood fitting of grouped binomial counts with a logit link.

Newton-Raphson with step-halving on the grouped log-likelihood; covariance
comes in two flavours: the inverse observed information, and an
over-dispersion-adjusted version scaled by deviance/df (the quasi-binomial
adjustment).

Newton computes the fitted risks once per coefficient vector, and the score,
the information, the separation check and the deviance all read them.

Everything runs on numpy. The rank screen takes the least eigenvalue of the
Gram matrix X'X; scipy.linalg is imported only when that screen cannot
certify full rank, to name the redundant column by pivoted QR.
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


def _log_likelihood(p, successes, totals):
    return float(np.sum(xlogy(successes, p) + xlogy(totals - successes, 1.0 - p)))


def _score(p, design, successes, totals):
    return design.T @ (successes - totals * p)


def _information(p, design, totals):
    w = totals * p * (1.0 - p)
    return (design * w[:, None]).T @ design


def _deviance(p, successes, totals):
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


def log_likelihood(coefficients, design, successes, totals):
    """Grouped binomial log-likelihood (binomial coefficients omitted)."""
    return _log_likelihood(expit(design @ coefficients), successes, totals)


def score(coefficients, design, successes, totals):
    """Gradient of the log-likelihood: X' (s - n p)."""
    return _score(expit(design @ coefficients), design, successes, totals)


def observed_information(coefficients, design, totals):
    """Negative Hessian at `coefficients`: X' W X with w_i = n_i p_i (1 - p_i)."""
    return _information(expit(design @ coefficients), design, totals)


def deviance(coefficients, design, successes, totals):
    """Residual deviance against the saturated grouped model."""
    return _deviance(expit(design @ coefficients), successes, totals)


def _dispersion(p, design, successes, totals, inv):
    """(phi, phi * inv) with phi = deviance / df, the deviance at the fitted
    risks p; with df <= 0, (NaN, 0 * inv)."""
    df = design.shape[0] - design.shape[1]
    if df <= 0:
        return float("nan"), 0.0 * inv
    phi = _deviance(p, successes, totals) / df
    with np.errstate(over="ignore"):  # a covariance near the float limit overflows to inf
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
    # sqrt(k) * tol, so a sigma_min clear of that bound by 4x needs no scipy.
    # sigma_min^2 is the least eigenvalue of G = X'X. The computed G is off
    # by at most gamma_n |X|'|X| entrywise, a PSD matrix whose 2-norm is at
    # most its trace, trace G; eigvalsh's eigenvalues are exact for a matrix
    # within a small multiple of k * eps * ||G|| <= k * eps * trace G of the
    # computed G. By Weyl's inequality the computed lambda_min is thus within
    # slack of sigma_min^2 (eps for the unit roundoff doubles gamma_n, which
    # covers the rounding of the trace; 10 is the multiple).
    G = design.T @ design  # numpy hands X'X to syrk
    eps = np.finfo(float).eps
    tol = max(n, k) * eps * np.sqrt(np.diag(G).max(initial=0.0))
    slack = (n * eps / (1.0 - n * eps) + 10 * k * eps) * np.trace(G)
    if k and np.linalg.eigvalsh(G)[0] - slack > (4.0 * np.sqrt(k) * tol) ** 2:
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

    # one risk vector per coefficient vector: p is always expit(design @ beta)
    p = expit(design @ beta)
    ll = _log_likelihood(p, successes, totals)
    converged = False
    message = "iteration cap reached"
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        g = _score(p, design, successes, totals)
        if np.max(np.abs(g)) < SCORE_TOL:
            converged = True
            message = "score criterion met"
            iterations -= 1
            break
        info = _information(p, design, totals)
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            message = "singular information matrix during iteration"
            break
        # step-halving keeps the log-likelihood non-decreasing
        scale = 1.0
        for _ in range(MAX_HALVINGS):
            cand = beta + scale * step
            cand_p = expit(design @ cand)
            cand_ll = _log_likelihood(cand_p, successes, totals)
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            message = "step-halving failed to improve the log-likelihood"
            break
        delta = scale * step
        beta, p, ll = cand, cand_p, cand_ll  # cand is beta + delta
        if np.max(np.abs(delta)) < STEP_TOL:
            converged = True
            message = "coefficient change below tolerance"
            break

    if np.any(np.abs(beta) > SEPARATION_COEF) or (not converged and (
            np.any(p > 1.0 - SEPARATION_PROB) or np.any(p < SEPARATION_PROB))):
        converged = False
        message = (
            "possible quasi-complete separation: fitted probabilities or "
            "coefficients diverged"
        )

    info = _information(p, design, totals)
    cov_model = np.full_like(info, np.nan)  # a fit that did not converge has no covariance
    if converged:
        try:  # the design passed _check_rank above
            C = np.linalg.cholesky(info)
        except np.linalg.LinAlgError:
            raise SingularDesignError("observed information is singular") from None
        # C[j, j]**2 / info[j, j] <= 1: share of j's information no earlier column explains
        share = (np.diag(C) / np.sqrt(np.diag(info))) ** 2
        bad = np.flatnonzero(share <= 1e3 * len(info) * np.finfo(float).eps)
        if bad.size:
            raise SingularDesignError(
                f"observed information is numerically singular: column {bad[0]} is almost "
                "a combination of the columns before it", column=int(bad[0]))
        Cinv = np.linalg.inv(C)
        with np.errstate(over="ignore"):  # as in _dispersion
            cov_model = Cinv.T @ Cinv  # I^-1 = C^-T C^-1; numpy hands A'A to syrk
    phi, cov_robust = _dispersion(p, design, successes, totals, cov_model)
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
