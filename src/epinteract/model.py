"""Regression model specification and design-matrix expansion.

Terms are an intercept, main effects of binary variables, or pairwise
products; variables are the two exposures z1, z2 and the dataset's covariates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EXPOSURE_LEVELS, EXPOSURE_NAMES, Dataset

__all__ = [
    "Term",
    "ModelSpec",
    "SpecificationError",
    "design_matrix",
    "pattern_design",
    "expand_dataset",
    "parse_formula",
    "model_25_formula",
    "model_26_formula",
]

# The two models fitted to the bundled H. pylori data: the richer one carries
# both exposure-exposure and exposure-covariate products.
model_25_formula = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3 + z1:x2"
model_26_formula = "y ~ z1 + z2 + z1:z2 + x1 + x2 + x3"


class SpecificationError(ValueError):
    """Model specification does not match the data or is malformed."""


@dataclass(frozen=True)
class Term:
    """One column of the design matrix: the product of its variables.

    No variables is the intercept, one a main effect, and two distinct ones a
    pairwise product. variables are kept sorted, so (a, b) and (b, a) are the
    same term.
    """

    variables: tuple[str, ...] = ()

    def __post_init__(self):
        variables = tuple(sorted(self.variables))
        if len(variables) > 2 or len(set(variables)) < len(variables):
            raise SpecificationError("product term takes two distinct variables")
        object.__setattr__(self, "variables", variables)

    @property
    def label(self) -> str:
        return ":".join(self.variables) or "(intercept)"


@dataclass(frozen=True)
class ModelSpec:
    """Ordered list of terms of a logistic model."""

    terms: tuple[Term, ...]

    def __post_init__(self):
        n_intercept = sum(1 for t in self.terms if not t.variables)
        if n_intercept != 1:
            raise SpecificationError(
                f"model must contain exactly one intercept term, got {n_intercept}"
            )
        for i, term in enumerate(self.terms):
            if term in self.terms[:i]:
                raise SpecificationError(f"duplicate term {term.label!r}")

    @property
    def term_labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


def _check_variables(spec: ModelSpec, known) -> None:
    """Raise one SpecificationError naming every variable of `spec` not in `known`."""
    unknown = {v for t in spec.terms for v in t.variables} - set(known)
    if unknown:
        raise SpecificationError(
            f"model references unknown variables {sorted(unknown)}; "
            f"data provides {sorted(known)}"
        )


def design_matrix(exposures, covariates, spec: ModelSpec, covariate_names=None):
    """Evaluate each term of `spec` at n (z, x) points at once.

    `exposures` has shape (n, 2) and `covariates` shape (n, K); covariate
    names default to x1..xK in column order. Column j of the result is 1, the
    term's variable, or the product of its two variables.
    """
    Z = np.asarray(exposures, dtype=float)
    Xc = np.asarray(covariates, dtype=float)
    if covariate_names is None:
        covariate_names = tuple(f"x{i + 1}" for i in range(Xc.shape[1]))
    columns = dict(zip(covariate_names, Xc.T))
    columns.update(zip(EXPOSURE_NAMES, Z.T))
    _check_variables(spec, columns)
    D = np.ones((len(Z), len(spec.terms)))
    for j, term in enumerate(spec.terms):
        for v in term.variables:
            D[:, j] *= columns[v]
    return D


def pattern_design(spec: ModelSpec, patterns, covariate_names):
    """The design rows (S, k) of the pattern rows (S, K) at z = (1, 1), and
    the (4, k) mask of the columns that can be nonzero at each exposure pair,
    in EXPOSURE_LEVELS order: those whose exposures are all 1 there."""
    S, K = np.shape(patterns)
    T = design_matrix(np.ones((S, 2)), patterns, spec, covariate_names)
    return T, design_matrix(EXPOSURE_LEVELS, np.ones((4, K)), spec, covariate_names) > 0


def expand_dataset(data: Dataset, spec: ModelSpec):
    """(design matrix, successes, totals), one row per cell in dataset order:
    its pattern's design at z = (1, 1) times its exposure pair's mask row, 0/1
    products that equal `design_matrix` at the cells exactly."""
    (patterns, group), cells, k = data.pattern_rows(), data.cells, len(data.covariate_names)
    T, on = pattern_design(spec, patterns, data.covariate_names)
    X = T[group]
    X *= on[2 * cells[:, k] + cells[:, k + 1]]
    return X, cells[:, -2].astype(float), cells[:, -1].astype(float)


def parse_formula(text: str) -> ModelSpec:
    """Parse "y ~ z1 + z2 + z1:z2 + x1" into a ModelSpec.

    The intercept is implicit. ":" denotes a pairwise product. A term may
    appear only once. Variables are checked against the data by
    `design_matrix`.
    """
    if not text or not text.strip():
        raise SpecificationError("empty formula")
    if "~" in text:
        lhs, _, rhs = text.partition("~")
        if not lhs.strip():
            raise SpecificationError("formula has '~' but no outcome name")
    else:
        rhs = text
    terms = [Term()]
    for token in rhs.split("+"):
        token = token.strip()
        if not token:
            raise SpecificationError(f"malformed formula near {rhs.strip()!r}")
        parts = [p.strip() for p in token.split(":")]
        if any(not p or not p.isidentifier() for p in parts):
            raise SpecificationError(f"malformed term {token!r}")
        if len(parts) > 2:
            raise SpecificationError(
                f"term {token!r} has more than two factors; only pairwise "
                "products are supported"
            )
        terms.append(Term(tuple(parts)))
    return ModelSpec(terms=tuple(terms))
