"""Univariate binary logistic regression by maximum likelihood.

The model is ``pi(x) = exp(a + b*x) / (1 + exp(a + b*x))`` with intercept
``a`` and coefficient ``b``.  Fitting runs Newton-Raphson on an internally
standardized predictor (raw scales here span three orders of magnitude and
make the Hessian ill-conditioned), then back-transforms coefficients and
standard errors.  With two parameters the Hessian is 2x2, so each Newton
step and the covariance are closed-form (Cramer's rule and the explicit
inverse).  Every sum over observations is exactly rounded (``math.fsum``),
so a fit does not depend on row order.  Model significance is a
likelihood-ratio chi-square against the intercept-only fit, one degree of
freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import SeparationError

# Standardized slopes beyond this are MLE divergence, not signal.
_SEPARATION_BOUND = 50.0
# Newton-Raphson converges when the log-likelihood moves less than _TOL.
_MAX_ITER = 100
_TOL = 1e-10


@dataclass(frozen=True)
class LogisticFit:
    a: float
    b: float
    se_a: float
    se_b: float
    ll_full: float
    ll_null: float
    chi2: float
    p_value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ClassificationReport:
    cutoff: float
    tp: int
    fp: int
    tn: int
    fn: int
    sensitivity: float
    specificity: float


def _sigmoid(t: float) -> float:
    """``1 / (1 + exp(-t))``; stable for large ``|t|``."""
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    et = math.exp(t)
    return et / (1.0 + et)


def predict(fit: LogisticFit, x: float) -> float:
    """Predicted success probability at ``x``."""
    return _sigmoid(fit.a + fit.b * x)


def lr_p_value(chi2: float) -> float:
    """Survival function of the chi-square distribution with 1 df."""
    if chi2 < 0:
        raise ValueError("chi2 must be non-negative")
    return math.erfc(math.sqrt(chi2 / 2.0))


def _softplus(t: float) -> float:
    """``log(1 + exp(t))``; stable for large ``|t|``."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _log_likelihood(a: float, b: float, zs: list[float], ys: list[float]) -> float:
    # log(p) = -softplus(-eta) and log(1 - p) = -softplus(eta)
    return -math.fsum(_softplus(-(a + b * z) if y else a + b * z) for z, y in zip(zs, ys))


def fit_logistic(xs: Sequence[float], ys: Sequence[int]) -> LogisticFit:
    """Maximum-likelihood fit of the univariate logistic model.

    Raises SeparationError when the standardized slope runs past the
    divergence guard (complete or quasi-complete separation: the MLE does
    not exist).  Returns ``converged=False`` if Newton-Raphson failed to
    reach ``_TOL`` within ``_MAX_ITER`` iterations.
    """
    x = [float(v) for v in xs]
    y = [float(v) for v in ys]
    n = len(x)
    if n != len(y):
        raise ValueError("xs and ys must be equal-length 1-d sequences")
    if n < 10:
        raise ValueError("need at least 10 observations")
    if not all(v == 0.0 or v == 1.0 for v in y):
        raise ValueError("ys must be 0/1")
    if min(y) == max(y):
        raise ValueError("ys must contain both classes")
    if not all(map(math.isfinite, x)):
        raise ValueError("xs must be finite")
    mean = math.fsum(x) / n
    scale = math.sqrt(math.fsum((v - mean) ** 2 for v in x) / n)
    # an exactly rounded mean of equal values can miss them by an ulp
    if scale == 0.0 or min(x) == max(x):
        raise ValueError("constant predictor")
    z = [(v - mean) / scale for v in x]

    ybar = math.fsum(y) / n
    a_std = math.log(ybar / (1.0 - ybar))
    b_std = 0.0
    ll = ll_null = _log_likelihood(a_std, b_std, z, y)
    converged = False
    iterations = 0
    h00, h01, h11 = 1.0, 0.0, 1.0  # the Hessian [[h00, h01], [h01, h11]]
    for iterations in range(1, _MAX_ITER + 1):
        p = [_sigmoid(a_std + b_std * v) for v in z]
        r = [yi - pi for yi, pi in zip(y, p)]
        w = [pi * (1.0 - pi) for pi in p]
        g0 = math.fsum(r)
        g1 = math.fsum(ri * v for ri, v in zip(r, z))
        h00 = math.fsum(w)
        h01 = math.fsum(wi * v for wi, v in zip(w, z))
        h11 = math.fsum(wi * v * v for wi, v in zip(w, z))
        det = h00 * h11 - h01 * h01
        if det == 0.0:
            break
        step_a = (g0 * h11 - h01 * g1) / det
        step_b = (h00 * g1 - h01 * g0) / det
        # step-halving keeps the likelihood monotone on awkward samples
        factor = 1.0
        for _ in range(30):
            ll_new = _log_likelihood(a_std + factor * step_a, b_std + factor * step_b, z, y)
            if ll_new >= ll - 1e-12:
                break
            factor /= 2.0
        a_std, b_std = a_std + factor * step_a, b_std + factor * step_b
        if abs(b_std) > _SEPARATION_BOUND:
            raise SeparationError(
                f"standardized slope {b_std:.1f} exceeds {_SEPARATION_BOUND}: "
                "classes are separated, the MLE does not exist"
            )
        ll_new = _log_likelihood(a_std, b_std, z, y)
        if abs(ll_new - ll) < _TOL:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    # back-transform: x_std = (x - mean)/scale  =>  b = b_std/scale,
    # a = a_std - b_std*mean/scale; covariance J C J^T with the Jacobian
    # J = [[1, -mean/scale], [0, 1/scale]] of that map and C the inverse
    # of the last Hessian, [[h11, -h01], [-h01, h00]] / det.
    det = h00 * h11 - h01 * h01
    if det == 0.0:
        se_a = se_b = float("nan")
    else:
        c00, c01, c11 = h11 / det, -h01 / det, h00 / det
        shift, inv_scale = mean / scale, 1.0 / scale
        se_a = math.sqrt(max((c00 - shift * c01) - shift * (c01 - shift * c11), 0.0))
        se_b = math.sqrt(max(c11 * inv_scale * inv_scale, 0.0))
    chi2 = max(2.0 * (ll - ll_null), 0.0)
    return LogisticFit(
        a=a_std - b_std * mean / scale,
        b=b_std / scale,
        se_a=se_a,
        se_b=se_b,
        ll_full=ll,
        ll_null=ll_null,
        chi2=chi2,
        p_value=lr_p_value(chi2),
        converged=converged,
        iterations=iterations,
    )


def classify(
    fit: LogisticFit,
    xs: Sequence[float],
    ys: Sequence[int],
    cutoff: float = 0.5,
) -> ClassificationReport:
    """Confusion counts and rates at a probability cutoff (default 0.5;
    the natural choice for balanced 50/50 samples)."""
    tp = fp = tn = fn = 0
    for x, y in zip(xs, ys):
        predicted = 1 if predict(fit, x) >= cutoff else 0
        if predicted == 1 and y == 1:
            tp += 1
        elif predicted == 1 and y == 0:
            fp += 1
        elif predicted == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    sensitivity = tp / (tp + fn) if tp + fn else float("nan")
    specificity = tn / (tn + fp) if tn + fp else float("nan")
    return ClassificationReport(cutoff, tp, fp, tn, fn, sensitivity, specificity)


def threshold_x(fit: LogisticFit, p: float = 0.5) -> float:
    """The predictor value where the model crosses probability ``p``."""
    if fit.b == 0:
        raise ValueError("no threshold: coefficient b is zero")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return (math.log(p / (1.0 - p)) - fit.a) / fit.b
