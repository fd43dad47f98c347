"""The constant-field closed forms written case by case, kept in the tests
as the reference that ``riccati.analytic_sigma`` must equal: the
general-prior expression for sigma_bR(t) and sigma_zR(t), one return path
per zero or infinite prior, and the late-time law.  ``analytic_sigma``
does the general expression's operations in the same order, so for
finite positive priors at t > 0 the two agree bit for bit."""

import math


def analytic_sigma_b(p, prior, t):
    """Field tracking error sigma_bR(t) for constant fields.

        12 sb0 sm (sm + sz0 t)
        ----------------------------------------------------------
        12 sm^2 + g2 sb0 sz0 t^4 + 4 sm (3 sz0 t + g2 t^3 sb0)

    (g2 = gamma^2 J^2, sm = sigma_M) together with its limits when either
    prior is 0 or math.inf."""
    sz0, sb0 = prior
    sm = p.sigma_M
    g2 = (p.gamma * p.J) ** 2
    if sb0 == 0.0:
        return 0.0
    if math.isinf(sb0):
        if sz0 == 0.0:
            return 3.0 * sm / (g2 * t ** 3) if t > 0 else math.inf
        if math.isinf(sz0):
            return 12.0 * sm / (g2 * t ** 3) if t > 0 else math.inf
        if t == 0.0:
            return math.inf
        return 12.0 * sm * (sm + sz0 * t) / (g2 * t ** 3 * (4.0 * sm + sz0 * t))
    if sz0 == 0.0:
        return 3.0 * sb0 * sm / (3.0 * sm + g2 * sb0 * t ** 3)
    if math.isinf(sz0):
        return 12.0 * sb0 * sm / (12.0 * sm + g2 * t ** 3 * sb0)
    num = 12.0 * sb0 * sm * (sm + sz0 * t)
    den = 12.0 * sm ** 2 + g2 * sb0 * sz0 * t ** 4 + 4.0 * sm * (3.0 * sz0 * t + g2 * t ** 3 * sb0)
    return num / den


def analytic_sigma_z(p, prior, t):
    """Spin tracking error sigma_zR(t) for constant fields (general prior
    expression plus zero/infinite prior limits)."""
    sz0, sb0 = prior
    sm = p.sigma_M
    g2 = (p.gamma * p.J) ** 2
    if sb0 == 0.0:
        if sz0 == 0.0:
            return 0.0
        if math.isinf(sz0):
            return sm / t if t > 0 else math.inf
        return sm * sz0 / (sm + sz0 * t)
    if sz0 == 0.0:
        if math.isinf(sb0):
            return 3.0 * sm / t if t > 0 else 0.0
        return 3.0 * g2 * sb0 * sm * t ** 2 / (3.0 * sm + g2 * sb0 * t ** 3)
    if math.isinf(sz0):
        if math.isinf(sb0):
            return 4.0 * sm / t if t > 0 else math.inf
        if t == 0.0:
            return math.inf
        return 4.0 * sm * (3.0 * sm + g2 * t ** 3 * sb0) / (12.0 * sm * t + g2 * t ** 4 * sb0)
    if math.isinf(sb0):
        if t == 0.0:
            return sz0
        return 4.0 * sm * (3.0 * sm + sz0 * t) / (t * (4.0 * sm + sz0 * t))
    num = 4.0 * sm * (g2 * sb0 * sz0 * t ** 3 + 3.0 * sm * (sz0 + g2 * t ** 2 * sb0))
    den = 12.0 * sm ** 2 + g2 * sb0 * sz0 * t ** 4 + 4.0 * sm * (3.0 * sz0 * t + g2 * t ** 3 * sb0)
    return num / den


def transient_sigma_b(p, t, J):
    """Late-time constant-field tracking error 12 sigma_M / (gamma^2 J^2 t^3),
    the same scaling a least-squares line fit to the record achieves."""
    return 12.0 * p.sigma_M / ((p.gamma * J) ** 2 * t ** 3)
