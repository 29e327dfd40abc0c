"""High-precision references for the closed-form smallness conditions and
the critical radius: each formula evaluated again at 50 digits with mpmath,
the second code path the float versions in melab are checked against."""


def condition_regularity_reference(
    e1_0: float, f_h1_l1: float, nu1: float, c_mu: float
) -> dict:
    import mpmath as mp

    with mp.workdps(50):
        c = mp.mpf(c_mu)
        n = mp.mpf(nu1)
        e = mp.mpf(e1_0)
        lhs = 6 * c**2 * e + 2 * n * mp.sqrt(2) * c * mp.sqrt(e) + 8 * c * n * mp.mpf(f_h1_l1)
        rhs = n**2
        return {"lhs": float(lhs), "rhs": float(rhs), "satisfied": bool(lhs < rhs)}


def condition_stability_reference(
    nu1: float, c_e: float, c_omega: float, c_small: float
) -> dict:
    import mpmath as mp

    with mp.workdps(50):
        ce = mp.mpf(c_e)
        th = 2 * mp.sqrt(mp.mpf(c_omega)) * max(mp.sqrt(2) * ce, 2 * mp.mpf(c_small) * ce**2)
        return {"threshold": float(th), "satisfied": bool(mp.mpf(nu1) > th)}


def r_critical_reference(
    f_l1_norm: float, alpha: float, nu1: float, period: float, consts: dict
) -> float:
    """Independent high-precision evaluation of the same closed formula."""
    import mpmath as mp

    with mp.workdps(50):
        f = mp.mpf(f_l1_norm)
        a = mp.mpf(alpha)
        nu = mp.mpf(nu1)
        num = mp.mpf(consts["C1"]) * f + mp.mpf(consts["C3"]) / nu * f**2
        den = (
            1
            - mp.sqrt(2 + a) * mp.exp(-mp.mpf(consts["eps"]) * mp.mpf(period) / (2 + a))
            - mp.mpf(consts["C2"]) / nu * (1 + f)
        )
        if den <= 0:
            return float("inf")
        return float(num / den)
