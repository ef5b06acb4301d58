"""What the test modules share: constants, seeded draws, the 50-digit
references and a fresh-interpreter spawn.

pytest collects nothing here.  `tests/` has no `__init__.py`, so under
pytest's default import mode a test module imports this one by name.

The randomized properties of the paper's claims (group law, interval,
bispinor and velocity-space actions, subgroup invariants) are checked by
the conformance suites in `finslerboost.checks`, each with its own
formula, tolerance and draws; tier-1 runs every suite at 1000 samples in
`test_acceptance.py`.  The unit tests check hand values, error paths,
the float edges and what the suites skip.
"""
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np

import finslerboost
from finslerboost import UnitVector3, Velocity3

NU_Z = UnitVector3(0.0, 0.0, 1.0)
E_X = UnitVector3(1.0, 0.0, 0.0)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def rand_unit(rng):
    """A direction uniform on the sphere: three normal draws."""
    return UnitVector3.normalized(rng.normal(size=3))


def rand_speed(rng, lo=0, hi=3):
    """A velocity at rapidity U(lo, hi), then a direction by rand_unit."""
    return Velocity3.from_array(
        math.tanh(rng.uniform(lo, hi)) * rand_unit(rng).as_array()
    )


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which JSON does not have."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


# 50-digit references.  Float inputs are taken as exact; the caller sets
# the working precision with mpmath.workdps.

def _mp_dot(a, b):
    return mpmath.fsum(mpmath.mpf(p) * q for p, q in zip(a, b))


def _mp_unit(u):
    """u / |u|: a float unit vector is unit only to about 1e-16."""
    norm = mpmath.sqrt(_mp_dot(u, u))
    return [mpmath.mpf(c) / norm for c in u]


def _mp_params(nu, v):
    """(n, alpha) of the boost reaching velocity v, for a unit nu, written
    without cancellation: 1 - sqrt(1 - v.v) is v.v / (1 + sqrt(1 - v.v))."""
    vsq, vnu = _mp_dot(v, v), _mp_dot(v, nu)
    w = 1 - vnu
    u = vsq / (1 + mpmath.sqrt(1 - vsq))
    t = (vnu - u) / w
    alpha = mpmath.sqrt(2 * u / w) * (mpmath.log1p(t) / t if t != 0 else 1)
    p, q = mpmath.sqrt(2 * w * u), mpmath.sqrt(u / (2 * w))
    return [mpmath.mpf(c) / p - q * m for c, m in zip(v, nu)], alpha


def _mp_rows(nu, n, alpha):
    """Rows of Lambda(nu; n, alpha), nu and n normalized first.  Every
    50-digit boost reference of the tests reads these rows."""
    return _mp_unit_rows(_mp_unit(nu), _mp_unit(n), alpha)


def _mp_unit_rows(nu, n, alpha):
    """_mp_rows for nu and n already unit at the working precision:
    with a = (nu.n) alpha, km = alpha (1 - e^-a) / a, kp = alpha (1 - e^a) / a,
    c0 = -km kp / 2 and row0 = -(km n + c0 nu), the time row is
    [1 + c0, row0] and spatial row i is
    [kp n_i + c0 nu_i, delta_ij - kp n_i nu_j + nu_i row0_j]."""
    a = _mp_dot(nu, n) * alpha
    e = mpmath.expm1(a)  # 1 - e^-a is e / (1 + e)
    km = alpha * (e / (a * (1 + e)) if a else 1)
    kp = -alpha * (e / a if a else 1)
    c0 = -km * kp / 2
    row0 = [-(km * p + c0 * q) for p, q in zip(n, nu)]
    return [[1 + c0, *row0]] + [
        [kp * n[i] + c0 * nu[i]] + [int(i == j) - kp * n[i] * nu[j] + nu[i] * row0[j]
                                    for j in range(3)]
        for i in range(3)
    ]


def _mp_frame_rows(nu, v, sign):
    """_mp_rows of the boost reaching velocity v (sign 1) or of its inverse
    (sign -1)."""
    nu = _mp_unit(nu)
    n, alpha = _mp_params(nu, v)
    return _mp_unit_rows(nu, n, sign * alpha)


def _mp_frame_velocity(rows):
    """The frame velocity of the boost, -row0 / row00: velocity_from_params."""
    return [-c / rows[0][0] for c in rows[0][1:]]


def _mp_rows_image(rows, x):
    """Lambda (1, x) as a velocity."""
    t, *xs = (row[0] + _mp_dot(x, row[1:]) for row in rows)
    return [c / t for c in xs]


def _mp_product_params(nu, g1, g2):
    """(n, alpha) of the element whose matrix is L(g2) L(g1): the velocity
    of the product's rows, mapped back to parameters."""
    l1, l2 = (mpmath.matrix(_mp_rows(nu, g.n.to_json(), mpmath.mpf(g.alpha)))
              for g in (g1, g2))
    m = (l2 * l1).tolist()
    return _mp_params(_mp_unit(nu), _mp_frame_velocity(m))


def spawn(*args, **env):
    """`python *args` in a fresh interpreter that imports finslerboost from
    the same source tree as this process.  env is set on top of os.environ,
    where None unsets a variable; stdout and stderr are captured as bytes."""
    environ = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(finslerboost.__file__)))
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    for key, value in env.items():
        if value is None:
            environ.pop(key, None)
        else:
            environ[key] = value
    return subprocess.run([sys.executable, *args], env=environ, capture_output=True, timeout=120)
