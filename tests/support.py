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
