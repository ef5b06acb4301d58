"""Output checks of the benchmark.

Every comparison is written ``not dev <= bound`` so that a NaN deviation
fails.  (``PropertyResult.record`` in the library compares ``dev > max``
and drops NaN; these checks do not rely on it.)
"""
from __future__ import annotations

import math

import numpy as np

import oracle


def exceeds(dev: float, bound: float) -> bool:
    """True when dev is above bound or is NaN."""
    return not dev <= bound


def reldiff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def maxdiff(a, b) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


# Bounds follow the conformance suite of the same property.
INTERVAL_REL = 1e-10
ADDITION_ABS = 1e-10
ROUNDTRIP_ABS = 1e-9
ISOMETRY_REL = 1e-9
ISOMETRY_MIN_DISTANCE = 1e-6
SUBGROUP_REL = 1e-10
# Boost matrices and spinor intertwining against oracle.py, relative to the
# largest entry (the oracle suite's 1e-10, which is absolute, scaled).
OWN_BOOST_REL = 1e-10


def _rel_maxdiff(got, want) -> float:
    """NaN when got holds a NaN."""
    return float(np.max(np.abs(np.asarray(got) - want))) / max(1.0, float(np.max(np.abs(want))))


def stream_failures(nu, r, rec, out) -> list:
    """Names of the invariants one stream record violates.

    nu is the axis as a 3-tuple, rec the record inputs (see
    workloads.stream_chunk) and out the tuple returned by
    workloads.stream_record.
    """
    g1, xp, s0, s1, v12, vadd, back, d0, d1, xa, xx = out
    n1, a1, x = rec[0], rec[1], rec[4]
    bad = []
    own = oracle.generalized_boost(nu, n1, a1, r) @ np.asarray(x)
    if exceeds(_rel_maxdiff((xp.t, xp.x, xp.y, xp.z), own), OWN_BOOST_REL):
        bad.append("boost-vs-own-exponential")
    if exceeds(reldiff(s1, s0), INTERVAL_REL):
        bad.append("finsler-interval-invariance")
    if exceeds(maxdiff((v12.vx, v12.vy, v12.vz), (vadd.vx, vadd.vy, vadd.vz)), ADDITION_ABS):
        bad.append("addition-matches-composition")
    if exceeds(abs(back.alpha - g1.alpha), ROUNDTRIP_ABS) or exceeds(
        maxdiff((back.n.x, back.n.y, back.n.z), (g1.n.x, g1.n.y, g1.n.z)), ROUNDTRIP_ABS
    ):
        bad.append("parameter-roundtrip")
    if not d0 <= ISOMETRY_MIN_DISTANCE and exceeds(reldiff(d0, d1), ISOMETRY_REL):
        bad.append("distance-isometry")

    def interval(t, a, b, c):
        return t * t - (a * a + b * b + c * c)

    def projection(t, a, b, c):
        return t - (nu[0] * a + nu[1] * b + nu[2] * c)

    xa4 = (xa.t, xa.x, xa.y, xa.z)
    if exceeds(reldiff(interval(*xa4), interval(*x)), SUBGROUP_REL) or exceeds(
        reldiff(projection(*xa4), projection(*x)), SUBGROUP_REL
    ):
        bad.append("abelian-invariants")
    gamma = rec[7]
    xx4 = (xx.t, xx.x, xx.y, xx.z)
    if exceeds(
        reldiff(projection(*xx4), math.exp((1.0 - r) * gamma) * projection(*x)), SUBGROUP_REL
    ) or exceeds(
        reldiff(interval(*xx4), math.exp(-2.0 * r * gamma) * interval(*x)), SUBGROUP_REL
    ):
        bad.append("axial-scaling-laws")
    return bad


# Known accuracy defect of the library's own suites, let through up to a
# cap: cylinder levels just above the suite's 1e-6 cut-off lose digits, so
# the relative tolerance 1e-9 fails on a few percent of 100-sample passes
# (deviations up to 1.4e-8 seen).  A deviation above the cap is a failure.
KNOWN_DEFECTS = {("velocity-space", "cylinder-invariance"): 1e-7}


def conformance_failures(reports, suites, samples, again=None) -> tuple:
    """(attempted, failed, findings) over the properties of one full pass.

    A property fails when its deviation is above its tolerance or NaN, or
    when `again` (the same suite re-run with the same seed, if given)
    reports another deviation; a missing or vacuous suite counts as one
    failed property.  A property listed in KNOWN_DEFECTS fails only above
    its cap; between tolerance and cap it goes to `findings` instead.
    """
    attempted = failed = 0
    findings = []
    by_name = {rep.suite: rep for rep in reports}
    for name in suites:
        rep = by_name.get(name)
        if rep is None or rep.samples != samples or not rep.properties:
            attempted += 1
            failed += 1
            continue
        redo = {} if again is None or again.suite != name else {
            p.name: p.max_deviation for p in again.properties}
        for prop in rep.properties:
            attempted += 1
            dev = prop.max_deviation
            bound = max(prop.tolerance, KNOWN_DEFECTS.get((name, prop.name), 0.0))
            if exceeds(dev, bound) or (redo and redo.get(prop.name) != dev):
                failed += 1
            elif exceeds(dev, prop.tolerance):
                findings.append((name, prop.name, dev, prop.tolerance))
    return attempted, failed, findings


OWN_SAMPLES = 8


def own_check_failures(fb, seed) -> tuple:
    """(attempted, failed) of OWN_SAMPLES seeded inputs on which the
    library's boost_matrix, generalized_boost_matrix and spinor_boost are
    checked against oracle.py.  These checks see a NaN that the suites'
    PropertyResult.record would drop."""
    rng = np.random.default_rng([seed, 5])
    failed = 0
    for _ in range(OWN_SAMPLES):
        nu, n = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
        alpha, r = float(rng.uniform(-3.0, 3.0)), float(rng.uniform(-0.9, 0.9))
        lam = oracle.generalized_boost(nu, n, alpha, 0.0)
        try:
            unu = fb.UnitVector3(*nu.tolist())
            g = fb.boost.BoostParams(fb.UnitVector3(*n.tolist()), alpha)
            devs = [
                _rel_maxdiff(fb.boost.boost_matrix(unu, g), lam),
                _rel_maxdiff(fb.boost.generalized_boost_matrix(fb.AnisotropySpec(unu, r), g),
                             oracle.generalized_boost(nu, n, alpha, r)),
            ]
            s = fb.spinor.spinor_boost(unu, g)
            s_inv = np.linalg.inv(s)
            for mu in range(4):
                want = sum(lam[mu, k] * oracle.GAMMA[k] for k in range(4))
                devs.append(_rel_maxdiff(s_inv @ oracle.GAMMA[mu] @ s, want))
            devs.append(abs(complex(np.linalg.det(s)) - 1.0))
        except (ArithmeticError, ValueError, np.linalg.LinAlgError):
            devs = [math.nan]
        failed += any(exceeds(d, OWN_BOOST_REL) for d in devs)
    return OWN_SAMPLES, failed


def cli_mismatch(got, expected) -> bool:
    """got and expected are (exit code, stdout bytes, output-file bytes or
    None); a command passes when it exits 0 and every byte matches."""
    return got[0] != 0 or got != expected
