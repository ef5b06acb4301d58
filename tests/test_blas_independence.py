"""Scalar results, spinor results, CLI output and the conformance suites'
seeded draws must not depend on the BLAS kernel numpy picks for the CPU.

OpenBLAS chooses its dot-product kernel at run time from the CPU type, and
kernels differ in the last bit on length-3 dot products.  The same seeded
script runs in two fresh interpreters, one forced onto an old kernel by
OPENBLAS_CORETYPE, and must print the same bytes.
"""
import platform

import pytest

from support import spawn

SCRIPT = r"""
import contextlib
import io

import numpy as np
from finslerboost import boost, checks, cli, core, spinor, subgroups, velocity_space as vs

rng = np.random.default_rng(20260401)
nu = core.UnitVector3.normalized(rng.normal(size=3))
spec = core.AnisotropySpec(nu, 0.37)
e1 = subgroups.perpendicular_to(nu)


def unit():
    return core.UnitVector3.normalized(rng.normal(size=3))


def vel():
    return core.Velocity3.from_array(np.tanh(rng.uniform(0, 3)) * unit().as_array())


def vec(a):
    return ",".join(repr(float(c)) for c in a)


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


out = []
for _ in range(200):
    g1 = boost.BoostParams(unit(), rng.uniform(-3, 3))
    g2 = boost.BoostParams(unit(), rng.uniform(-3, 3))
    xs = rng.uniform(-1, 1, size=3)
    x = core.FourVector(core.norm3(xs) + rng.uniform(0.1, 2), *xs.tolist())
    va, vb = vel(), vel()
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    v1 = boost.velocity_from_params(nu, g1)
    m = boost.generalized_boost_matrix(spec, g1)
    vab = subgroups.abelian_velocity(nu, subgroups.AbelianParams(e1, g2.alpha))
    out += [
        v1,
        boost.params_from_velocity(nu, va),
        boost.compose(nu, g1, g2),
        boost.add_velocities(nu, v1, va),
        m.tolist(),
        boost.apply_matrix(m, x),
        core.finsler_interval_sq(x, spec),
        boost.dilation_factor(spec, va),
        vs.lobachevsky_distance(va, vb),
        vs.induced_motion(nu, v1, va),
        vs.horosphere_level(nu, va),
        vs.cylinder_level(nu, va),
        subgroups.abelian_transform(nu, subgroups.AbelianParams(e1, g2.alpha), x),
        vab,
        subgroups.abelian_params_from_velocity(nu, vab),
        subgroups.axial_transform(spec, subgroups.AxialParams(g1.alpha), x),
        spinor.spinor_boost(nu, g1).tolist(),
        spinor.bispinor_matrix(spec, va).tolist(),
        spinor.bispinor_transform(spec, va, psi).tolist(),
        spinor.bilinear_current(psi).tolist(),
        spinor.finsler_bispinor_invariant(spec, psi),
    ]
# CLI output of the commands that do spinor algebra or a matrix product
for _ in range(5):
    psi = vec(np.column_stack((rng.normal(size=4), rng.normal(size=4))).reshape(8))
    r = repr(float(rng.uniform(-0.9, 0.9)))
    out += [
        stdout_of(["spinor", f"--nu={vec(unit().as_array())}", f"--r={r}",
                   f"--v={vec(vel().as_array())}", f"--psi={psi}"]),
        stdout_of(["invariants", f"--nu={vec(unit().as_array())}", f"--r={r}",
                   f"--v={vec(vel().as_array())}", f"--psi={psi}"]),
        stdout_of(["compose", f"--nu={vec(unit().as_array())}",
                   f"--n1={vec(unit().as_array())}", f"--alpha1={rng.uniform(-3, 3)!r}",
                   f"--v2={vec(vel().as_array())}"]),
    ]
# the conformance suites' seeded draws
draws = np.random.default_rng(5)
out += [core.UnitVector3(*row) for row in checks._draw_directions(draws, 20000).tolist()]
out += [core.FourVector(*row) for row in checks._draw_events(draws, 20000).tolist()]
out += [core.Velocity3(*row) for row in checks._draw_velocities(draws, 5000).tolist()]
out += checks._draw_dense_bispinors(draws, 5000).tolist()
# the near-band draws, their directions built per block as the suites build them
nu_rows = checks._draw_directions(draws, 5000)
alpha, s, c = checks._draw_band(draws, 5000)
n = np.stack(checks._band_directions(checks._directions(nu_rows), s, c), axis=1)
out += [boost.BoostParams(core.UnitVector3(*m), a) for m, a in zip(n.tolist(), alpha.tolist())]
for item in out:
    print(repr(item))
"""


def _run(coretype):
    proc = spawn("-c", SCRIPT, OPENBLAS_CORETYPE=coretype)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)
def test_scalar_results_independent_of_blas_kernel():
    default = _run(None)
    prescott = _run("Prescott")
    assert default.count("\n") == 200 * 21 + 5 * 3 + 2 * 20000 + 3 * 5000
    assert prescott == default
