"""The lockstep quadrature gives each integral the bits of a lone `log_quad`."""

import math

import numpy as np
import pytest

from sphere_equilibria import quadrature
from sphere_equilibria.errors import NumericalError, ParameterError
from sphere_equilibria.quadrature import (_group_log_integrals, log_quad,
                                         log_quad_many)

# (log integrand, a, b): smooth, sharply peaked, with an integrable log
# singularity, -inf everywhere, and two empty intervals
FAMILY = [
    (lambda x: -x * x, 0.0, 3.0),
    (lambda x: -4e4 * (x - 0.3) ** 2, 0.0, 1.0),
    (lambda x: 0.5 * np.log(np.abs(x - 0.37)), 0.0, 1.0),
    (lambda x: np.full_like(x, -np.inf), -1.0, 1.0),
    (lambda x: -x, 2.0, 1.0),
    (lambda x: -x, 1.0, 1.0),
]


def family_logf(xs, owner):
    out = np.empty_like(xs)
    for j, (f, _, _) in enumerate(FAMILY):
        sel = owner == j
        out[sel] = f(xs[sel])
    return out


def fields(res):
    return (res.log_value, res.n_panels, res.n_refinements, res.max_rel_error)


@pytest.mark.parametrize("first_panels", [4, 16, 96])
def test_lockstep_equals_separate_calls(first_panels, monkeypatch):
    monkeypatch.setattr(quadrature, "_FIRST_PANELS", first_panels)
    intervals = [(a, b) for _, a, b in FAMILY]
    together = log_quad_many(family_logf, intervals)
    for (f, a, b), res in zip(FAMILY, together):
        alone = log_quad(f, a, b)
        assert fields(res) == fields(alone)
    # order does not matter either
    rev = log_quad_many(lambda xs, owner: family_logf(xs, len(FAMILY) - 1 - owner),
                        intervals[::-1])
    assert [fields(r) for r in rev[::-1]] == [fields(r) for r in together]


def test_panel_sums_do_not_depend_on_other_groups():
    # OpenBLAS's matrix-vector kernel rounds the trailing (rows mod 4) rows
    # of a product differently from the others, so a group's panel sums keep
    # their bits only when each group is summed alone; groups of 1 to 11
    # panels exercise every remainder
    rng = np.random.default_rng(5)
    groups = []
    for j, size in enumerate([1, 2, 3, 4, 5, 6, 7, 9, 10, 11] * 3):
        edges = np.sort(rng.uniform(-3.0, 3.0, size + 1))
        groups.append((j, edges[:-1], edges[1:]))
    logf = lambda xs, owner: np.sin(3.0 * xs) * (1.0 + owner) - xs * xs
    together = _group_log_integrals(logf, groups)
    for g, got in zip(groups, together):
        assert np.array_equal(got, _group_log_integrals(logf, [g])[0])


def test_the_family_exercises_every_branch():
    calls = []

    def counted(f):
        def logf(xs):
            calls.append(len(xs))
            return f(xs)
        return logf

    for k, (f, a, b) in enumerate(FAMILY):
        calls.clear()
        res = log_quad(counted(f), a, b)
        if k in (1, 2):  # the first round, then at least two refinements
            assert len(calls) >= 3 and res.n_refinements > 0
        if k == 3:
            assert res.log_value == -np.inf and len(calls) == 1
        if k >= 4:
            assert (res.log_value, res.n_panels) == (-np.inf, 0) and not calls
    assert math.isclose(log_quad(FAMILY[0][0], 0.0, 3.0).value,
                        0.5 * math.sqrt(math.pi) * math.erf(3.0), rel_tol=1e-12)


def test_one_scan_per_round(monkeypatch):
    # the first panels are evaluated with the first round's halves
    monkeypatch.setattr(quadrature, "_FIRST_PANELS", 8)
    sizes = []

    def logf(xs, owner):
        sizes.append(len(xs))
        return -xs * xs

    log_quad_many(logf, [(0.0, 1.0), (0.0, 2.0)])
    assert sizes[0] == 2 * 3 * 8 * 16


def test_non_convergence_raises(monkeypatch):
    # a jump no bisection resolves to 1e-15 in 24 rounds
    monkeypatch.setattr(quadrature, "_FIRST_PANELS", 2)
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-30)

    def logf(xs):
        return np.where(xs < 1.0 / 3.0, 0.0, 30.0)

    with pytest.raises(NumericalError, match="did not converge"):
        log_quad_many(lambda xs, owner: logf(xs), [(0.0, 1.0), (0.0, 0.5)])


def test_out_of_rounds_raises(monkeypatch):
    # a jump resolved to 1e-11 in no panel count within 24 rounds: the panel
    # straddling it is still 1e-9 off, so the call raises instead of
    # returning a result that misses `_REL_TOL`
    monkeypatch.setattr(quadrature, "_FIRST_PANELS", 2)
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-11)

    def logf(xs):
        return np.where(xs < 1.0 / 3.0, 0.0, 30.0)

    with pytest.raises(NumericalError, match="unresolved after 24 rounds"):
        log_quad(logf, 0.0, 1.0)


def test_panel_bound_raises(monkeypatch):
    # an integrand that oscillates on a scale of 1e-9 fails every panel test,
    # so the panels double each round until one integral holds too many
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 256)
    monkeypatch.setattr(quadrature, "_FIRST_PANELS", 64)
    rounds = []

    def logf(xs, owner):
        rounds.append(len(xs))
        return 30.0 * np.sin(1e9 * xs)

    with pytest.raises(NumericalError, match="over the bound of 256"):
        log_quad_many(logf, [(0.0, 1.0)])
    # 64 + 128 panels, then 256, then the next round's 512 is refused
    assert rounds == [16 * 192, 16 * 256]


def test_infinite_bounds_rejected():
    with pytest.raises(ParameterError, match="finite"):
        log_quad_many(lambda xs, owner: -xs, [(0.0, 1.0), (0.0, np.inf)])
