"""The exact simplex behind the LP method, against independent oracles."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unclab
from unclab.constants import _lp_max

SRC = os.path.dirname(os.path.dirname(unclab.__file__))


def dot(form, x):
    return sum((c * x[j] for j, c in form.items()), F(0))


def solve_square(forms, rhs, nvars):
    """Unique solution of form_k . x = rhs_k by Gaussian elimination, else None."""
    m = [[F(f.get(j, 0)) for j in range(nvars)] + [F(b)] for f, b in zip(forms, rhs)]
    for c in range(nvars):
        p = next((r for r in range(c, nvars) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(nvars):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [m[r][-1] / m[r][r] for r in range(nvars)]


def vertex_max(objective, rows, nvars):
    """Max of the objective over the feasible vertices, None if there is none."""
    best = None
    for pick in itertools.combinations(rows, nvars):
        x = solve_square([f for f, _ in pick], [b for _, b in pick], nvars)
        if x is None or any(dot(f, x) > b for f, b in rows):
            continue
        if best is None or dot(objective, x) > best:
            best = dot(objective, x)
    return best


coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def bounded_lp(draw):
    nvars = draw(st.integers(2, 3))
    form = st.dictionaries(st.integers(0, nvars - 1), coef, min_size=1)
    rows = []
    for j in range(nvars):
        bound = draw(st.integers(1, 3))
        rows += [({j: F(1)}, F(bound)), ({j: F(-1)}, F(bound))]
    rows += draw(st.lists(st.tuples(form, coef), max_size=4))
    return draw(form), rows, nvars


@settings(max_examples=300, deadline=None)
@given(bounded_lp())
def test_lp_max_equals_vertex_enumeration(lp):
    objective, rows, nvars = lp
    expect = vertex_max(objective, rows, nvars)
    res = _lp_max(objective, rows, nvars)
    if expect is None:
        assert res is None
        return
    value, x = res
    assert value == expect
    assert dot(objective, x) == value
    assert all(dot(f, x) <= b for f, b in rows)


def seeded_rows(rng, nvars):
    rows = []
    if rng.random() < 0.7:   # a box keeps it bounded; without one it may be unbounded
        for j in range(nvars):
            rows += [({j: F(1)}, F(rng.randint(1, 3))), ({j: F(-1)}, F(rng.randint(1, 3)))]
    for _ in range(rng.randint(1, 5)):
        form = {j: F(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(nvars)}
        form[rng.randrange(nvars)] = F(rng.choice((-2, -1, 1, 2)))
        rows.append((form, F(rng.randint(-4, 4), rng.randint(1, 2))))
    objective = {j: F(rng.randint(-3, 3)) for j in range(nvars)}
    return objective, rows


def test_lp_max_matches_sympy_lpmax():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import InfeasibleLPError, UnboundedLPError, lpmax

    syms = sympy.symbols("x0:3", real=True)

    def expr(form):
        return sum(sympy.Rational(c.numerator, c.denominator) * syms[j]
                   for j, c in form.items())

    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        nvars = rng.choice((2, 3))
        objective, rows = seeded_rows(rng, nvars)
        try:
            val, _ = lpmax(expr(objective),
                           [expr(f) <= sympy.Rational(b.numerator, b.denominator)
                            for f, b in rows])
            expect = F(int(val.p), int(val.q))
        except InfeasibleLPError:
            expect = "infeasible"
        except UnboundedLPError:
            expect = "unbounded"
        res = _lp_max(objective, rows, nvars)
        if isinstance(expect, str):
            assert res is None, (seed, expect)
        else:
            assert res is not None and res[0] == expect, seed
        outcomes.add(expect if isinstance(expect, str) else "optimal")
    assert outcomes == {"optimal", "infeasible", "unbounded"}


def test_lp_path_imports_no_sympy():
    code = ("import sys\n"
            "import unclab.cli\n"
            "from unclab.constants import ConstantQuery, compute_constant\n"
            "from unclab.norms import build_standard\n"
            "rep = compute_constant(build_standard('summing', 3),\n"
            "                       ConstantQuery('C_uncond'), method='fractional_lp')\n"
            "print(rep.value_lower, 'sympy' in sys.modules)\n")
    env = dict(os.environ)
    env.pop("UNCLAB_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False"]
