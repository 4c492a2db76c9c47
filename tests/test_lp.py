"""The exact simplex behind the LP method, against independent oracles."""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_standard, child_env, class_sets
from unclab import serialize as ser
from unclab.caps import Caps
from unclab.constants import GRID_ONLY, MODES, ConstantQuery, compute_constant
from unclab.errors import SizeError
from unclab.lp import _lp_max
from unclab.norms import PROJECTION_CLASSES, NormInstance, SparseVector

ROOT = Path(__file__).resolve().parent.parent


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
            "from unclab.norms import Functional, NormInstance\n"
            "summing3 = NormInstance.build(3, [Functional.from_pairs(\n"
            "    (i, 1) for i in range(1, m + 1)) for m in range(1, 4)],\n"
            "    'initial_segments', True)\n"
            "rep = compute_constant(summing3, ConstantQuery('C_uncond'),\n"
            "                       method='fractional_lp')\n"
            "print(rep.value_lower, 'sympy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "False"]


def enumerated_cells(inst, mode) -> int:
    """The lp_cells bound by enumeration: per functional f, the distinct
    nonempty sets E cap supp f over the projection class, plus two sup
    forms per coordinate (at least one form), times the mode's choices of
    support S, nonempty E and signs; Kstar takes one form per point row."""
    coords = range(1, inst.dim + 1)
    subsets = [frozenset(E) for r in range(inst.dim + 1)
               for E in itertools.combinations(coords, r)]
    nonempty = subsets[1:]
    if mode == "Kstar":
        return len(inst.functionals) * len(nonempty)
    forms = sum(len({frozenset(E) & set(f.support) for E in class_sets(inst)} - {frozenset()})
                for f in inst.functionals) + 2 * inst.dim * inst.include_sup
    if mode in ("C_uncond", "schreier"):
        choices = len(nonempty)
    elif mode in ("L", "Lprime"):   # signs on all of S
        choices = sum(2 ** len(S) for S in subsets for E in nonempty if E <= S)
    else:                           # signs on E
        choices = sum(2 ** len(E) for E in nonempty)
    return max(forms, 1) * choices


def lp_query(mode, rng):
    if mode == "schreier":
        return ConstantQuery(mode, order=rng.randint(1, 2))
    if mode == "C_uncond":
        return ConstantQuery(mode)
    return ConstantQuery(mode, delta=rng.choice([F(1, 4), F(1, 2), F(1)]))


def counted_cells(monkeypatch, inst, query) -> str:
    """The count an lp_cells refusal names, read with the cap at 0."""
    monkeypatch.setenv("UNCLAB_CAPS", "lp_cells=0")
    with pytest.raises(SizeError) as err:
        compute_constant(inst, query, "fractional_lp")
    monkeypatch.delenv("UNCLAB_CAPS")
    assert str(err.value).endswith(" exceeds cap 0 (override with UNCLAB_CAPS)")
    return str(err.value).split(" exceeds")[0]


def test_lp_cells_bound_the_cells_before_any_piece(monkeypatch):
    # the bound equals its enumeration on seeded instances of dim 1-4 in
    # every class and LP mode, and is at least the cells solved at dim 1-2
    # (Kstar's are pinned by its golden)
    rng = random.Random(35)
    lp_modes = [m for m in MODES if m not in GRID_ONLY]
    for trial in range(48):
        dim = 1 + trial % 4
        funcs = [SparseVector.from_pairs(
            (i, F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)))
            for i in sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim))))
            for _ in range(rng.randint(1, 3))]
        inst = NormInstance.build(dim, funcs, PROJECTION_CLASSES[trial // 4 % 3], True)
        for mode in lp_modes:
            query = lp_query(mode, rng)
            want = enumerated_cells(inst, mode)
            assert counted_cells(monkeypatch, inst, query) == f"lp_cells: LP cells = {want}"
            # a Kstar cloud need not span, so its LP may refuse the instance
            if dim <= 2 and mode != "Kstar":
                cells = compute_constant(inst, query, "fractional_lp").details["cells"]
                assert cells <= want, (trial, mode)
    # every LP golden stays admitted and counts at least the cells it
    # solved; so do the kernel sweep's K on summing 4 and K on summing 5
    goldens = sorted((ROOT / "tests" / "golden").glob("*_lp.stdout"))
    assert len(goldens) == 5
    for path in goldens:
        rep = json.loads(path.read_text())
        inst = ser.load_norm_instance(ser.read_json_file(ROOT / rep["inputs"]["instance"]))
        count = enumerated_cells(inst, rep["inputs"]["mode"])
        assert rep["details"]["cells"] <= count <= Caps().lp_cells, path.name
    summing4 = ser.load_norm_instance(ser.read_json_file(ROOT / "tests/fixtures/norm_summing4.json"))
    assert enumerated_cells(summing4, "K") == 2240
    assert enumerated_cells(build_standard("summing", 5), "K") == 9680 <= Caps().lp_cells
