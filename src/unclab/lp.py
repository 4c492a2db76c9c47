"""The fractional_lp method of compute_constant: one exact LP per cell.

A cell fixes E, a sign pattern and one linear piece of the numerator
||P_E a||. The Charnes-Cooper substitution y = a / ||a||, t = 1 / ||a||
turns the ratio of that linear numerator to the max-of-linear denominator
into max num.y subject to ||y|| <= 1 and the cell's rows homogenised in t;
Kprime and Lprime bound ||a|| <= 1 and need no substitution. Each LP is
solved by an exact two-phase tableau simplex in Fractions, so the cell
maximum over all cells is the mode's constant, with value_upper ==
value_lower.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import schreier
from .caps import check_cap
from .constants import GRID_ONLY, ConstantQuery, ConstantReport, ConstantWitness
from .errors import DomainError
from .norms import NormInstance, SparseVector, _projections, eval_norm
from .rationals import _subsets


def _kstar_denominator(inst: NormInstance, a: SparseVector) -> Fraction:
    return max((f.apply(a) for f in inst.functionals), default=Fraction(0))


def _linear_pieces(inst: NormInstance):
    """Linear forms whose max is the instance norm (negations included),
    possibly repeated or empty; `_dedupe_forms` keeps the first nonempty
    one of each."""
    for f in inst.functionals:
        form = f.as_dict()
        if inst.projection_class == "all_subsets":
            projections = _subsets(f.support)
        else:
            projections = _projections(inst)
        for E in projections:
            yield _restrict_form(form, E)
    if inst.include_sup:
        for i in range(1, inst.dim + 1):
            yield {i: Fraction(1)}
            yield {i: Fraction(-1)}


def _restrict_form(form: dict[int, Fraction], E) -> dict[int, Fraction]:
    keep = set(E)
    return {i: c for i, c in form.items() if i in keep}


def _dedupe_forms(forms) -> list[dict[int, Fraction]]:
    out: dict[tuple, dict[int, Fraction]] = {}
    for form in forms:
        key = tuple(sorted(form.items()))
        if key and key not in out:
            out[key] = form
    return list(out.values())


def _dot(form: dict[int, Fraction], x) -> Fraction:
    return sum((c * x[i] for i, c in form.items()), Fraction(0))


def _pivot(tab, basis, r: int, j: int) -> None:
    p = tab[r][j]
    pr = tab[r] = [v / p for v in tab[r]]
    nz = [(k, v) for k, v in enumerate(pr) if v]
    for row in tab:
        f = row[j]
        if f and row is not pr:
            for k, v in nz:
                row[k] -= f * v
    basis[r] = j


def _simplex(tab, basis, ncols: int) -> bool:
    """Maximise the cost row tab[-1] by Bland's rule (smallest entering
    column below ncols, then smallest leaving basic column among minimum
    ratios), which cannot cycle. False if unbounded."""
    while True:
        j = next((j for j in range(ncols) if tab[-1][j] > 0), None)
        if j is None:
            return True
        rows = [r for r in range(len(basis)) if tab[r][j] > 0]
        if not rows:
            return False
        r = min(rows, key=lambda r: (tab[r][-1] / tab[r][j], basis[r]))
        _pivot(tab, basis, r, j)


def _lp_max(objective: dict[int, Fraction], rows, nvars: int):
    """max objective.x subject to form.x <= rhs for (form, rhs) in rows, over
    free x in Q^nvars; forms map a variable index to its coefficient.

    Exact two-phase tableau simplex. Columns are x+ and x- (x = x+ - x-), one
    slack per row, then one artificial per row with rhs < 0; the last row of
    the tableau is the objective's reduced costs, value = -tab[-1][-1].
    Returns (value, x) with x a list of nvars Fractions, or None when the LP
    is infeasible or unbounded.
    """
    n, m = 2 * nvars, len(rows)
    width = n + m + sum(rhs < 0 for _, rhs in rows)
    tab, basis = [], []
    phase1 = [Fraction(0)] * (width + 1)   # max -sum(artificials)
    for r, (form, rhs) in enumerate(rows + [(objective, 0)]):
        row = [Fraction(0)] * (width + 1)
        for j, c in form.items():
            row[j] += c
            row[nvars + j] -= c
        if r < m:
            row[n + r], row[-1] = Fraction(1), Fraction(rhs)
            basis.append(n + r)
        if rhs < 0:   # flip to rhs > 0 and start from an artificial column
            row = [-v for v in row]
            phase1 = [u + v for u, v in zip(phase1, row)]
            basis[r] = n + m + sum(b >= n + m for b in basis)
            row[basis[r]] = Fraction(1)
        tab.append(row)
    tab.append(phase1)
    _simplex(tab, basis, n + m)
    if tab.pop()[-1] > 0:
        return None
    for r, b in enumerate(basis):
        if b >= n + m:
            # an artificial left basic sits at 0: swap in any real column of
            # its row; a row with none is redundant and stays inert
            j = next((j for j in range(n + m) if tab[r][j]), None)
            if j is not None:
                _pivot(tab, basis, r, j)
    if not _simplex(tab, basis, n + m):
        return None
    x = [Fraction(0)] * (width + 1)
    for r, b in enumerate(basis):
        x[b] = tab[r][-1]
    return -tab[-1][-1], [x[j] - x[nvars + j] for j in range(nvars)]


def _lp_cells(inst: NormInstance, query: ConstantQuery, pieces):
    """Yield (E, numerator forms, rows, point index), one LP cell per
    numerator form. The rows (form, rhs), meaning form . a <= rhs over
    a_1..a_dim (variable 0 is left to `_lp_search`), are the mode's whole
    feasible set apart from the box or the norm bound: zeros off the
    support S (L, Lprime), one sign row per signed coordinate with
    |a_i| >= delta (>= 0 in A), and the A-feasibility row."""
    mode, delta = query.mode, query.delta
    universe = tuple(range(1, inst.dim + 1))
    if mode == "Kstar":
        for t, f in enumerate(inst.functionals):
            thr = tuple(i for i, c in f.entries if abs(c) >= delta)
            for E in _subsets(thr):
                num = _restrict_form(f.as_dict(), E)
                if num:
                    yield E, [num], [], t
        return
    supports = _subsets(universe) if mode in ("L", "Lprime") else [universe]
    for S in supports:
        zeros = [row for i in universe if i not in S
                 for row in (({i: 1}, 0), ({i: -1}, 0))]
        for E in _subsets(S):
            if not E or (mode == "schreier" and not schreier.schreier_member(query.order, E)):
                continue
            nums = _dedupe_forms(_restrict_form(p, E) for p in pieces)
            if mode in ("C_uncond", "schreier"):
                yield E, nums, [], None
                continue
            signed = S if mode in ("L", "Lprime") else E
            lo = Fraction(0) if mode == "A" else delta
            for signs in itertools.product((1, -1), repeat=len(signed)):
                rows = zeros + [({i: -s}, -lo) for i, s in zip(signed, signs)]
                if mode != "A":
                    yield E, nums, rows, None
                    continue
                for num in nums:
                    # delta * sum_E |a_i| <= num(P_E a), with |a_i| fixed by
                    # the signs (num is restricted to E)
                    feasible = {i: delta * s - num.get(i, 0) for i, s in zip(E, signs)}
                    yield E, [num], rows + [(feasible, 0)], None


def _lp_search(inst: NormInstance, query: ConstantQuery) -> ConstantReport:
    check_cap("lp_dim", inst.dim, "instance dim")
    if query.mode in GRID_ONLY:
        raise DomainError(f"mode {query.mode} supports the grid method only")
    nvars = inst.dim + 1
    pieces = _dedupe_forms(_linear_pieces(inst))
    den_forms = pieces
    if query.mode == "Kstar":
        den_forms = _dedupe_forms(f.as_dict() for f in inst.functionals)
    value_form = query.mode in ("Kprime", "Lprime")
    if value_form:
        # ||a|| <= 1 turns the ratio into a plain LP
        bound = [(f, 1) for f in den_forms]
    else:
        bound = [row for i in range(1, nvars) for row in (({i: 1}, 1), ({i: -1}, 1))]
    best: Fraction | None = None
    best_wit: ConstantWitness | None = None
    cells = 0
    for E, nums, rows, point_index in _lp_cells(inst, query, pieces):
        rows = rows + bound
        if not value_form:
            # Charnes-Cooper: y = a * t with t = 1 / ||a|| (variable 0) turns
            # the ratio into max num.y over the rows homogenised in t and
            # ||y|| <= 1; (y, t) = 0 is feasible, so None means unbounded
            rows = ([({**f, 0: -rhs}, 0) for f, rhs in rows]
                    + [(f, 1) for f in den_forms] + [({0: -1}, 0)])
        for num_form in nums:
            cells += 1
            res = _lp_max(num_form, rows, nvars)
            if res is None and not value_form:
                raise DomainError("denominator degenerates on the feasible set; "
                                  "instance norm is not definite here")
            if res is None or res[0] <= 0:
                continue
            ratio, point = res
            if not value_form:   # t > 0 here: the box rows pin y = 0 at t = 0
                point = [v / point[0] for v in point]
            if best is None or ratio > best:
                a_vec = SparseVector.from_pairs(
                    (i, point[i]) for i in range(1, nvars) if point[i] != 0)
                den = (_kstar_denominator(inst, a_vec) if query.mode == "Kstar"
                       else eval_norm(inst, a_vec))
                best = ratio
                best_wit = ConstantWitness(
                    a=a_vec, E=E,
                    numerator=_dot(num_form, point),
                    denominator=den,
                    point_index=point_index,
                    piece=tuple(sorted(num_form.items())),
                )
    if best is None:
        best = Fraction(0)
    return ConstantReport(
        mode=query.mode, method="fractional_lp",
        value_lower=best, value_upper=best, witness=best_wit,
        details={"cells": cells},
    )
