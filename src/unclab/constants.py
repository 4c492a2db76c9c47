"""Projection-constant estimation over exact coefficient lattices and LPs.

Every mode is a supremum of ||numerator|| / ||a|| over a mode-specific
feasible set of pairs (a, E):

  K        sup|a_i| <= 1,  E inside the delta-threshold set of a
  Kprime   ||a|| <= 1,     E inside the delta-threshold set of a
  L        all support coefficients >= delta in size, sup <= 1, E free
  Lprime   same support condition, ||a|| <= 1, E free
  A        feasibility delta * sum_{i in E} |a_i| <= ||P_E a||, E free
  C_uncond no side condition, E free
  quasi_greedy  E is a full threshold set {i: |a_i| >= v}
  BOU      oscillation(a, E) <= D and E splits into blocks of osc <= d
  Kstar    point clouds: numerator is one point row on E, E inside the
           row's delta-large coordinates; denominator is the cloud sup
           (full-support evaluation, no projections)
  schreier E restricted to the order-n Schreier family

The grid method reports a certified lower bound: the exact maximum of the
ratio over the lattice {0, +-step, ..., +-1}^dim intersected with the mode's
constraints, witness attached. It is integer-scaled and exact: with step
1/s and the family over its common denominator L, a lattice point is its
int vector, every norm and every mode test is an int comparison at scale
s * L, and ratios compare by cross-multiplication. verify_witness stays in
Fractions as the independent check. The fractional_lp method solves each
(E, sign pattern, numerator piece) cell exactly as one LP: the
Charnes-Cooper substitution y = a / ||a||, t = 1 / ||a|| turns the ratio of
a linear numerator to the max-of-linear denominator into max num.y subject
to ||y|| <= 1 and the cell's rows homogenised in t, so value_upper ==
value_lower.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .caps import check_cap, load_caps
from .errors import DomainError
from .norms import (NormInstance, SparseVector, _projections, _scaled_functionals,
                    _scaled_norm, eval_norm)
from .rationals import _subsets
from .schreier import SchreierDecomposition, oscillation, schreier_decompose, schreier_member

MODES = ("K", "Kprime", "L", "Lprime", "A", "C_uncond",
         "quasi_greedy", "BOU", "Kstar", "schreier")
GRID_ONLY = ("quasi_greedy", "BOU")
DEFAULT_STEP = Fraction(1, 8)
# the modes that read each optional ConstantQuery field
QUERY_FIELDS = {"delta": ("K", "Kprime", "L", "Lprime", "A", "Kstar"),
                "D": ("BOU",), "d": ("BOU",), "order": ("schreier",)}


@dataclass(frozen=True)
class ConstantQuery:
    mode: str
    delta: Fraction | None = None
    D: Fraction | None = None
    d: Fraction | None = None
    order: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"unknown mode {self.mode!r}")
        for name, modes in QUERY_FIELDS.items():
            if getattr(self, name) is not None and self.mode not in modes:
                raise DomainError(f"mode {self.mode} does not take {name}")
        if self.mode in QUERY_FIELDS["delta"]:
            if self.delta is None:
                raise DomainError(f"mode {self.mode} needs delta")
            if not (0 < self.delta <= 1):
                raise DomainError(f"delta must be in (0, 1], got {self.delta}")
        if self.mode == "BOU":
            if self.D is None or self.d is None:
                raise DomainError("mode BOU needs D and d")
            if self.D < 1 or self.d < 1:
                raise DomainError("BOU needs D >= 1 and d >= 1")
        if self.mode == "schreier":
            if self.order not in (1, 2):
                raise DomainError("mode schreier needs order 1 or 2")


@dataclass
class ConstantWitness:
    a: SparseVector
    E: tuple[int, ...]
    numerator: Fraction
    denominator: Fraction
    threshold: Fraction | None = None          # quasi_greedy
    decomposition: SchreierDecomposition | None = None  # BOU
    point_index: int | None = None             # Kstar
    piece: tuple[tuple[int, Fraction], ...] | None = None  # lp numerator form


@dataclass
class ConstantReport:
    mode: str
    method: str
    value_lower: Fraction
    value_upper: Fraction | None
    witness: ConstantWitness | None
    details: dict = field(default_factory=dict)


def _kstar_denominator(inst: NormInstance, a: SparseVector) -> Fraction:
    return max((f.apply(a) for f in inst.functionals), default=Fraction(0))


def _grid_search(inst: NormInstance, query: ConstantQuery, step: Fraction) -> ConstantReport:
    """The lattice maximum on ints: the point a = t/s is its int vector t,
    and every norm, numerator and denominator below is an int at scale
    s * L. Fractions are built for the witness, BOU's oscillation tests and
    quasi_greedy's thresholds only; the strict > keeps the first maximiser
    in lattice order."""
    caps = load_caps()
    check_cap(inst.dim, caps.grid_dim, "grid dim")
    if step <= 0 or step > 1 or (1 / step).denominator != 1:
        raise DomainError(f"grid step must be 1/s for integer s >= 1, got {step}")
    s = int(1 / step)
    check_cap((2 * s + 1) ** inst.dim - 1, caps.grid_points, "grid_points: lattice points")
    L, funcs = _scaled_functionals(inst)
    mode = query.mode
    delta = query.delta or Fraction(0)   # read only by the modes that take one
    dnum, dden = delta.numerator, delta.denominator

    def point(t) -> SparseVector:
        return SparseVector(tuple((i + 1, Fraction(x, s)) for i, x in enumerate(t) if x))

    def norm_on(t, E) -> int:
        x = [0] * inst.dim
        for i in E:
            x[i - 1] = t[i - 1]
        return _scaled_norm(inst, L, funcs, x)

    def pairs(t):
        """Yield the mode's feasible (E, numerator, extras) at t."""
        if mode == "Kstar":
            for p, f in enumerate(funcs):
                # all subsets of the row's delta-large set are allowed and the
                # numerator is linear in E, so the best E is the positive part;
                # keep it single-shot
                terms = [(i + 1, c * t[i]) for i, c in f
                         if abs(c) * dden >= dnum * L and c * t[i] > 0]
                yield tuple(i for i, _ in terms), sum(v for _, v in terms), {"point_index": p}
            return
        if mode == "quasi_greedy":
            for v in sorted({abs(x) for x in t if x}, reverse=True):
                E = tuple(i + 1 for i, x in enumerate(t) if abs(x) >= v)
                yield E, norm_on(t, E), {"threshold": Fraction(v, s)}
            return
        # |t_i / s| >= delta  <=>  |t_i| * delta.den >= delta.num * s
        if mode in ("K", "Kprime"):
            base = tuple(i + 1 for i, x in enumerate(t) if abs(x) * dden >= dnum * s)
        elif mode in ("L", "Lprime") and any(x and abs(x) * dden < dnum * s for x in t):
            return
        else:
            base = tuple(i + 1 for i, x in enumerate(t) if x)
        a = point(t) if mode == "BOU" else None
        for E in _subsets(base):
            extras = {}
            if mode == "BOU":
                dec = (schreier_decompose(a, E, query.d)
                       if E and oscillation(a, E) <= query.D else None)
                if dec is None:
                    continue
                extras = {"decomposition": dec}
            elif mode == "schreier" and not schreier_member(query.order, E):
                continue
            num = norm_on(t, E)
            # delta * sum_E |a_i| > ||P_E a||, both sides times s * L * delta.den
            if mode == "A" and dnum * L * sum(abs(t[i - 1]) for i in E) > num * dden:
                continue
            yield E, num, extras

    best = None       # (numerator, denominator, t, E, extras) of the incumbent
    points = 0
    for t in itertools.product(range(-s, s + 1), repeat=inst.dim):
        if not any(t):
            continue
        points += 1
        # lattice points satisfy sup <= 1 by construction (K and L need it)
        if mode == "Kstar":
            den = max((sum(c * t[i] for i, c in f) for f in funcs), default=0)
        else:
            den = _scaled_norm(inst, L, funcs, t)
        if den == 0:
            continue
        if mode in ("Kprime", "Lprime") and den > s * L:
            continue
        for E, num, extras in pairs(t):
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, t, E, extras)
    value, wit = Fraction(0), None
    if best is not None:
        num, den, t, E, extras = best
        value = Fraction(num, den)
        wit = ConstantWitness(a=point(t), E=E, numerator=Fraction(num, s * L),
                              denominator=Fraction(den, s * L), **extras)
    return ConstantReport(
        mode=query.mode, method=f"grid(step={step})",
        value_lower=value, value_upper=None, witness=wit,
        details={"lattice_points": points},
    )


# ---------------------------------------------------------------- LP method

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
            if not E or (mode == "schreier" and not schreier_member(query.order, E)):
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
    caps = load_caps()
    check_cap(inst.dim, caps.lp_dim, "lp dim")
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


def compute_constant(inst: NormInstance, query: ConstantQuery,
                     method: str = "grid", step: Fraction | None = None) -> ConstantReport:
    """The mode's constant by the grid (step defaults to DEFAULT_STEP) or
    by the fractional LP, which takes no step."""
    if method == "grid":
        return _grid_search(inst, query, DEFAULT_STEP if step is None else step)
    if method == "fractional_lp":
        if step is not None:
            raise DomainError("--step applies to the grid method only")
        return _lp_search(inst, query)
    raise DomainError(f"unknown method {method!r}")


def verify_witness(inst: NormInstance, query: ConstantQuery, wit: ConstantWitness) -> Fraction:
    """Recompute the witness ratio from scratch, checking mode feasibility."""
    a, E = wit.a, wit.E
    av = a.as_dict()
    mode = query.mode
    if mode in ("K", "L") and a.sup_norm() > 1:
        raise DomainError("witness violates sup bound")
    if mode in ("K", "Kprime"):
        if any(abs(av.get(i, 0)) < query.delta for i in E):
            raise DomainError("witness E leaves the threshold set")
    if mode in ("L", "Lprime"):
        if any(abs(v) < query.delta for _, v in a.entries):
            raise DomainError("witness support dips under delta")
    if mode == "quasi_greedy":
        v = wit.threshold
        expect = tuple(i for i in range(1, inst.dim + 1) if abs(av.get(i, 0)) >= v)
        if tuple(sorted(E)) != expect:
            raise DomainError("witness E is not the threshold set")
    if mode == "BOU":
        if oscillation(a, E) > query.D:
            raise DomainError("witness oscillation exceeds D")
        if schreier_decompose(a, E, query.d) is None:
            raise DomainError("witness has no admissible block split")
    if mode == "schreier" and not schreier_member(query.order, E):
        raise DomainError("witness E is not Schreier-admissible")
    if mode == "Kstar":
        f = inst.functionals[wit.point_index]
        fv = f.as_dict()
        if any(abs(fv.get(i, 0)) < query.delta for i in E):
            raise DomainError("witness E leaves the point's delta-large set")
        num = f.apply(a.restrict(E))
        den = _kstar_denominator(inst, a)
    else:
        num = eval_norm(inst, a.restrict(E))
        den = eval_norm(inst, a)
    if mode == "A":
        total = sum((abs(av.get(i, 0)) for i in E), Fraction(0))
        if query.delta * total > num:
            raise DomainError("witness fails the A-feasibility inequality")
    if mode in ("Kprime", "Lprime") and den > 1:
        raise DomainError("witness norm exceeds 1")
    if den == 0:
        raise DomainError("witness denominator vanishes")
    return num / den
