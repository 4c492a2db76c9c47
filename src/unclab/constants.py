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
s * L, and ratios compare by cross-multiplication. The fractional_lp
method, in lp.py, solves the mode exactly by one LP per cell, so
value_upper == value_lower. This module reaches lp and schreier through
their lazy module objects, so a job runs each only when its method or mode
reads it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import lp, schreier
from .caps import check_cap
from .errors import DomainError
from .norms import NormInstance, SparseVector, _scaled_functionals, _scaled_norm
from .rationals import _subsets
from .record import Record

MODES = ("K", "Kprime", "L", "Lprime", "A", "C_uncond",
         "quasi_greedy", "BOU", "Kstar", "schreier")
GRID_ONLY = ("quasi_greedy", "BOU")
DEFAULT_STEP = Fraction(1, 8)
# the modes that read each optional ConstantQuery field
QUERY_FIELDS = {"delta": ("K", "Kprime", "L", "Lprime", "A", "Kstar"),
                "D": ("BOU",), "d": ("BOU",), "order": ("schreier",)}


class ConstantQuery(Record):
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
        if self.mode == "schreier" and (self.order is None or self.order < 1):
            raise DomainError("mode schreier needs an order >= 1")


class ConstantWitness(Record):
    a: SparseVector
    E: tuple[int, ...]
    numerator: Fraction
    denominator: Fraction
    threshold: Fraction | None = None          # quasi_greedy
    decomposition: schreier.SchreierDecomposition | None = None  # BOU
    point_index: int | None = None             # Kstar
    piece: tuple[tuple[int, Fraction], ...] | None = None  # lp numerator form


class ConstantReport(Record):
    mode: str
    method: str
    value_lower: Fraction
    value_upper: Fraction | None
    witness: ConstantWitness | None
    details: dict


def _grid_search(inst: NormInstance, query: ConstantQuery, step: Fraction) -> ConstantReport:
    """The lattice maximum on ints: the point a = t/s is its int vector t,
    and every norm, numerator and denominator below is an int at scale
    s * L. Fractions are built for the witness, quasi_greedy's thresholds
    and BOU's oscillations (a ratio of two entries of t) only; the strict >
    keeps the first maximiser in lattice order.

    The family is closed under negation and every mode reads |a_i|, E or
    ||P_E a||, so -t has the ratio and the feasible sets E of t. When t's
    first nonzero entry is positive, -t comes earlier in lattice order, so
    the first maximiser is never such a t and the search skips them all;
    lattice_points still counts the whole lattice.

    The cap counts the (t, E) pairs the search can visit: t enumerates at
    most 2^|supp t| sets E (Kstar one per point row instead), and over the
    half lattice these sum to ((4s+1)^dim - 1)/2, exactly so in the modes
    that take every E."""
    if step <= 0 or step > 1 or (1 / step).denominator != 1:
        raise DomainError(f"grid step must be 1/s for integer s >= 1, got {step}")
    s = int(1 / step)
    # past dim 10 000 the count exceeds any cap UNCLAB_CAPS can set (an int of
    # at most 4300 digits), so the power stops there and stays cheap
    check_cap("grid_pairs", ((4 * s + 1) ** min(inst.dim, 10_000) - 1) // 2,
              "(point, E) pairs")
    points = (2 * s + 1) ** inst.dim - 1
    L, funcs = _scaled_functionals(inst)
    mode = query.mode
    delta = query.delta or Fraction(0)   # read only by the modes that take one
    dnum, dden = delta.numerator, delta.denominator

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
        for E in _subsets(base):
            extras = {}
            if mode == "BOU":
                dec = (schreier.schreier_decompose(t, E, query.d)
                       if E and schreier.oscillation(t, E) <= query.D else None)
                if dec is None:
                    continue
                extras = {"decomposition": dec}
            elif mode == "schreier" and not schreier.schreier_member(query.order, E):
                continue
            num = norm_on(t, E)
            # delta * sum_E |a_i| > ||P_E a||, both sides times s * L * delta.den
            if mode == "A" and dnum * L * sum(abs(t[i - 1]) for i in E) > num * dden:
                continue
            yield E, num, extras

    best = None       # (numerator, denominator, t, E, extras) of the incumbent
    # in lattice order: k zeros, a negative entry, then any entries
    half = ((0,) * k + (x,) + rest for k in range(inst.dim) for x in range(-s, 0)
            for rest in itertools.product(range(-s, s + 1), repeat=inst.dim - k - 1))
    for t in half:
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
        a = SparseVector(tuple((i + 1, Fraction(x, s)) for i, x in enumerate(t) if x))
        wit = ConstantWitness(a=a, E=E, numerator=Fraction(num, s * L),
                              denominator=Fraction(den, s * L), **extras)
    return ConstantReport(
        mode=query.mode, method=f"grid(step={step})",
        value_lower=value, value_upper=None, witness=wit,
        details={"lattice_points": points},
    )


def compute_constant(inst: NormInstance, query: ConstantQuery, method: str,
                     step: Fraction | None = None) -> ConstantReport:
    """The mode's constant by the grid (step defaults to DEFAULT_STEP) or
    by the fractional LP, which takes no step."""
    if method == "grid":
        return _grid_search(inst, query, DEFAULT_STEP if step is None else step)
    if method == "fractional_lp":
        if step is not None:
            raise DomainError("--step applies to the grid method only")
        return lp._lp_search(inst, query)
    raise DomainError(f"unknown method {method!r}")
