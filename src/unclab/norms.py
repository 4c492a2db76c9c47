"""Finite-dimensional norms given by a functional family and a projection class.

An instance on coordinates 1..dim evaluates

    ||v|| = max( sup_i |v_i|  [when include_sup],
                 max_{f in family} max_{E in class} f(P_E v) )

where the family is closed under negation (closure taken at build time) and
the projection class is one of initial_segments, intervals, all_subsets.
Everything is exact rational arithmetic. Evaluation is integer-scaled: the
family is put over one common denominator L and the vector over its own
denominator s, so the one kernel `_functional_best` and the sup term run on
plain ints at scale s * L and a single Fraction is built for the result.
The grid search in constants.py calls the same kernel on its lattice points.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InternalError
from .rationals import _common_denominator
from .record import Record

PROJECTION_CLASSES = ("initial_segments", "intervals", "all_subsets")


def _canon_entries(entries) -> tuple[tuple[int, Fraction], ...]:
    seen: dict[int, Fraction] = {}
    for i, val in entries:
        if i < 1:
            raise DomainError(f"coordinate {i} must be >= 1")
        if i in seen:
            raise DomainError(f"duplicate coordinate {i}")
        v = Fraction(val)
        if v != 0:
            seen[i] = v
    return tuple(sorted(seen.items()))


class SparseVector(Record):
    """Sorted nonzero (coordinate, value) pairs; a functional is one too."""
    entries: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_pairs(pairs) -> "SparseVector":
        return SparseVector(_canon_entries(pairs))

    @staticmethod
    def zero() -> "SparseVector":
        return SparseVector(())

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.entries)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "SparseVector":
        c = Fraction(c)
        if c == 0:
            return SparseVector.zero()
        return SparseVector(tuple((i, c * v) for i, v in self.entries))

    def negate(self) -> "SparseVector":
        return self.scale(-1)

    def add(self, other: "SparseVector") -> "SparseVector":
        acc = self.as_dict()
        for i, v in other.entries:
            acc[i] = acc.get(i, Fraction(0)) + v
        return SparseVector(tuple(sorted((i, v) for i, v in acc.items() if v != 0)))

    def apply(self, v: "SparseVector") -> Fraction:
        """This vector as a functional acting on v."""
        vals = v.as_dict()
        return sum((c * vals[i] for i, c in self.entries if i in vals), Fraction(0))


Functional = SparseVector


class NormInstance(Record):
    dim: int
    functionals: tuple[Functional, ...]
    projection_class: str = "initial_segments"
    include_sup: bool = True

    @staticmethod
    def build(dim: int, functionals, projection_class: str = "initial_segments",
              include_sup: bool = True) -> "NormInstance":
        if dim < 1:
            raise DomainError(f"dim must be >= 1, got {dim}")
        if projection_class not in PROJECTION_CLASSES:
            raise DomainError(f"unknown projection class {projection_class!r}")
        fams = list(functionals)
        for f in fams:
            for i, _ in f.entries:
                if i > dim:
                    raise DomainError(f"functional touches coordinate {i} > dim {dim}")
        present = {f.entries for f in fams}
        closed = list(fams)
        for f in fams:
            neg = f.negate()
            if neg.entries not in present:
                closed.append(neg)
                present.add(neg.entries)
        return NormInstance(dim, tuple(closed), projection_class, include_sup)

    def _check_vector(self, v: SparseVector) -> None:
        for i, _ in v.entries:
            if i > self.dim:
                raise DomainError(f"vector touches coordinate {i} outside universe 1..{self.dim}")


def _scaled_functionals(inst: NormInstance) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """The family over one common denominator L: L, and per functional its
    (coordinate - 1, L * coefficient) pairs."""
    L, ints = _common_denominator([c for f in inst.functionals for _, c in f.entries])
    it = iter(ints)
    return L, [tuple((i - 1, next(it)) for i, _ in f.entries) for f in inst.functionals]


def _scaled_vector(v: SparseVector, dim: int) -> tuple[int, list[int]]:
    """v over its common denominator s: s, and the dense ints x with
    x[i - 1] = s * v_i."""
    s, ints = _common_denominator([val for _, val in v.entries])
    x = [0] * dim
    for (i, _), n in zip(v.entries, ints):
        x[i - 1] = n
    return s, x


def _functional_best(f: tuple[tuple[int, int], ...], x, projection_class: str) -> int:
    """max over E in the class of sum_{i in E} f_i x_i, empty E allowed.

    The one norm kernel: f is a scaled functional (index, int coefficient)
    in index order and x an int vector, so the result is an int at the
    product of their scales. Coordinates f does not touch add nothing to a
    run, so the scan visits f's own coordinates only.
    """
    if projection_class == "all_subsets":
        return sum(t for t in (c * x[i] for i, c in f) if t > 0)
    # initial segments keep low at 0; intervals take max over s <= t of
    # sum(terms[s..t]) as the best run minus the lowest run before it
    intervals = projection_class == "intervals"
    best = run = low = 0
    for i, c in f:
        run += c * x[i]
        if run - low > best:
            best = run - low
        if intervals and run < low:
            low = run
    return best


def _scaled_norm(inst: NormInstance, L: int, funcs, x) -> int:
    """||x / s|| * s * L for an int vector x at scale s and the scaled
    family (L, funcs) of inst."""
    best = L * max(map(abs, x), default=0) if inst.include_sup else 0
    for f in funcs:
        val = _functional_best(f, x, inst.projection_class)
        if val > best:
            best = val
    return best


def eval_norm(inst: NormInstance, v: SparseVector) -> Fraction:
    inst._check_vector(v)
    L, funcs = _scaled_functionals(inst)
    s, x = _scaled_vector(v, inst.dim)
    return Fraction(_scaled_norm(inst, L, funcs, x), s * L)


def _projections(inst: NormInstance):
    # segments and intervals only: all_subsets callers take their own sets
    if inst.projection_class == "initial_segments":
        for t in range(0, inst.dim + 1):
            yield tuple(range(1, t + 1))
    elif inst.projection_class == "intervals":
        yield ()
        for s in range(1, inst.dim + 1):
            for t in range(s, inst.dim + 1):
                yield tuple(range(s, t + 1))


class Certificate(Record):
    value: Fraction
    kind: str                      # "functional" | "sup" | "zero"
    functional_index: int | None = None
    projection: tuple[int, ...] | None = None
    coordinate: int | None = None


def dual_certificate(inst: NormInstance, v: SparseVector) -> Certificate:
    """First (functional, projection) pair attaining the norm of v.

    Enumeration order: functionals in build order (given family then appended
    negations), projections canonically (segments by right end, intervals by
    (start, end); for all_subsets the functional's positive-part set). The
    sup term is consulted only when no functional attains the norm. Zero
    vector gets a zero certificate with no witness.
    """
    inst._check_vector(v)
    if v.is_zero():
        return Certificate(Fraction(0), "zero")
    L, funcs = _scaled_functionals(inst)
    s, x = _scaled_vector(v, inst.dim)
    target = _scaled_norm(inst, L, funcs, x)
    norm = Fraction(target, s * L)
    for fi, f in enumerate(funcs):
        if _functional_best(f, x, inst.projection_class) != target:
            continue
        if inst.projection_class == "all_subsets":
            return Certificate(norm, "functional", fi, tuple(i + 1 for i, c in f if c * x[i] > 0))
        for E in _projections(inst):
            if sum(c * x[i] for i, c in f if i + 1 in E) == target:
                return Certificate(norm, "functional", fi, E)
        raise InternalError("functional max not attained by any projection")
    for i, val in v.entries:
        if abs(val) == norm:
            return Certificate(norm, "sup", coordinate=i)
    raise InternalError("norm not attained")
