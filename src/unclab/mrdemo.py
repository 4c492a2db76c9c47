"""Exploratory demo: sign-alternation collapse along coded special sequences.

Places k scaled copies of family members on consecutive coordinate
intervals, the next copy chosen by a seeded deterministic successor index
(the coding map phi), and measures them in the norm one functional, the
placed duals concatenated, generates over intervals, joined with the sup norm.

Interval functionals see an alternating-sign block sum with mass at most 1,
while the two single-parity sums keep their full block counts, so the split
sum beats the alternating sum by roughly k. The report also budgets the
alternating norm by 1 + C + 2*k*eta, where eta is the observed pairwise
coherence of the family and C the single-block functional budget. Everything
here is a finite exact-arithmetic model; results are labelled exploratory.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .errors import DomainError
from .norms import Functional, NormInstance, SparseVector, eval_norm
from .record import Record
from .resolutions import Resolution, check_bracket_cells, mutual_bracket

MAX_BLOCKS = 32


def phi_index(seed: int, stage: int, prev_index: int, start: int, size: int) -> int:
    """Deterministic successor index for the coding map."""
    code = f"{seed}:{stage}:{prev_index}:{start}".encode()
    digest = hashlib.sha256(code).digest()
    return int.from_bytes(digest[:8], "big") % size


class PlacedBlock(Record):
    family_index: int
    start: int
    vector: SparseVector
    dual: Functional


def special_sequence(family: list[Resolution], k: int, seed: int) -> list[PlacedBlock]:
    """k consecutively placed blocks following the seeded coding map."""
    if not family:
        raise DomainError("family must be nonempty")
    if not (2 <= k <= MAX_BLOCKS):
        raise DomainError(f"k must be in 2..{MAX_BLOCKS}")
    blocks: list[PlacedBlock] = []
    start = 1
    idx = phi_index(seed, 0, -1, start, len(family))
    for stage in range(1, k + 1):
        r = family[idx]
        w = r.total_weight()
        vec = SparseVector.from_pairs(
            [(start + i, a) for i, a in enumerate(r.alpha)])
        dual = Functional.from_pairs(
            [(start + i, Fraction(1) / w) for i in range(len(r.alpha))])
        blocks.append(PlacedBlock(idx, start, vec, dual))
        start += len(r.pattern)
        idx = phi_index(seed, stage, idx, start, len(family))
    return blocks


def coded_norm_instance(blocks: list[PlacedBlock]) -> NormInstance:
    """Interval norm of f, the placed duals concatenated (their supports are
    disjoint and rise), and -f, which `NormInstance.build` adds, with sup term.

    It is the norm of the block-interval sums f_{j1..j2}: blocks j1..j2 cover
    an interval C that no other dual meets, so f_{j1..j2} is f on C and 0 off
    it, f_{j1..j2}(P_I v) = f(P_{I n C} v) with I n C an interval or empty,
    and f = f_{1..k}. So too for the negations.
    """
    dim = max(c for c, _ in blocks[-1].vector.entries)
    f = Functional(tuple(e for b in blocks for e in b.dual.entries))
    return NormInstance.build(
        dim=dim, functionals=(f,), projection_class="intervals", include_sup=True)


def mr_demo(family: list[Resolution], k: int, seed: int) -> dict:
    """Alternating-sum vs parity-split comparison report."""
    # the eta loop brackets each ordered pair of distinct members, one
    # |r_i| x |r_j| DP table each
    lengths = [len(r) for r in family]
    check_bracket_cells(sum(lengths) ** 2 - sum(n * n for n in lengths))
    blocks = special_sequence(family, k, seed)
    inst = coded_norm_instance(blocks)

    def combine(stages, alternate=False):
        # block supports are disjoint and rise with the stage, so the sum is
        # the concatenation of the blocks' entries, signed (-1)^(j+1) at
        # stage j when alternating
        return SparseVector(tuple((i, -v if alternate and j % 2 == 0 else v)
                                  for j in stages for i, v in blocks[j].vector.entries))

    alt = combine(range(k), alternate=True)
    odd = combine(range(0, k, 2))      # stages 1, 3, ... (1-indexed odd)
    even = combine(range(1, k, 2))
    alt_norm = eval_norm(inst, alt)
    odd_norm = eval_norm(inst, odd)
    even_norm = eval_norm(inst, even)

    eta = Fraction(0)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            v = mutual_bracket(family[i], family[j])
            if v > eta:
                eta = v
    chain_budget = Fraction(1)
    alt_bound = 1 + chain_budget + 2 * k * eta

    return {
        "label": "exploratory",
        "k": k,
        "seed": seed,
        "family_size": len(family),
        "phi_chain": [b.family_index for b in blocks],
        "universe": inst.dim,
        "alternating_norm": alt_norm,
        "odd_norm": odd_norm,
        "even_norm": even_norm,
        "split_sum": odd_norm + even_norm,
        "split_target": Fraction(k),
        "split_meets_target": odd_norm + even_norm >= k,
        "eta": eta,
        "chain_budget": chain_budget,
        "alternating_bound": alt_bound,
        "alternating_within_bound": alt_norm <= alt_bound,
    }
