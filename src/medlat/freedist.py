"""The free bottomed distributive lattice on n generators, in antichain
normal form.

An element is a join of meets of generators,  a = V_j (prod of A_j),
stored as the unique antichain family of nonempty generator subsets.  The
empty family is the bottom; the family of all singletons is the top.
Implication keeps exactly the components of the right-hand side that do
not sit below the left-hand side.

The operations on ``FreeElement`` work one pair at a time and are the
reference.  ``free_algebra`` builds its tables on family masks instead: bit
s - 1 of a mask stands for the generator subset s, so a family is one int
and each table is a few numpy passes over all pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import BrouwerAlgebra, bn
from .algebra import AlgebraMap, _index_of_masks, _position_tables, is_b_homomorphism
from .errors import InputError, MedlatError, ResourceLimitError

FREE_CAP = 5
ISO_CAP = 4


def _norm_component(comp) -> tuple[int, ...]:
    c = tuple(sorted(set(int(i) for i in comp)))
    if not c:
        raise InputError("components must be nonempty generator subsets")
    return c


def _prune(family: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Keep inclusion-minimal components (a superset meets to a smaller element)."""
    sets = [set(c) for c in family]
    keep = []
    for i, c in enumerate(family):
        dominated = any(
            j != i and sets[j] <= sets[i] and (sets[j] != sets[i] or j < i)
            for j in range(len(family))
        )
        if not dominated:
            keep.append(c)
    return tuple(sorted(set(keep)))


@dataclass(frozen=True)
class FreeElement:
    n: int
    family: tuple[tuple[int, ...], ...]

    def __str__(self):
        return render_free(self)


def free_element(n: int, family) -> FreeElement:
    """Normalize eagerly: components deduplicated and sorted, dominated
    components dropped, family sorted; equality is then structural."""
    if n < 1:
        raise InputError("generator count must be >= 1")
    comps = []
    for comp in family:
        c = _norm_component(comp)
        if c[-1] >= n or c[0] < 0:
            raise InputError(f"component {c} uses generators outside 0..{n - 1}")
        comps.append(c)
    return FreeElement(n, _prune(comps))


def bottom(n: int) -> FreeElement:
    return free_element(n, [])


def top(n: int) -> FreeElement:
    return free_element(n, [(i,) for i in range(n)])


def generator(n: int, i: int) -> FreeElement:
    if not 0 <= i < n:
        raise InputError(f"generator index {i} out of range for n={n}")
    return free_element(n, [(i,)])


def _same_n(a: FreeElement, b: FreeElement) -> None:
    if a.n != b.n:
        raise InputError(f"mismatched generator counts: {a.n} vs {b.n}")


def free_leq(a: FreeElement, b: FreeElement) -> bool:
    """a <= b iff every component of a is above some component of b
    (component on more generators = smaller element)."""
    _same_n(a, b)
    bs = [set(c) for c in b.family]
    return all(any(t <= set(c) for t in bs) for c in a.family)


def free_join(a: FreeElement, b: FreeElement) -> FreeElement:
    _same_n(a, b)
    return FreeElement(a.n, _prune(list(a.family) + list(b.family)))


def free_meet(a: FreeElement, b: FreeElement) -> FreeElement:
    _same_n(a, b)
    pairs = [tuple(sorted(set(c) | set(d))) for c in a.family for d in b.family]
    return FreeElement(a.n, _prune(pairs))


def free_imp(a: FreeElement, b: FreeElement) -> FreeElement:
    """a -> b keeps the components of b that are not below a."""
    _same_n(a, b)
    asets = [set(c) for c in a.family]
    kept = [c for c in b.family
            if not any(t <= set(c) for t in asets)]
    return FreeElement(a.n, tuple(kept))


def free_neg(a: FreeElement) -> FreeElement:
    return free_imp(a, top(a.n))


# ---------------------------------------------------------------------------
# enumeration and tables
# ---------------------------------------------------------------------------

def _check_generator_count(n: int, cap: int, what: str) -> None:
    """Refuse n below 1 as an input error before n above cap as a limit."""
    if n < 1:
        raise InputError(f"{what} needs n >= 1, got n={n}")
    if n > cap:
        raise ResourceLimitError(f"{what} cap is {cap}, got n={n}")


@lru_cache(maxsize=None)
def free_enumerate(n: int) -> tuple[FreeElement, ...]:
    """All normal forms: antichain families over the nonempty subsets of n."""
    _check_generator_count(n, FREE_CAP, "free_enumerate")
    subsets = sorted(
        tuple(b for b in range(n) if s >> b & 1)
        for s in range(1, 1 << n)
    )
    sets = [set(c) for c in subsets]
    k = len(subsets)
    incomparable = [[not (sets[i] <= sets[j] or sets[j] <= sets[i])
                     for j in range(k)] for i in range(k)]
    out: list[FreeElement] = []

    def rec(start: int, chosen: list[int]):
        out.append(FreeElement(n, tuple(subsets[i] for i in chosen)))
        for i in range(start, k):
            if all(incomparable[j][i] for j in chosen):
                chosen.append(i)
                rec(i + 1, chosen)
                chosen.pop()

    rec(0, [])
    return tuple(sorted(out, key=lambda e: e.family))


def _family_mask(e: FreeElement) -> int:
    """e's components as one int: bit s - 1 for the generator subset s."""
    return sum(1 << (sum(1 << i for i in comp) - 1) for comp in e.family)


def _subset_shifts(n: int) -> list[tuple[int, int]]:
    """Per generator i: the family bits of the subsets s without i, and the
    shift 2**i, which moves bit s - 1 to bit (s + 2**i) - 1."""
    return [(sum(1 << (s - 1) for s in range(1, 1 << n) if not s >> i & 1), 1 << i)
            for i in range(n)]


def _up(g, shifts):
    """The families of every superset of a member (U(F)), adding one
    generator at a time."""
    for keep, shift in shifts:
        g = g | (g & keep) << shift
    return g


def _minimal(g, shifts):
    """The inclusion-minimal members (``_prune`` on masks): a member goes
    when it is one generator more than some superset of a member."""
    up = _up(g, shifts)
    above = 0
    for keep, shift in shifts:
        above = above | (up & keep) << shift
    return g & ~above


@lru_cache(maxsize=None)
def free_algebra(n: int) -> tuple[BrouwerAlgebra, tuple[FreeElement, ...]]:
    """Operation tables of the free lattice over its enumerated normal forms.

    On family masks F with U = ``_up``(F): a <= b iff F_a lies inside U_b,
    a + b = min(F_a | F_b), a x b = min(U_a & U_b), and a -> b = F_b minus
    U_a, an antichain already.  Each result is numbered by the mask lookup
    of the algebra module; a result that is no normal form is refused."""
    _check_generator_count(n, ISO_CAP, "free_algebra")
    elems = free_enumerate(n)
    shifts = _subset_shifts(n)
    fam = np.array([_family_mask(e) for e in elems], dtype=np.int64)
    up = _up(fam, shifts)
    lookup = _position_tables(fam, (1 << n) - 1)

    def number(g: np.ndarray) -> np.ndarray:
        try:
            return _index_of_masks(lookup, g)
        except InputError:
            raise MedlatError(f"free:{n} table entry is not a normal form") from None

    alg = BrouwerAlgebra(
        (fam[:, None] & ~up[None, :]) == 0,
        number(_minimal(fam[:, None] | fam[None, :], shifts)),
        number(_minimal(up[:, None] & up[None, :], shifts)),
        number(fam[None, :] & ~up[:, None]),
        elems.index(bottom(n)), elems.index(top(n)),
        tuple(render_free(e) for e in elems),
        f"free:{n}",
    )
    return alg, elems


# ---------------------------------------------------------------------------
# the isomorphism with the open-set algebra
# ---------------------------------------------------------------------------

def _generator_open_mask(n: int, i: int) -> int:
    """Open set image of generator i: the nonempty subsets avoiding i
    (poset element index = subset bitmask - 1)."""
    mask = 0
    for s in range(1, 1 << n):
        if not s >> i & 1:
            mask |= 1 << (s - 1)
    return mask


def free_to_open_mask(e: FreeElement) -> int:
    """Transport a normal form into the open-set carrier: components (meets)
    become unions, the outer join becomes an intersection."""
    n = e.n
    full = (1 << ((1 << n) - 1)) - 1
    acc = full  # join over the empty family is the bottom = whole carrier
    for comp in e.family:
        cmask = 0
        for i in comp:
            cmask |= _generator_open_mask(n, i)
        acc &= cmask
    return acc


def iso_to_bn(n: int) -> tuple[AlgebraMap, tuple[FreeElement, ...]]:
    """Verified B-isomorphism from the free-lattice tables onto bn(n)."""
    _check_generator_count(n, ISO_CAP, "iso_to_bn")
    falg, elems = free_algebra(n)
    balg = bn(n)
    if falg.size != balg.size:
        raise MedlatError(
            f"size mismatch: |free({n})|={falg.size} but |bn({n})|={balg.size}")
    masks = balg.open_masks
    wanted = np.array([free_to_open_mask(e) for e in elems], dtype=np.uint64)
    try:
        image = _index_of_masks(_position_tables(masks, balg.poset.size), wanted)
    except InputError:
        raise MedlatError("transported element is not an open set") from None
    amap = AlgebraMap(falg, balg, image)
    if not amap.is_bijective():
        raise MedlatError("transport map is not bijective")
    ok, viol = is_b_homomorphism(amap)
    if not ok:
        raise MedlatError(f"transport map fails to preserve {viol[0]} at {viol[1]}")
    return amap, elems


# ---------------------------------------------------------------------------
# the finite mirrors of the independence/negation facts
# ---------------------------------------------------------------------------

def independence_check(n: int, i: int, others) -> bool:
    """Whether generator i sits below the join of the generators in others
    (freeness predicts False for every legal input)."""
    others = sorted(set(int(j) for j in others))
    if i in others:
        raise InputError(f"index {i} must not occur in the comparison set")
    acc = bottom(n)
    for j in others:
        acc = free_join(acc, generator(n, j))
    return free_leq(generator(n, i), acc)


def generator_negations(n: int) -> dict:
    """For each generator: -a_i and --a_i, with the expected identities
    -a_i = join of the other generators and --a_i = a_i."""
    if n < 2:
        raise InputError("generator_negations needs n >= 2 (n=1 degenerates)")
    if n > FREE_CAP:
        raise ResourceLimitError(f"cap is {FREE_CAP}, got n={n}")
    rows = []
    all_ok = True
    for i in range(n):
        ng = free_neg(generator(n, i))
        nng = free_neg(ng)
        expected = bottom(n)
        for j in range(n):
            if j != i:
                expected = free_join(expected, generator(n, j))
        ok = ng == expected and nng == generator(n, i)
        all_ok &= ok
        rows.append({
            "generator": i,
            "neg": render_free(ng),
            "neg_neg": render_free(nng),
            "neg_is_join_of_others": ng == expected,
            "neg_neg_is_generator": nng == generator(n, i),
            "ok": ok,
        })
    return {"n": n, "ok": all_ok, "rows": rows,
            "neg_top_is_bottom": free_neg(top(n)) == bottom(n)}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_free(e: FreeElement) -> str:
    if not e.family:
        return "0"
    if e == top(e.n):
        return "1"
    return " + ".join("*".join(f"a{i}" for i in comp) for comp in e.family)

