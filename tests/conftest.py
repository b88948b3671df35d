import os
import random
from pathlib import Path

import numpy as np
import pytest

import medlat
from medlat.logic import And, Bot, Imp, Not, Or, Top, Var, parse
from medlat.poset import Poset, make_poset


def child_env() -> dict:
    """The environment of a child process that imports this medlat."""
    src = str(Path(medlat.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture
def fork():
    """Root below two incomparable points: r < a, r < b."""
    leq = np.array([
        [1, 1, 1],
        [0, 1, 0],
        [0, 0, 1],
    ], dtype=bool)
    return make_poset(leq, labels=("r", "a", "b"), name="fork")


def antichain_poset(n: int) -> Poset:
    """n pairwise incomparable elements."""
    return Poset(np.eye(n, dtype=bool), tuple(map(str, range(n))), f"antichain{n}")


def transitive_closure_poset(n: int, edges) -> Poset:
    """Build a poset from acyclic edges (i -> j meaning i <= j), or raise."""
    leq = np.eye(n, dtype=bool)
    for i, j in edges:
        leq[i, j] = True
    for _ in range(n):
        leq = leq | ((leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0)
    return make_poset(leq)


def random_poset(rng: np.random.Generator, n: int, density: float = 0.4) -> Poset:
    """Random partial order: random edges respecting a random linear order."""
    perm = rng.permutation(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((int(perm[i]), int(perm[j])))
    return transitive_closure_poset(n, edges)


def clause_formula(nvars: int, *targets: int):
    """A formula over x00..x{nvars-1} that fails, in the 2-element algebra,
    exactly at the valuations whose digits are the bits of the targets."""
    names = [f"x{i:02d}" for i in range(nvars)]
    return parse(" & ".join(
        "(" + " | ".join(f"~{v}" if b == "1" else v
                         for v, b in zip(names, format(t, f"0{nvars}b"))) + ")"
        for t in targets))


def random_formula(rng: random.Random, names, d: int):
    """A seeded random formula over names, of depth at most d."""
    if d == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.8:
            return Var(rng.choice(names))
        return Top() if r < 0.9 else Bot()
    k = rng.randrange(4)
    if k == 0:
        return Not(random_formula(rng, names, d - 1))
    left = random_formula(rng, names, d - 1)
    right = random_formula(rng, names, d - 1)
    return (And, Or, Imp)[k - 1](left, right)
