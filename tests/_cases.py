"""The case registry of the route tests in ``test_routes.py`` and their spy.

``CASES`` maps a name to a builder of a tuple of items: engine configs,
operand pairs, strokes with their element-wise loops, or schemes with their
registers.  :func:`configs` builds a case once per test run.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from szilard import (
    SCAN_FAMILIES, FeedbackScheme, Observable, Operator, scenario_library,
)
from szilard.cli import parse_scenario
from szilard.feedback import _plane_stroke
import _dense
from test_feedback import random_unitary
from test_golden import LIBRARY as _GOLDEN

# the generator seed of every scan group's three draws, and the seed and
# number of draws per family of the many-draws set
SEED = 11
MANY_SEED, MANY = 16, 200


def _library(scenario: str, params: dict):
    return lambda: (scenario_library(scenario, **params),)


def _hit(scenario: str, **params):
    """The second of two builds with the same parameters: a memo hit."""
    return lambda: (scenario_library(scenario, **params),
                    scenario_library(scenario, **params))[1:]


def _draws(family: str, thermal: bool, seed: int, count: int):
    def build():
        rng = np.random.default_rng(seed)
        return tuple(SCAN_FAMILIES[family](rng, thermal) for _ in range(count))
    return build


def _golden(doc: dict):
    return lambda: tuple(run.config for run in parse_scenario(doc))


def _operands(diagonal_a: bool, diagonal_b: bool):
    """Seeded complex operand pairs of five sizes; a diagonal operand keeps
    only its diagonal."""
    def build():
        rng = np.random.default_rng([int(diagonal_a), int(diagonal_b)])
        def draw(n, diagonal):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return np.diag(np.diag(m)) if diagonal else m
        return tuple((draw(n, diagonal_a), draw(n, diagonal_b)) for n in (1, 2, 5, 17, 64))
    return build


def _random_planes():
    """Strokes on planes drawn across a ladder-times-qubit law's sectors or
    inside them, with blocks unitary, near unitary or not: each with the
    law and the element-wise loop's matrix."""
    rng = np.random.default_rng(2024)
    law = (np.arange(9.0)[:, None] + np.array([0.5, -0.5])[None, :]).ravel()
    items = []
    for _ in range(300):
        k = int(rng.integers(0, 10))
        idx = rng.permutation(law.size)[: 2 * k]
        block = random_unitary(rng, 2)
        kind = rng.integers(3)
        if kind == 1:
            block = block + 1e-6 * rng.normal(size=(2, 2))
        elif kind == 2:
            block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        planes = (law.size, idx[:k], idx[k:], block)
        items.append((_plane_stroke(*planes), law, _dense.plane_stroke(*planes)))
    return tuple(items)


def _library_strokes():
    """The strokes the library and the harvest family build from planes,
    each with the element-wise loop's matrix."""
    items = []
    for name, params in (("example_I", {}), ("example_II", {"N": 5}),
                         ("example_II", {"N": 120})):
        c = scenario_library(name, **params)
        posts = c.measurement.post_states
        items += [(u, _dense.shift_stroke(c.weight.dim, posts[x].amplitudes))
                  for x, u in c.feedback.branch_unitaries]
    for dim_r in (2, 4):
        for theta in (math.pi / 2, 1.0):
            c = scenario_library("reservoir_circumvention", dim_R=dim_r, theta=theta)
            items += [(c.feedback.unitary_for(x), _dense.reservoir_swap(
                c.weight.dim, dim_r, theta, s_in)) for s_in, x in enumerate("+-")]
    for ranks in ((2, 2), (3, 2)):
        params = {} if ranks == (2, 2) else {"d": sum(ranks), "ranks": ranks}
        c = scenario_library("degenerate_circumvention", **params)
        items += [(u, _dense.top_swap(c.weight.dim, sum(ranks), int(top))) for (_, u), top
                  in zip(c.feedback.branch_unitaries, np.cumsum(ranks) - 1)]
    c = SCAN_FAMILIES["entropy_harvest"](np.random.default_rng(0), False)
    return (*items, *((u, _dense.harvest_plane(8, 3)) for _, u in c.feedback.branch_unitaries))


def _composed_schemes():
    """Schemes and registers for ``compose_feedback_unitary``: dense or
    plane strokes on a degenerate or a rotated register, strokes listed in
    the other order, and a rotated register under 128-level strokes."""
    s = 1.0 / math.sqrt(2.0)
    rotated = Observable((
        ("a", 1.0, Operator(np.outer([s, s], [s, s]))),
        ("b", -1.0, Operator(np.outer([s, -s], [s, -s]))),
    ))
    p0 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    degenerate = Observable((
        ("a", 1.0, Operator(p0)), ("b", -1.0, Operator(np.eye(3) - p0)),
    ))
    items = []
    for records in (degenerate, rotated):
        for planes in (False, True):
            rng = np.random.default_rng(23)
            items.append((FeedbackScheme(tuple(
                (x, _plane_stroke(5, [0, 3], [2, 1], random_unitary(rng, 2)) if planes
                 else Operator(random_unitary(rng, 5))) for x in "ab"
            )), records))
    rng = np.random.default_rng(17)
    us = [Operator(random_unitary(rng, 3)) for _ in range(2)]
    rng = np.random.default_rng(5)
    wide = tuple((x, Operator(random_unitary(rng, 128))) for x in "ab")
    return (*items, (FeedbackScheme((("b", us[1]), ("a", us[0]))), rotated),
            (FeedbackScheme(wide), rotated))


# small engines of every shape: pure and mixed weights, a reservoir, an
# instrument, a degenerate target and a single-outcome null engine
LIBRARY = (
    "example_II N=5", "example_II N=20", "reservoir_circumvention dim_R=2",
    "reservoir_circumvention dim_R=3", "reservoir_circumvention dim_R=4",
    "degenerate_circumvention", "null_engine", "example_I",
)
# the library scenarios at their defaults, and the largest window
SCENARIOS = (
    "example_I", "example_II", "degenerate_circumvention",
    "reservoir_circumvention", "null_engine", "example_II N=1000",
)
WINDOW = "example_II N=120"
LIBRARY_PARAMS = {
    name: (name.split()[0], {
        k: int(v) for k, v in (p.split("=") for p in name.split()[1:])
    })
    for name in (*LIBRARY, *SCENARIOS, WINDOW)
}
# three draws per scan family, off the thermal system and on it
SCAN = tuple(
    f"{family}{' thermal' if thermal else ''}"
    for thermal in (False, True) for family in sorted(SCAN_FAMILIES)
)
MANY_DRAWS = tuple(f"{family} x{MANY}" for family in SCAN_FAMILIES)
# engines taken from both memos, on a second build
MEMO_HITS = (
    "example_I q=0.3 hit", "example_II N=8 hit",
    "reservoir_circumvention dim_R=3 N=6 hit",
)
# the configs of every golden document; the rotated pointer's |+>/|->
# records are the only register off the demon basis
GOLDEN_DOCS = tuple(f"golden/{e['document']['name']}" for e in _GOLDEN)
ROTATED = "golden/explicit_rotated_pointer"
COMMUTATORS = ("random A, diagonal B", "diagonal A, random B", "diagonal A and B")

CASES = {
    **{name: _library(*LIBRARY_PARAMS[name]) for name in (*LIBRARY, *SCENARIOS, WINDOW)},
    **{
        name: _draws(family, name.endswith("thermal"), SEED, 3)
        for name in SCAN for family in [name.split()[0]]
    },
    **{
        name: _draws(name.split()[0], False, MANY_SEED, MANY)
        for name in MANY_DRAWS
    },
    "example_I q=0.3 hit": _hit("example_I", q=0.3),
    "example_II N=8 hit": _hit("example_II", N=8),
    "reservoir_circumvention dim_R=3 N=6 hit": _hit(
        "reservoir_circumvention", dim_R=3, N=6
    ),
    "example_II N=1000 q=0.3 hit": _hit("example_II", N=1000, q=0.3),
    "entropy_harvest x5": _draws("entropy_harvest", False, 99, 5),
    **{name: _golden(e["document"]) for name, e in zip(GOLDEN_DOCS, _GOLDEN)},
    "random A, diagonal B": _operands(False, True),
    "diagonal A, random B": _operands(True, False),
    "diagonal A and B": _operands(True, True),
    "random plane strokes": _random_planes,
    "library strokes": _library_strokes,
    "composed schemes": _composed_schemes,
}


@functools.cache
def configs(name: str) -> tuple:
    """The items of case ``name``, built once per test run."""
    return CASES[name]()
