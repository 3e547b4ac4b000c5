"""Exact reduction-step counts of a fixed list of library computations.

Each computation runs on freshly loaded algebras under its own step budget;
the budget's `used` count must equal the one stored in
`tests/data/steps.json`.  A rewrite of the reduction loops that makes the
same reductions leaves every count as it is; a change to pair selection,
criteria or reducer choice shows here first.  A step is one S-pair taken
for reduction, one reduction step or one row subtraction of the graded
solver.  The list includes `is_nearly_regular` on each pure census class
(fresh algebra, dimension included); those counts add up to the steps of
one round of the census benchmark.  The stored file was written once
ideals of a quotient started from the defining ideal's cached basis,
elimination handed its basis over, and minimalization took no pair above
its largest candidate degree.  To write it again from the code on the
path (only from code whose counts are trusted), printing `name: old → new`
for each computation:

    PYTHONPATH=src python tests/test_steps.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from conftest import ALL_RINGS, PURE_CENSUS
from difftrace.constructions import (
    fiber_product,
    predicted_fiber_trace,
    predicted_tensor_trace,
    tensor_product,
)
from difftrace.groebner import ideal_equals, step_budget
from difftrace.ringfile import load_ring
from difftrace.simplicial import stanley_reisner_algebra
from difftrace.traces import (
    diff_trace,
    is_nearly_regular,
    polynomial_rank,
    radical_equal,
    singular_locus_jacobian,
    singular_locus_trace,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data" / "steps.json"
# the frontier ring of the graded solver: 10 variables, 27 quadrics
VERONESE = "tests/data/veronese_p2_d3.ring"
TENSOR_PAIRS = (("rings/node.ring", "rings/cusp.ring"),
                ("rings/node.ring", "tests/data/rings/umbrella.ring"))
FIBER_PAIRS = (("rings/node.ring", "rings/cusp.ring"),)
# the steps of one census benchmark round: is_nearly_regular on every class
CENSUS_STEPS = 11036


def _load(path) -> object:
    return load_ring(str(ROOT / path)).algebra


def _trace_chain(path):
    """Every trace of the ring with its presented generators."""
    algebra = _load(path)
    for power in range(algebra.dimension + 2):
        algebra.presented_generators(diff_trace(algebra, power))


def _graded(path):
    """The yes/no questions of `classify` with no trace cached, solved on
    graded pieces (after the dimension, which the questions need)."""
    algebra = _load(path)
    is_nearly_regular(algebra)
    polynomial_rank(algebra)


def _cross_check(path):
    """The radical comparison of `singular --cross-check`."""
    algebra = _load(path)
    radical_equal(singular_locus_trace(algebra), singular_locus_jacobian(algebra))


def _tensor(path_a, path_b):
    """The verification of `tensor --verify-formula`."""
    a, b = _load(path_a), _load(path_b)
    product = tensor_product(a, b)
    predicted = predicted_tensor_trace(a, b, product)
    ideal_equals(predicted, diff_trace(product, product.dimension))
    is_nearly_regular(product)


def _fiber(path_a, path_b):
    """The verification of `fiber --verify-formula`, with the printed
    generators of both top traces."""
    a, b = _load(path_a), _load(path_b)
    product = fiber_product(a, b)
    predicted = predicted_fiber_trace(a, b, product)
    direct = diff_trace(product, product.dimension)
    product.presented_generators(predicted)
    product.presented_generators(direct)
    ideal_equals(predicted, direct)
    is_nearly_regular(product)


def _census(delta):
    """Nearly-regularity of a face ring, its dimension included."""
    is_nearly_regular(stanley_reisner_algebra(delta))


@functools.cache
def computations() -> dict[str, object]:
    out = {}
    for path in ALL_RINGS:
        rel = path.relative_to(ROOT).as_posix()
        out[f"chain {rel}"] = functools.partial(_trace_chain, rel)
        out[f"graded {rel}"] = functools.partial(_graded, rel)
        flags = load_ring(str(path)).algebra
        if flags.asserted_reduced and flags.asserted_equidimensional:
            out[f"cross-check {rel}"] = functools.partial(_cross_check, rel)
    out[f"graded {VERONESE}"] = functools.partial(_graded, VERONESE)
    for a, b in TENSOR_PAIRS:
        out[f"tensor {a} {b}"] = functools.partial(_tensor, a, b)
    for a, b in FIBER_PAIRS:
        out[f"fiber {a} {b}"] = functools.partial(_fiber, a, b)
    for delta in PURE_CENSUS:
        out[f"census {delta.describe()}"] = functools.partial(_census, delta)
    return out


def steps_of(run) -> int:
    with step_budget(10 ** 12) as budget:
        run()
    return budget.used


@functools.cache
def _stored() -> dict[str, int]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_stored_names_are_the_listed_computations():
    assert sorted(_stored()) == sorted(computations())


@pytest.mark.parametrize("name", sorted(computations()))
def test_step_count(name):
    assert steps_of(computations()[name]) == _stored()[name]


def test_census_round_total():
    """The stored census counts add up to the census benchmark's steps."""
    counts = [n for name, n in _stored().items() if name.startswith("census ")]
    assert len(counts) == len(PURE_CENSUS) == 98
    assert sum(counts) == CENSUS_STEPS


if __name__ == "__main__":
    old = _stored() if DATA.exists() else {}
    counts = {}
    for name, run in sorted(computations().items()):
        counts[name] = steps_of(run)
        print(f"{name}: {old.get(name, '-')} → {counts[name]}", flush=True)
    DATA.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
