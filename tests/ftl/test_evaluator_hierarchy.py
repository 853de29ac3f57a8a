"""The interval evaluator is a base class plus one scope override.

``PartialIntervalEvaluator`` is the only subclass: it changes *which
rows* the enumerating nodes walk (:meth:`_rows`) and *how a child is
read* (:meth:`_operand`), not the atom / disjunction / negation
algorithms — those exist once, on the base.  A shard worker is the base
class itself on a domain-restricted context (``tests/parallel/``).
"""

import importlib
import pkgutil

import repro
from repro.ftl.evaluator import IntervalEvaluator
from repro.ftl.incremental import PartialIntervalEvaluator


def test_partial_evaluator_is_the_only_subclass_in_the_package():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    inside = {
        cls
        for cls in IntervalEvaluator.__subclasses__()
        if cls.__module__.split(".")[0] == "repro"
    }
    assert inside == {PartialIntervalEvaluator}


def test_delta_class_overrides_scope_not_algorithms():
    own = vars(PartialIntervalEvaluator)
    assert {"_rows", "_operand", "_atom_gate", "refresh"} <= set(own)
    for algorithm in ("_atom", "_disjunction", "_negation", "_batched_rows"):
        assert algorithm not in own, algorithm
    for removed in ("_delta_atom", "_delta_disjunction", "_delta_negation"):
        assert not hasattr(PartialIntervalEvaluator, removed), removed
