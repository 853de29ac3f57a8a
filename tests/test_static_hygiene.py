"""Import hygiene of ``src/``, checked with the stdlib ``ast`` alone.

CI runs ``ruff check src/``, but ruff is not installable on every host
that runs tier-1.  This is the part of its rule set a deletion PR
breaks most easily: an import left behind by the code that used it
(pyflakes F401) and an ``__all__`` entry left behind by the name it
exported (F822).  Below them, checks standing in for mypy and for a
layering lint: no ``@property`` is called like a method, only the cold
query door imports ``repro.parallel``, and the modules mypy holds to
strict rules carry complete annotations.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _dunder_all(tree):
    """The literal ``__all__`` of a module, or ``None``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return None


def _imports(tree):
    """``(bound name, lineno, explicit re-export)`` of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno, alias.asname == alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                yield bound, node.lineno, alias.asname == alias.name


def _used_names(tree):
    """Every identifier the module reads, including the ones inside
    quoted annotations (``"History | None"``)."""
    used = set()
    stack = [tree]
    while stack:
        for node in ast.walk(stack.pop()):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    stack.append(ast.parse(node.value.strip(), mode="eval"))
                except (SyntaxError, ValueError):
                    pass
    return used


def _defined_names(tree):
    """Names bound at module level (through ``if`` / ``try`` blocks too)."""
    defined = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(bound for bound, _line, _re in _imports(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for field in ("body", "orelse", "finalbody"):
                stack.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
    return defined


def unused_imports(tree):
    """Imports a module neither reads nor re-exports, as ``(name, line)``."""
    kept = _used_names(tree) | set(_dunder_all(tree) or ())
    return sorted(
        (bound, line)
        for bound, line, reexport in _imports(tree)
        if bound not in kept and not reexport
    )


def undefined_exports(tree):
    """``__all__`` entries the module never binds."""
    return sorted(set(_dunder_all(tree) or ()) - _defined_names(tree))


def test_the_scan_covers_the_package():
    assert len(MODULES) > 100
    assert SRC / "repro" / "parallel" / "partition.py" in MODULES


def test_scan_sees_a_planted_unused_import_and_a_stale_export():
    planted = ast.parse(
        "import os\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from a import b as b\n"
        "if TYPE_CHECKING:\n"
        "    from c import D, E\n"
        "__all__ = ['f', 'gone']\n"
        "def f(x: 'D | None') -> Sequence[int]: ...\n"
    )
    assert unused_imports(planted) == [("E", 5), ("os", 1)]
    assert undefined_exports(planted) == ["gone"]


def test_every_module_imports_what_it_uses_and_exports_what_it_defines():
    # One test, not one per module: a PR that deletes a module must not
    # thereby delete a test id.
    findings = {}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        found = unused_imports(tree) + undefined_exports(tree)
        if found:
            findings[str(path.relative_to(SRC))] = found
    assert findings == {}


# ---------------------------------------------------------------------------
# The slice of the type checker a deletion or rename PR needs: mypy is not
# installable on every host that runs tier-1 either.
# ---------------------------------------------------------------------------


def _is_property(func):
    return any(
        isinstance(d, ast.Name) and d.id == "property"
        for d in func.decorator_list
    )


def property_only_names(trees):
    """Names ``src/`` binds under ``@property`` and nowhere as a plain
    ``def`` or ``class`` — calling an attribute so named calls the
    property's *value*."""
    properties, callables = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                (properties if _is_property(node) else callables).add(node.name)
            elif isinstance(node, ast.ClassDef):
                callables.add(node.name)
    return properties - callables


def property_calls(tree, names):
    """``x.name(...)`` sites with ``name`` in ``names``, as ``(name, line)``
    — except on a receiver the module imported (``math.log``)."""
    imported = {bound for bound, _line, _re in _imports(tree)}
    return sorted(
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
        and not (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id in imported
        )
    )


def imported_modules(tree):
    """Dotted names of everything a module imports, at any depth —
    ``from repro import parallel`` counts as ``repro.parallel``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_scan_sees_a_planted_property_call():
    planted = ast.parse(
        "import math\n"
        "class Db:\n"
        "    @property\n"
        "    def log(self): return ()\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    def size(self, unit): return 0\n"
        "def f(db):\n"
        "    return len(db.log()), math.log(2), db.size('b'), db.log\n"
    )
    names = property_only_names([planted])
    assert names == {"log"}
    assert property_calls(planted, names) == [("log", 9)]


def test_no_property_is_called_like_a_method():
    trees = {path: ast.parse(path.read_text()) for path in MODULES}
    names = property_only_names(trees.values())
    assert len(names) > 50, "the scan found the package's properties"
    findings = {
        str(path.relative_to(SRC)): found
        for path, tree in trees.items()
        if (found := property_calls(tree, names))
    }
    assert findings == {}


def test_only_the_cold_query_door_imports_the_shard_pool():
    """``repro.core`` and ``repro.server`` maintain registered queries
    in-process; sharding has one entry, ``FtlQuery.evaluate_full``."""
    package = SRC / "repro"
    allowed = {package / "ftl" / "query.py"}
    scanned, findings = 0, []
    for layer in ("core", "server", "ftl"):
        for path in sorted((package / layer).rglob("*.py")):
            scanned += 1
            if path not in allowed and any(
                name.split(".")[:2] == ["repro", "parallel"]
                for name in imported_modules(ast.parse(path.read_text()))
            ):
                findings.append(str(path.relative_to(SRC)))
    assert scanned > 40 and allowed <= set(MODULES)
    assert findings == []


def annotation_gaps(tree):
    """``(function, what)`` for every ``def`` missing an annotation — a
    parameter (``self`` / ``cls`` of a method excepted) or the return —
    the ``disallow_untyped_defs`` / ``disallow_incomplete_defs`` half of
    mypy's strict mode."""
    gaps = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = args.posonlyargs + args.args
                if in_class and params and params[0].arg in ("self", "cls"):
                    params = params[1:]
                params = params + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a]
                gaps.extend(
                    (child.name, p.arg) for p in params if p.annotation is None
                )
                if child.returns is None:
                    gaps.append((child.name, "return"))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return gaps


#: Packages mypy checks strictly (``pyproject.toml``), the update router
#: and divergence probe — the shared gate every commit runs — the pinned
#: future history and its content token, the motion columns, their
#: writer and the motion-event reader, the atom pruner's leg-box tables,
#: join and row partition, the motion token, the batch backend and its
#: kernels, the interval evaluator's atom row loop and column path, row
#: enumeration and index gate, the delta evaluator's
#: frontier view and dirty domains, the context's leg memo and domain
#: split, and the answer stamper.
#: ``Class.name`` picks one method of a class.
STRICT_PACKAGES = ("server", "parallel", "ftl/analysis")
STRICT_DEFS = {
    "core/columns.py": ("MotionRows", "MotionColumns", "_exact", "linear_legs"),
    "core/database.py": (
        "_same_float",
        "MostDatabase.motion_event_candidates",
        "MostDatabase.motion_columns",
        "MostDatabase._write",
        "MostDatabase._motion_updates",
        "MostDatabase._commit",
        "MostDatabase.ingest_motion",
        "MostDatabase.__contains__",
        "MostDatabase.object_ids_of",
        "MostDatabase.heard_serial",
        "MostDatabase.heard_since",
        "MostDatabase._hear",
        "MostDatabase.arrivals",
    ),
    "core/history.py": ("FutureHistory", "RecordedHistory", "epoch_token"),
    "core/queries.py": (
        "UpdateRouter",
        "_class_gate",
        "_divergence_table",
        "_binds",
        "_covered",
        "_stamp_rows",
        "ContinuousQuery.changed_since",
        "ContinuousQuery.stamp_rows",
        "ContinuousQuery.ages_stay_zero",
    ),
    "ftl/analysis/validity.py": (
        "DivergenceProbe",
        "linear_divergence",
        "update_divergence",
        "class_motion_events",
    ),
    "ftl/atoms.py": (
        "_MbrTable",
        "overlap_join",
        "ClassMbrTable",
        "_linear_leg_boxes",
        "build_class_table",
        "motion_token",
        "linear_motion_tokens",
        "MbrTableCache",
        "AtomIndexPruner",
        "AtomIndexPruner.partition",
        "AtomIndexPruner._split",
        "KineticBatch",
        "KineticSolveCache",
    ),
    "ftl/context.py": (
        "EvalContext.kinetic_cache",
        "EvalContext.column_legs",
        "EvalContext.dirty_domain",
        "EvalContext.clean_domain",
    ),
    "ftl/evaluator.py": (
        "_ColumnRows",
        "_numbers",
        "_slots",
        "_taken",
        "IntervalEvaluator._atom",
        "IntervalEvaluator._batched_rows",
        "IntervalEvaluator._solve_rows",
        "IntervalEvaluator._stamp_for",
        "IntervalEvaluator._column_rows",
        "IntervalEvaluator._column_var",
        "IntervalEvaluator._constant",
        "IntervalEvaluator._movers",
        "IntervalEvaluator._region_columns",
        "IntervalEvaluator._sphere_columns",
        "IntervalEvaluator._dist_columns",
        "IntervalEvaluator._pair_columns",
        "IntervalEvaluator._dist_terms",
        "IntervalEvaluator._attr_terms",
        "IntervalEvaluator._dynamic_attr",
        "IntervalEvaluator._attr_columns",
        "IntervalEvaluator._rows",
        "IntervalEvaluator._atom_gate",
        "IntervalEvaluator._atom_index",
        "IntervalEvaluator._matches",
        "IntervalEvaluator._conjunction",
        "IntervalEvaluator._until_join",
    ),
    "ftl/incremental.py": (
        "PartialIntervalEvaluator._dirty",
        "PartialIntervalEvaluator._clean",
        "PartialIntervalEvaluator._atom_index",
        "PartialIntervalEvaluator.refresh",
    ),
    "motion/batch.py": (
        "interval_sets",
        "_tick_pieces",
        "_concat",
        "value_band",
        "LinearTable",
        "DistanceBatch.add_pairs",
        "DistanceBatch.solve",
        "PolygonBatch.add_slots",
        "PolygonBatch.solve",
        "polygon_edges",
        "clear_polygon_edges",
    ),
    "ftl/relations.py": (
        "FtlRelation.rows_of",
        "FtlRelation.rows_touching",
        "FtlRelation.matching",
    ),
    "server/registry.py": (
        "_aged",
        "_schedule",
        "AnswerState",
        "AnswerState.capture",
        "AnswerState.since",
        "_ByKey",
    ),
}


def test_scan_sees_a_planted_annotation_gap():
    planted = ast.parse(
        "class C:\n"
        "    def ok(self, x: int, *a: str, **k: int) -> None: ...\n"
        "    def bad(self, x, *, y: int): ...\n"
        "    @classmethod\n"
        "    def make(cls) -> 'C': ...\n"
        "def outer(self) -> None:\n"
        "    def inner(z: int): ...\n"
    )
    assert annotation_gaps(planted) == [
        ("bad", "x"),
        ("bad", "return"),
        ("outer", "self"),
        ("inner", "return"),
    ]


def test_strict_modules_are_fully_annotated():
    package = SRC / "repro"
    findings = {}
    scanned = 0
    for name in STRICT_PACKAGES:
        for path in sorted((package / name).rglob("*.py")):
            scanned += 1
            if gaps := annotation_gaps(ast.parse(path.read_text())):
                findings[str(path.relative_to(package))] = gaps
    for rel, names in STRICT_DEFS.items():
        tree = ast.parse((package / rel).read_text())
        found = {}
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                found[node.name] = node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        found[f"{node.name}.{member.name}"] = member
        assert set(names) <= set(found)
        # A method sits in a class so ``self`` stays exempt.
        chosen = [
            ast.ClassDef(
                name="_", bases=[], keywords=[], decorator_list=[],
                body=[found[name]],
            )
            if "." in name
            else found[name]
            for name in names
        ]
        holder = ast.Module(body=chosen, type_ignores=[])
        if gaps := annotation_gaps(holder):
            findings[rel] = gaps
    assert scanned > 20
    assert findings == {}
