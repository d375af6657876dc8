"""The public API is what the package, its CLI, the acceptance suite, the
demos and the benchmark use: a name that only unit tests reach belongs in
the tests, as a reference, not in `src/`."""

import ast
import builtins
import inspect
import io
import re
import tokenize
import types
from functools import cached_property
from pathlib import Path

import nilcommute

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "BranchReport", "BurgeDecodeError", "BurgeWord", "CellReport", "CommutatorElement",
    "ContainmentReport", "DEFAULT_PRIME", "EMPTY", "EquationSet",
    "IntersectReport", "Partition", "Quadric", "SurveyReport", "TruncPoly",
    "almost_rectangular", "ar_blocks", "ar_notation", "assemble_blocks", "box_codes",
    "box_partitions", "burge", "classify", "closed_form_power", "closure_contains",
    "commutator", "decode", "delta", "dmap", "dmap_oracle",
    "dominance_max", "dominates", "encode", "equations", "frequency", "intersect_experiment",
    "is_prime", "is_stable", "jordan_from_coranks", "jordan_type_of_matrix", "jordan_types",
    "key", "loci", "matmul", "min_ar_cover", "minplus_mul", "minplus_power", "modpoly",
    "partitions", "partitions_of", "predicted_coranks", "predicted_jordan_type", "r_set",
    "rank", "sample_commutator", "sample_on_locus", "survey", "table", "tropical",
    "two_part_code", "verify_cell",
]


def _src() -> list[Path]:
    """The package modules other than `__init__.py`."""
    return [f for f in sorted((ROOT / "src" / "nilcommute").glob("*.py")) if f.name != "__init__.py"]


def _callers() -> list[Path]:
    """The files whose use makes a name public: package modules other than
    `__init__.py`, the acceptance suite, the demos and the benchmark."""
    return [*_src(), ROOT / "tests" / "test_acceptance.py",
            *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]


def _used_names(path: Path) -> set[str]:
    """Identifiers a file uses: loaded names, attributes and the identifiers
    inside string literals other than docstrings (the benchmark's tracer
    names its targets in strings).  Definitions, assignment targets,
    imports, comments and docstrings do not count.  An attribute read off a
    name also counts qualified, as "Name.attr", and read off `cls` inside a
    class as "Class.attr"; so does each dotted pair in a string literal."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
            if isinstance(node.value, ast.Name):
                used.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            for token in node.value.split():
                parts = token.split(".")
                used.update(parts)
                used.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
        elif isinstance(node, ast.ClassDef):
            used.update(f"{node.name}.{sub.attr}" for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "cls")
    return used


def test_public_names_are_pinned():
    assert sorted(nilcommute.__all__) == PUBLIC


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    used = set().union(*map(_used_names, _callers()))
    names = [n for n in nilcommute.__all__ if not isinstance(getattr(nilcommute, n), types.ModuleType)]
    assert sorted(n for n in names if n not in used) == []


def _public_members(cls) -> list[str]:
    """The methods and properties that a class and its package bases define,
    other than private names and dunders."""
    kinds = (types.FunctionType, property, cached_property, classmethod, staticmethod)
    return [name for klass in cls.__mro__ if klass.__module__.startswith("nilcommute.")
            for name, value in vars(klass).items() if not name.startswith("_") and isinstance(value, kinds)]


def _reached(cls, name: str, used: set[str]) -> bool:
    """A classmethod is reached through its class, so only "Class.name"
    counts for it: a bare name would let it hide behind a namesake on
    another class.  Any other member counts by its bare name."""
    if isinstance(inspect.getattr_static(cls, name), classmethod):
        return f"{cls.__name__}.{name}" in used
    return name in used


def test_every_public_member_has_a_caller_outside_the_unit_tests():
    used = set().union(*map(_used_names, _callers()))
    classes = [v for v in map(nilcommute.__dict__.get, nilcommute.__all__) if isinstance(v, type)]
    members = {f"{cls.__name__}.{name}" for cls in classes for name in _public_members(cls)
               if not _reached(cls, name, used)}
    assert sorted(members) == []


def _private_definitions(path: Path) -> list[str]:
    """The private module-level functions and classes of a module and the
    private methods of its classes, as "module.name"; dunders are not private."""
    tree = ast.parse(path.read_text(), str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names.extend(f.name for f in node.body if isinstance(f, defs))
    return [f"{path.stem}.{n}" for n in names if n.startswith("_") and not n.endswith("__")]


def test_every_private_helper_has_a_caller_in_src():
    # a helper kept only for the tests belongs in the tests
    used = set().union(*map(_used_names, _src()))
    private = [name for path in _src() for name in _private_definitions(path)]
    assert sorted(n for n in private if n.split(".")[1] not in used) == []


_TICKED = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _live_identifiers() -> set[str]:
    """Every identifier that `src/` defines, assigns, imports or reads, the
    module and package names, and the builtins."""
    names = set(dir(builtins))
    for path in (ROOT / "src" / "nilcommute").glob("*.py"):
        names.update((path.stem, path.parent.name))
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def _ticked_identifiers(path: Path) -> list[str]:
    """The backticked dotted identifiers in a module's docstrings and
    comments, each cut before any "(": `_layout(parts)[0]` reads as
    `_layout`.  Backticked expressions and paths are skipped."""
    source = path.read_text()
    texts = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(source, str(path)))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    texts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.COMMENT]
    heads = (span.split("(")[0].strip() for text in texts for span in _TICKED.findall(text))
    return [head for head in heads if _DOTTED.fullmatch(head)]


def test_docstrings_name_only_live_identifiers():
    # a docstring or comment that names a removed helper misleads its reader
    live = _live_identifiers()
    paths = sorted((ROOT / "src" / "nilcommute").glob("*.py"))
    refs = [(path.name, head) for path in paths for head in _ticked_identifiers(path)]
    assert len(refs) > 50
    assert [(name, head) for name, head in refs if not live.issuperset(head.split("."))] == []
