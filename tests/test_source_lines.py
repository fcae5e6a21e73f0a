"""Conventions that hold for every source file of the package."""

import ast
import pathlib

import qndspin


def test_no_source_line_is_longer_than_100_characters():
    root = pathlib.Path(qndspin.__file__).parent
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(root.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


# The private names one module may import from another: the shared numeric and
# guard helpers of rotations (for any module), trajectory's kernel driver for
# stability's fixed-axis kernel and the chord angle for nv's residuals.
# Everything else crosses modules by a public name.
ROTATIONS_HELPERS = {
    "_ATAN2",
    "_NEXT",
    "_PREV",
    "_checked_int",
    "_divisor",
    "_dot",
    "_finite",
    "_measurement_axis",
    "_unit_axis",
    "_vector",
}
SHARED_PRIVATE_NAMES = {
    *{("*", "rotations", name) for name in ROTATIONS_HELPERS},
    *{
        ("stability", "trajectory", name)
        for name in ("_apply", "_axis_frame", "_frame_terms", "_slices", "_streams")
    },
    ("nv", "control", "_chord_angle"),
}


def private_imports():
    """``(importer, source, name)`` for each ``_`` name a package module imports from another."""
    root = pathlib.Path(qndspin.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if alias.name.startswith("_") and not alias.name.startswith("__"):
                        yield path.stem, node.module, alias.name


def test_modules_import_only_the_listed_private_names():
    imported = set(private_imports())
    # each import matches its own entry, or the entry of a name any module may import
    matches = imported | {("*", source, name) for _, source, name in imported}
    unlisted = sorted(
        item for item in imported if not {item, ("*", *item[1:])} & SHARED_PRIVATE_NAMES
    )
    assert unlisted == []
    assert sorted(SHARED_PRIVATE_NAMES - matches) == []  # no stale entry


# The np.errstate blocks the package may hold, each with its reason.  The domain
# of the rotations docstring keeps every other product of two inputs in range, so
# a new block means a new product that needs a domain check instead.
ERRSTATE_BLOCKS = {
    ("stability", "_spectral_lifetimes"): "a failed eigenpair gives inf or nan, no test passes it",
    ("stability", "analytic_survival"): "its exponent saturates: n / tan(alpha/2)**2 has no bound",
}


def errstate_blocks():
    """``(module, function)`` of each ``np.errstate`` in the package, by its innermost def."""
    root = pathlib.Path(qndspin.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "errstate":
                around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                yield path.stem, max(around, key=lambda d: d.lineno).name if around else None


def test_every_errstate_block_is_listed_with_its_reason():
    assert sorted(errstate_blocks()) == sorted(ERRSTATE_BLOCKS)


def test_every_private_helper_has_a_caller_in_src():
    """Each module-level ``_`` function, class or constant is used by ``src/``
    outside its own definition.

    A helper that only tests reach belongs in the tests, not in the package,
    and a constant that nothing reads is left over.  A reference is a name
    that is read, an attribute or an imported name in the code; a mention in
    a docstring or comment is not one, and neither is an assignment.
    """
    root = pathlib.Path(qndspin.__file__).parent
    helpers, references = {}, []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    helpers[name] = (path.stem, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                references.append((node.id, path.stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                references += [(alias.name, path.stem, node.lineno) for alias in node.names]
    called = {
        name
        for name, module, line in references
        if name in helpers
        and not (module == helpers[name][0] and helpers[name][1] <= line <= helpers[name][2])
    }
    assert sorted(set(helpers) - called) == []
