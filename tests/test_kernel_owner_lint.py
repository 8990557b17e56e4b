"""Structural guard: the tokenizer and the md5 key rule each have one owner.

The engine's byte-identical outputs rest on two rules that used to be
re-derived by hand across the query registry:

  * the reference tokenizer, ``strip().lower().split(" ")``
    (docscraper.py:176-186), owned by ``kernels/tokenize.py``:
    ``format_manuscript`` for one string, ``tokenize_column`` for a
    column. ``tokenize_column`` always returns a ``pa.ChunkedArray``, so
    no caller tests for one;
  * the md5 keys that samplers, sketches and Bloom filters share with
    their DuckDB oracles (hex15, the 128-bit halves, the hex column),
    owned by ``kernels/md5.py``.

This lint fails with the file:line list on any new inline copy:

  * ``hashlib.md5(`` anywhere in ``sciscraper_ray/`` outside
    ``kernels/md5.py``;
  * a ``pa.ChunkedArray`` test within two lines after a
    ``tokenize_column(`` call;
  * ``.lower().split(" ")`` outside ``kernels/tokenize.py``.

The query registry had the same habit with three more rules, each now
with one owner:

  * integer cents, ``np.round(v * 100)`` made int64 (half-even against
    DuckDB's half-away, safe only for 2-decimal sources), owned by
    ``pipelines/queries/_shared.cents``;
  * the per-block grouped count, an Arrow ``"count_all"`` aggregate or
    the sum of a column of ones, owned by
    ``stages/relational.group_count_batch``;
  * the undirected-edge and symmetrize steps, owned by
    ``pipelines/graph.undirected`` and ``pipelines/graph.symmetrize``;
    the structural-duplicate scan below keeps their copies out.

These lints fail with the file:line list on:

  * an ``np.round(<expr> * 100)`` in a statement that makes int64,
    outside ``cents``;
  * a ``"count_all"`` aggregate, or a ``(col, "sum")`` one where ``col``
    is ``"one"`` or a column the function fills with ``np.ones``,
    outside ``group_count_batch``;
  * two function bodies in ``sciscraper_ray/`` that are equal after
    renaming identifiers and string literals, for functions of at least
    6 lines (``def`` to last line) with at least 2 statements besides
    the docstring.
"""

import ast
from collections import defaultdict
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "sciscraper_ray"
MD5_OWNER = PKG / "kernels" / "md5.py"
TOKENIZE_OWNER = PKG / "kernels" / "tokenize.py"
CENTS_OWNER = (PKG / "pipelines" / "queries" / "_shared.py", "cents")
COUNT_OWNER = (PKG / "stages" / "relational.py", "group_count_batch")
DUP_MIN_LINES = 6
DUP_MIN_STMTS = 2


def _lines():
    for path in sorted(PKG.rglob("*.py")):
        yield path, path.read_text().splitlines()


def _where(path: Path, i: int, line: str) -> str:
    return f"{path.relative_to(PKG.parent)}:{i + 1}: {line.strip()[:90]}"


def test_md5_has_one_owner():
    offenders = [
        _where(path, i, line)
        for path, lines in _lines()
        if path != MD5_OWNER
        for i, line in enumerate(lines)
        if "hashlib.md5(" in line
    ]
    assert not offenders, (
        "inline md5 outside kernels/md5.py (use md5_hex15 / md5_hash128 / "
        "md5_hex):\n" + "\n".join(offenders)
    )


def test_tokenize_column_callers_do_not_test_for_chunked_array():
    offenders = [
        _where(path, j, lines[j])
        for path, lines in _lines()
        for i, line in enumerate(lines)
        if "tokenize_column(" in line and "def tokenize_column(" not in line
        for j in range(i + 1, min(i + 3, len(lines)))
        if "pa.ChunkedArray" in lines[j]
    ]
    assert not offenders, (
        "tokenize_column always returns a ChunkedArray; write "
        "tokenize_column(x).combine_chunks():\n" + "\n".join(offenders)
    )


def test_tokenizer_has_one_owner():
    offenders = [
        _where(path, i, line)
        for path, lines in _lines()
        if path != TOKENIZE_OWNER
        for i, line in enumerate(lines)
        if '.lower().split(" ")' in line
    ]
    assert not offenders, (
        "inline copy of the reference tokenizer outside kernels/tokenize.py "
        "(use format_manuscript / tokenize_column):\n" + "\n".join(offenders)
    )


def _trees():
    for path in sorted(PKG.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _parents(tree: ast.AST) -> dict:
    return {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}


def _enclosing(node: ast.AST, parents: dict, kinds) -> ast.AST | None:
    while node in parents:
        node = parents[node]
        if isinstance(node, kinds):
            return node
    return None


def _in_owner(path: Path, node: ast.AST, parents: dict, owner) -> bool:
    fn = _enclosing(node, parents, (ast.FunctionDef, ast.AsyncFunctionDef))
    return path == owner[0] and fn is not None and fn.name == owner[1]


def _node_where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(PKG.parent)}:{node.lineno}: {ast.unparse(node)[:90]}"


def _is_round_x100(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.round", "np.around", "np.rint")
        and len(node.args) == 1
        and isinstance(node.args[0], ast.BinOp)
        and isinstance(node.args[0].op, ast.Mult)
        and any(
            isinstance(side, ast.Constant) and side.value == 100
            for side in (node.args[0].left, node.args[0].right)
        )
    )


def test_integer_cents_has_one_owner():
    offenders = []
    for path, tree in _trees():
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not _is_round_x100(node) or _in_owner(path, node, parents, CENTS_OWNER):
                continue
            stmt = _enclosing(node, parents, ast.stmt)
            if "int64" in ast.unparse(stmt):
                offenders.append(_node_where(path, node))
    assert not offenders, (
        "inline integer cents outside queries/_shared.cents (use cents(col)):\n"
        + "\n".join(offenders)
    )


def _ones_columns(fn: ast.AST) -> set:
    """Names of the table columns ``fn`` fills with ``np.ones(...)``."""
    return {
        key.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and "np.ones(" in ast.unparse(value)
    }


def _is_inline_count(node: ast.AST, ones: set) -> bool:
    if isinstance(node, ast.Constant) and node.value == "count_all":
        return True
    return (
        isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and node.elts[1].value == "sum"
        and (node.elts[0].value == "one" or node.elts[0].value in ones)
    )


def test_per_block_count_has_one_owner():
    offenders = []
    for path, tree in _trees():
        parents = _parents(tree)
        ones = {}
        for node in ast.walk(tree):
            fn = _enclosing(node, parents, (ast.FunctionDef, ast.AsyncFunctionDef))
            if fn not in ones:
                ones[fn] = _ones_columns(fn) if fn is not None else set()
            if _is_inline_count(node, ones[fn]) and not _in_owner(
                path, node, parents, COUNT_OWNER
            ):
                offenders.append(_node_where(path, node))
    assert not offenders, (
        "inline per-block count outside stages/relational.group_count_batch "
        "(use group_count_batch(batch, keys, sums, count=...)):\n"
        + "\n".join(offenders)
    )


class _Shape(ast.NodeTransformer):
    """Renames identifiers in order of first use and blanks string
    literals, so two bodies that differ only in names compare equal."""

    def __init__(self):
        self.names = {}

    def _name(self, name: str) -> str:
        return self.names.setdefault(name, f"v{len(self.names)}")

    def visit_Name(self, node):
        node.id = self._name(node.id)
        return node

    def visit_arg(self, node):
        node.arg = self._name(node.arg)
        node.annotation = None
        return node

    def visit_FunctionDef(self, node):
        node.name = self._name(node.name)
        node.returns = None
        self.generic_visit(node)
        return node

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            node.value = ""
        return node


def _body_shape(fn: ast.FunctionDef) -> str | None:
    body = fn.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) < DUP_MIN_STMTS or fn.end_lineno - fn.lineno + 1 < DUP_MIN_LINES:
        return None
    copy = ast.parse(ast.unparse(ast.Module(body=body, type_ignores=[])))
    return ast.dump(_Shape().visit(copy))


def test_no_structural_duplicates():
    groups = defaultdict(list)
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                shape = _body_shape(fn)
                if shape is not None:
                    groups[shape].append(
                        f"{path.relative_to(PKG.parent)}:{fn.lineno} ({fn.name})"
                    )
    dups = sorted(g for g in groups.values() if len(g) > 1)
    assert not dups, (
        "function bodies equal up to renaming; give the rule one owner:\n"
        + "\n".join(" = ".join(g) for g in dups)
    )
