"""Options stay few. A parameter default that no command, demo or perfbench
workload overrides is a configuration nothing runs, so it belongs in the
code as a constant; and every segment flag must reach run_segment. Pixels
are blocked by one blocker, the only reader of its block size."""

import ast
from pathlib import Path

from specdrive.cli import MANIFEST, build_parser

ROOT = Path(__file__).resolve().parents[1]


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def _name(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _set_by_calls():
    """{function name: (positions set, keywords set)} over every call in
    src/, demos/ and perfbench/, matched by name; partial(f, ...) calls f.
    A *args sets every position from its place on, a **kwargs every keyword
    (recorded as None)."""
    seen = {}
    for _, tree in _trees("src", "demos", "perfbench"):
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func, args = call.func, call.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            star = any(isinstance(a, ast.Starred) for a in args)
            entry = seen.setdefault(_name(func), [0, set()])
            entry[0] = max(entry[0], float("inf") if star else len(args))
            entry[1].update(k.arg for k in call.keywords)
    return seen


def test_every_optional_parameter_is_set_by_some_call():
    seen = _set_by_calls()
    unset = []
    for path, tree in _trees("src/specdrive"):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            optional = [(i - bound, p.arg) for i, p in enumerate(params)
                        if i >= len(params) - len(a.defaults)]
            optional += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            positions, keywords = seen.get(fn.name, (0, set()))
            unset += [f"{path.name}:{fn.lineno} {fn.name}({arg}=)" for i, arg in optional
                      if not ({arg, None} & keywords or i is not None and i < positions)]
    assert not unset, "optional parameters no call sets: " + ", ".join(unset)


def test_segment_flags_are_the_manifest_keys():
    """_cmd_segment passes on only the flags that are MANIFEST keys, so a
    flag that is not one would be read and then dropped."""
    dests = set(vars(build_parser().parse_args(["segment"])))
    assert dests - {"command", "fn", "manifest"} == set(MANIFEST)


def test_segment_flags_parse_as_their_manifest_types():
    args = build_parser().parse_args(["segment", "--threads", "2", "--quantized"])
    assert (args.threads, args.quantized) == (2, True)


def _reads_block_size(node):
    return (isinstance(node, ast.Name) and node.id == "PIXEL_BLOCK"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "PIXEL_BLOCK")


def test_only_the_pixel_blocker_reads_the_block_size():
    """Pixels are blocked in one place: in src/, only model.pixel_blocks and
    model.map_pixel_blocks read PIXEL_BLOCK, so no other function (or
    module-level code) cuts a cube into blocks of its own."""
    readers, reads = set(), set()
    for path, tree in _trees("src"):
        reads |= {id(n) for n in ast.walk(tree) if _reads_block_size(n)}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = {id(n) for n in ast.walk(fn) if _reads_block_size(n)}
                reads -= inner
                if inner:
                    readers.add((path.name, getattr(fn, "name", "<lambda>")))
    assert not reads, "PIXEL_BLOCK read outside any function"
    assert readers and readers <= {("model.py", "pixel_blocks"),
                                   ("model.py", "map_pixel_blocks")}, readers
