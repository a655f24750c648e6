"""Every definition in src/relgen has a caller in the shipped code, every
parameter with a default is set by some shipped call, every class field is
read by some shipped code, and no shipped module imports a name it never
uses.

The shipped code is src/, demos/ and tools/. A use in tests/ does not
count: code that only tests reach belongs in tests/. Names are matched
with stdlib ast, so a use is a load of the name (f(), x.f, f in an
annotation), not a string or a comment.
"""

import ast
import pathlib

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = ("src", "demos", "tools")

# defined in src with no caller there, but perfbench/tracer.py resolves each
# by name when it installs its spans; they go when the tracer stops naming them
TRACER_BOUND = {
    "relgen.nn.loss_ce_batch": "perfbench/tracer.py traces nn.loss_ce_batch",
    "relgen.nn.loss_mse": "perfbench/tracer.py traces nn.loss_mse",
    "relgen.model.train_erm": "perfbench/tracer.py traces model.train_erm",
    "relgen.theory.excess_risk": "perfbench/tracer.py traces theory.excess_risk",
}

# parameters with a default that no shipped call sets, as "module.function:parameter"
UNSET_DEFAULTS = {
    "relgen.cli.main:argv": "the entry point: the console script calls main(), which reads "
                            "sys.argv",
}

# x.copy() most likely reads an array's method, so a method that an ndarray
# also has counts as used only as Class.name or, inside its class, self.name
# (or cls.name)
ARRAY_NAMES = frozenset(dir(np.ndarray))


def _modules(root: pathlib.Path) -> dict:
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
            for top in SHIPPED for p in sorted((root / top).rglob("*.py"))}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, class or None, node) of each module-level
    function and class and of each method, dunders left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, None, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, node.name, item


def _src_definitions(root: pathlib.Path, modules: dict) -> list:
    """_definitions of every module under root/src, named by its dotted path."""
    src = root / "src"
    return [d for path, tree in modules.items() if src in path.parents
            for d in _definitions(".".join(path.relative_to(src).with_suffix("").parts), tree)]


def _walk(node, skip):
    """ast.walk, minus the subtrees rooted at the nodes in skip."""
    todo = [node]
    while todo:
        node = todo.pop()
        if node not in skip:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _is_used(name, cls, uses) -> bool:
    names, attrs, qualified, self_attrs = uses
    if cls is None:
        return name in names or name in attrs
    if name in ARRAY_NAMES:
        return (cls, name) in qualified or (cls, name) in self_attrs
    return name in attrs


def uncalled(root: pathlib.Path = ROOT, live=TRACER_BOUND) -> list[str]:
    """Qualified names of the src definitions that no shipped module under root uses.

    A use inside a definition that is itself uncalled does not count, so a
    helper that only such code calls is uncalled too. The definitions named
    in live count as used.
    """
    modules = _modules(root)
    defs = _src_definitions(root, modules)
    dead: set = set()
    while True:
        uses = (set(), set(), set(), set())  # names, attributes, (receiver, attr), (class, self.attr)
        for tree in modules.values():
            for node in _walk(tree, dead):
                if isinstance(node, ast.Name):
                    uses[0].add(node.id)
                elif isinstance(node, ast.Attribute):
                    uses[1].add(node.attr)
                    if isinstance(node.value, ast.Name):
                        uses[2].add((node.value.id, node.attr))
                elif isinstance(node, ast.ClassDef):
                    uses[3].update((node.name, sub.attr) for sub in _walk(node, dead)
                                   if isinstance(sub, ast.Attribute)
                                   and isinstance(sub.value, ast.Name)
                                   and sub.value.id in ("self", "cls"))
        now = {node for qual, name, cls, node in defs
               if qual not in live and not _is_used(name, cls, uses)}
        if now == dead:
            return [qual for qual, _, _, node in defs if node in dead]
        dead = now


def _defaulted(fn) -> list[tuple[int | None, str]]:
    """(position or None if keyword-only, name) of each parameter of fn with a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(positional) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def _passes(call: ast.Call, position, name: str, offset: int) -> bool:
    """Whether call sets the parameter, its receiver taken as offset leading arguments."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if position is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or i + offset == position:
            return True
    return False


def unset_defaults(root: pathlib.Path = ROOT, live=TRACER_BOUND) -> list[str]:
    """Each parameter with a default that no shipped call under root sets, as
    "module.function:parameter".

    Callees are matched by name, as uncalled matches uses: f(...) and x.f(...) both call
    every definition named f, and a method's receiver is its first argument when it is
    called as x.f(...). A call passes a parameter by keyword, by position, or through *
    or ** unpacking. Definitions that uncalled reports, and those named in live, are left
    out; so are the calls made inside the former.
    """
    modules = _modules(root)
    dead = set(uncalled(root, live))
    defs = _src_definitions(root, modules)
    skip = {node for qual, _, _, node in defs if qual in dead}
    calls: dict = {}  # callee name -> [(call, called as x.f)]
    for tree in modules.values():
        for node in _walk(tree, skip):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((node, False))
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append((node, True))
    unset = []
    for qual, name, cls, node in defs:
        if qual in dead or qual in live or isinstance(node, ast.ClassDef):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        bound = cls is not None and not static
        for position, param in _defaulted(node):
            if not any(_passes(call, position, param, int(bound and attr))
                       for call, attr in calls.get(name, ())):
                unset.append(f"{qual}:{param}")
    return unset


def unread_fields(root: pathlib.Path = ROOT) -> list[str]:
    """Qualified names of the annotated fields of src class bodies (dataclass and
    NamedTuple fields) whose name no shipped module under root loads as an attribute.

    Fields are matched by name, as uncalled matches uses: any x.name load reads
    every field called name.
    """
    modules = _modules(root)
    loads = {node.attr for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{qual}.{item.target.id}" for qual, _, _, node in _src_definitions(root, modules)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id not in loads]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never loads, __future__ imports left out."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [b for b in bound if b not in names]


def test_every_src_definition_has_a_shipped_caller():
    missing = uncalled()
    assert missing == [], f"defined in src, used only by tests or by nothing: {missing}"


def test_the_tracer_allowlist_is_still_needed():
    """Each allowlisted name is still defined, still without a shipped caller,
    and still named by the tracer."""
    tracer = (ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")
    assert sorted(q for q in uncalled(live=()) if q in TRACER_BOUND) == sorted(TRACER_BOUND)
    for qual in TRACER_BOUND:
        assert f'"{qual.rsplit(".", 1)[1]}"' in tracer, qual


def test_every_defaulted_parameter_is_set_by_a_shipped_call():
    unset = [p for p in unset_defaults() if p not in UNSET_DEFAULTS]
    assert unset == [], f"parameters whose default no shipped call overrides: {unset}"


def test_the_unset_default_allowlist_is_still_needed():
    """Each allowlisted parameter still exists and no shipped call sets it yet."""
    assert sorted(p for p in unset_defaults() if p in UNSET_DEFAULTS) == sorted(UNSET_DEFAULTS)


def test_every_src_field_is_read_by_shipped_code():
    unread = unread_fields()
    assert unread == [], f"src fields that no shipped code reads: {unread}"


def test_no_shipped_module_imports_a_name_it_never_uses():
    # a package's __init__ imports to re-export (relgen.__version__)
    bad = {str(p.relative_to(ROOT)): names
           for p, t in _modules(ROOT).items()
           if p.name != "__init__.py" and (names := unused_imports(t))}
    assert bad == {}


def test_the_checks_see_a_test_only_method_and_an_unused_import(tmp_path):
    files = {
        "src/pkg/core.py": "import os\nfrom m import a, b as c\n\n\nclass C:\n"
                           "    def copy(self):\n        return c\n\n"
                           "    def run(self):\n        return self.size()\n\n"
                           "    def size(self):\n        return 1\n\n"
                           "    def __init__(self):\n        pass\n",
        "tools/use.py": "from pkg.core import C\n\nC().run()\nx = [1].copy()\n",
        "tests/test_core.py": "from pkg.core import C\n\nC().copy()\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    # copy is an array method name: [1].copy() in tools and C().copy() in tests do not count
    assert uncalled(tmp_path) == ["pkg.core.C.copy"]
    assert unused_imports(ast.parse(files["src/pkg/core.py"])) == ["os", "a"]


def test_the_parameter_check_sees_receivers_unpacking_and_test_only_keywords(tmp_path):
    files = {
        "src/pkg/core.py": "def f(a, b=1, *, c=2, d=3):\n    return a\n\n\n"
                           "def g(x=0):\n    return f(x, d=x)\n\n\n"
                           "def h(a, b=0, c=0):\n    return a\n\n\n"
                           "def k(x=0, y=0):\n    return x\n\n\n"
                           "class C:\n"
                           "    def m(self, p=0, q=1):\n        return p\n\n"
                           "    @staticmethod\n    def s(u=0):\n        return u\n\n"
                           "    def run(self):\n        return self.m(5)\n",
        "tools/use.py": "from pkg.core import C, f, h, k\n\n"
                        "f(1, 2)\nh(*[1, 2])\nk(**{})\nC().run()\nC.s(0)\n",
        "tests/test_core.py": "from pkg.core import C, f\n\nf(1, c=3)\nC().m(0, 1)\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    assert uncalled(tmp_path) == ["pkg.core.g"]
    # d is set only inside uncalled g, c and q only by tests; self.m(5) sets p, not self,
    # and a staticmethod's first argument is its first parameter
    assert unset_defaults(tmp_path) == ["pkg.core.f:c", "pkg.core.f:d", "pkg.core.C.m:q"]


def test_the_field_check_sees_stores_and_test_only_reads(tmp_path):
    files = {
        "src/pkg/core.py": "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
                           "@dataclass\nclass P:\n    a: int\n    b: int\n    c: int = 0\n"
                           "    n = 1\n\n\n"
                           "class Q(NamedTuple):\n    d: int\n    e: int\n\n\n"
                           "def make(p):\n    p.c = 2\n    return Q(p.a, p.n).d\n",
        "tools/use.py": "from pkg.core import P, make\n\nmake(P(1, 2))\n",
        "tests/test_core.py": "from pkg.core import P, Q\n\nP(1, 2).b\nQ(1, 2).e\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    # c is only stored, b and e are read only by tests, and n is not annotated
    assert unread_fields(tmp_path) == ["pkg.core.P.b", "pkg.core.P.c", "pkg.core.Q.e"]
