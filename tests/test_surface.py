"""Every definition in ``src/slomod`` is reached by the program or exported.

Roots: the names ``slomod/__init__.py`` imports, ``KEPT``, the module-level
code of ``src/slomod`` and all of ``perfbench/*.py`` and ``tools/*.py``.  A
reached body reaches what a bare name or a ``"name"``/``"Class.method"``
string spells; ``x.m`` reaches the functions named m and the methods named m
of classes that are not confined, and of C when x is typed C (``self`` or
``cls`` in C, C itself, a name bound to a C).  A call ``x.m(...)`` on an
instance or module reaches only the m that take its arguments.  Reading,
not calling, an attribute that some class stores reaches no method.  A
class without base or subclass is confined when reached code keeps its
instances in typed names: as receivers, local values, returns annotated C,
or arguments for parameters annotated C or not annotated (which become
typed C).  Such an instance meets no operator, ``repr`` or hash, so only
its ``__init__`` runs.  Dunders are never reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "slomod"
KEPT = {"qis_closure_member", "pair_max_sum", "psi_inverse", "from_int_terms"}
FN, CLS = ast.FunctionDef, ast.ClassDef


def _ann(node):
    """The name an annotation spells, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return node.id if isinstance(node, ast.Name) else None


def _deco(fn, name):
    return any(isinstance(d, ast.Name) and d.id == name for d in fn.decorator_list)


class Program:
    def __init__(self):
        init = ast.parse((SRC / "__init__.py").read_text())
        exports = {a.name for n in ast.walk(init) if isinstance(n, ast.ImportFrom) for a in n.names}
        self.defs, self.named = {}, {}  # key -> (node, owning class or None); name -> keys
        self.roots, self.seeds, self.report = [], [], []
        self.flows = {}  # (id of a function, parameter) -> classes passed to it unannotated
        for path in [*sorted(SRC.glob("*.py")), *ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")]:
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, (FN, CLS)):
                    self.roots.append(node)
                    continue
                key = f"{path.stem}.{node.name}"
                members = [f for f in node.body if isinstance(f, FN)] if isinstance(node, CLS) else []
                for k, n, owner in [(key, node, None)] + [(f"{key}.{f.name}", f, node.name) for f in members]:
                    self.defs[k] = (n, owner)
                    self.named.setdefault(n.name, []).append(k)
                    if path.parent != SRC or n.name in KEPT or (owner is None and n.name in exports):
                        self.seeds.append(k)
                    elif not (n.name.startswith("__") and n.name.endswith("__")):
                        self.report.append(k)
        nodes = [n for n, _ in self.defs.values()]
        self.classes = {n.name for n in nodes if isinstance(n, CLS)}
        self.fields = {t.attr for n in nodes for a in ast.walk(n) if isinstance(a, ast.Assign)
                       for t in a.targets if isinstance(t, ast.Attribute)}
        self.fields -= {n.name for n in nodes if isinstance(n, FN) and _deco(n, "property")}
        bases = {n.name: {_ann(b) for b in n.bases} & self.classes for n in nodes if isinstance(n, CLS)}
        self.open = {c for c, bs in bases.items() if bs}.union(*bases.values())

    def _callees(self, call):
        """(function, parameters bound before the arguments) pairs a call may run."""
        f = call.func
        by_attr = isinstance(f, ast.Attribute)
        out = []
        for k in self.named.get(f.attr if by_attr else getattr(f, "id", None), []):
            n, owner = self.defs[k]
            if isinstance(n, CLS) and not by_attr:
                out += [(m, 1) for m in n.body if isinstance(m, FN) and m.name == "__init__"]
            elif isinstance(n, FN) and (by_attr or owner is None):
                out.append((n, int(owner is not None and not _deco(n, "staticmethod"))))
        return out

    def _scan(self, node, owner, fn):
        """(names, (attribute, receiver class) pairs, escaping classes) of
        one body; ``fn`` is the function whose body it is, or None."""
        parents = {c: p for p in ast.walk(node) for c in ast.iter_child_nodes(p)}
        typed, cls_name = {}, None
        if fn is not None:
            params = fn.args.posonlyargs + fn.args.args
            for a in params + fn.args.kwonlyargs:
                typed[a.arg] = ({_ann(a.annotation)} & self.classes) | self.flows.get((id(fn), a.arg), set())
            if owner and not _deco(fn, "staticmethod"):
                if _deco(fn, "classmethod"):
                    cls_name = params[0].arg
                else:
                    typed[params[0].arg] = {owner}

        def is_class(n):
            return isinstance(n, ast.Name) and (n.id in self.classes or n.id == cls_name)

        def called(n):
            return isinstance(parents.get(n), ast.Call) and parents[n].func is n

        def shape(n):
            """(positional count, keyword names) of the call of n, or None."""
            if not called(n):
                return None
            call = parents[n]
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                return None
            return len(call.args), frozenset(k.arg for k in call.keywords)

        def kinds(e):
            """The classes whose instance (for a class name: the class) e may be."""
            if isinstance(e, ast.Name):
                return {owner} if e.id == cls_name else ({e.id} & self.classes or typed.get(e.id, set()))
            if not isinstance(e, ast.Call):
                return set()
            made = kinds(e.func) if is_class(e.func) else set()
            return made | ({_ann(f.returns) for f, _ in self._callees(e)} & self.classes)

        def kept(n, ks):
            """Whether a value of the classes ``ks`` stays in names here."""
            p = parents.get(n)
            if isinstance(p, (ast.Attribute, ast.arg, FN)):
                return True
            if is_class(n) or called(n):
                return is_class(n) and called(n)
            if isinstance(p, ast.Assign):
                return fn is not None and [type(t) for t in p.targets] == [ast.Name]
            if isinstance(p, ast.Return):
                while not isinstance(p, (FN, ast.Lambda)):
                    p = parents[p]
                return p is fn and ks <= {_ann(fn.returns)}
            if not isinstance(p, ast.Call) or any(isinstance(a, ast.Starred) for a in p.args):
                return False
            fills = [(f, a) for f, bound in self._callees(p)
                     for a in (f.args.posonlyargs + f.args.args)[p.args.index(n) + bound:][:1]]
            for callee, a in fills:
                if a.annotation is None:
                    have = self.flows.setdefault((id(callee), a.arg), set())
                    self.changed |= not ks <= have
                    have |= ks
            return bool(fills) and all(a.annotation is None or ks <= {_ann(a.annotation)} for _, a in fills)

        for _ in range(2 if fn else 0):
            for n in ast.walk(node):
                if isinstance(n, ast.Assign) and [type(t) for t in n.targets] == [ast.Name]:
                    typed[n.targets[0].id] = typed.get(n.targets[0].id, set()) | kinds(n.value)
        names, attrs, escaped = set(), set(), set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and (n.attr not in self.fields or called(n)):
                call = None if is_class(n.value) else shape(n)  # C.m(x, ...) passes self
                attrs |= {(n.attr, c, call) for c in kinds(n.value) or {None}}
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                parts = n.value.split(".")
                names.update(parts)
                attrs |= {(m, c, None) for c, m in zip(parts, parts[1:]) if c in self.classes}
            ks = kinds(n) if isinstance(n, ast.Call) or isinstance(getattr(n, "ctx", None), ast.Load) else set()
            if ks and not kept(n, ks):
                escaped |= ks
        return names, attrs, escaped

    def _accepts(self, key, call):
        """Whether the definition ``key`` takes a call of shape ``call``
        (positional count, keyword names; None when unknown)."""
        node, owner = self.defs[key]
        # x.prop(...) calls what the property returns, not the property
        if call is None or not isinstance(node, FN) or _deco(node, "property"):
            return True
        npos, keywords = call
        a = node.args
        params = (a.posonlyargs + a.args)[int(owner is not None and not _deco(node, "staticmethod")):]
        if npos > len(params) and a.vararg is None:
            return False
        free = params[npos:]
        if a.kwarg is None and not keywords <= {p.arg for p in free + a.kwonlyargs}:
            return False
        required = free[: max(0, len(params) - len(a.defaults) - npos)] + [
            k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is None
        ]
        return {p.arg for p in required} <= keywords

    def _reach(self, confined):
        reached, escaped, todo = set(), set(), list(self.seeds)

        def use(node, owner=None, fn=None):
            names, attrs, esc = self._scan(node, owner, fn)
            escaped.update(esc)
            todo.extend(k for name in names for k in self.named.get(name, []) if self.defs[k][1] is None)
            todo.extend(k for attr, recv, call in attrs for k in self.named.get(attr, [])
                        if (self.defs[k][1] not in confined or self.defs[k][1] == recv)
                        and self._accepts(k, call))

        for node in self.roots:
            use(node)
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            node, owner = self.defs[key]
            if isinstance(node, FN):
                use(node, owner, node)
                continue
            for part in node.bases + [s for s in node.body if not isinstance(s, FN)]:
                use(part, node.name)
            todo.extend(f"{key}.{f.name}" for f in node.body if isinstance(f, FN) and f.name.startswith("__")
                        and f.name.endswith("__") and (f.name == "__init__" or node.name not in confined))
        return reached, escaped

    def unreached(self):
        """Keys of the definitions nothing reaches, dunders left out."""
        confined = self.classes - self.open
        while True:
            self.changed = False
            reached, escaped = self._reach(confined)
            if not self.changed and not escaped & confined:
                return sorted(set(self.report) - reached)
            confined -= escaped


def test_every_definition_is_reached_or_exported():
    unreached = Program().unreached()
    assert not unreached, "nothing in the program reaches " + ", ".join(unreached)


def _unused_imports(path):
    """The names a module's top-level imports bind that nothing in it reads,
    in code or in a quoted annotation."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    quoted = [a for n in ast.walk(tree) for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
              if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    read = [n for t in [tree, *(ast.parse(a.value, mode="eval") for a in quoted)] for n in ast.walk(t)]
    return bound - {n.id for n in read if isinstance(n, ast.Name)}


def test_every_module_level_import_is_used():
    unused = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name in sorted(_unused_imports(path))]
    assert not unused, "imported and never used: " + ", ".join(unused)


def test_a_call_reaches_only_the_definitions_that_take_its_arguments():
    accepts = Program()._accepts
    # RatFunc.is_zero(self): a bound call with no argument, never with one
    assert accepts("gfq.RatFunc.is_zero", (0, frozenset()))
    assert not accepts("gfq.RatFunc.is_zero", (1, frozenset()))
    # hnf_u(M, n_level, hnf=True): two or three positionals, or hnf by name
    assert not accepts("localized.hnf_u", (1, frozenset()))
    assert accepts("localized.hnf_u", (2, frozenset({"hnf"})))
    assert not accepts("localized.hnf_u", (4, frozenset()))
    assert not accepts("localized.hnf_u", (2, frozenset({"prec"})))
    assert accepts("localized.hnf_u", (3, frozenset()))
    # a classmethod binds cls; an unknown shape (a starred call) reaches all
    assert accepts("localized.SMat.identity", (3, frozenset()))
    assert not accepts("localized.SMat.identity", (5, frozenset()))
    assert accepts("gfq.RatFunc.is_zero", None)
