"""CI check: every public name under ``src/repro`` is reached from a root.

Walks the AST of the package and of its entry points and lists every public
module-level ``def`` / ``class`` and every public method that no root
reaches, transitively.  The roots are ``src/repro/cli.py`` (every command)
and ``__main__.py``, ``benchmarks/`` (the end-to-end harness and the pytest
benches), ``examples/`` and ``scripts/``; everything in a root file counts.

A reached function or method reaches what its body names; a reached class
reaches its bases, decorators, class-level statements and dunder methods.
A bare or dotted name is resolved through the imports of its module (an
``__init__`` re-export is passed through, it reaches nothing by itself);
``obj.attr`` on anything else reaches every member called ``attr``.  Also
reached:

* methods named by string — the ``*_STEPS`` dispatch tables (``P2_STEPS``,
  ``CONTROL_STEPS``), ``getattr(obj, "name")`` and a whole-string
  ``"module:Class.method"`` (the e2e tracer's ``TARGETS`` wraps these);
* module-level functions registered by a decorator call into the package
  (``repro.bench.suite.register``);
* dunder methods of a reached class, and methods overriding a base class
  from outside the package (``BaseHTTPRequestHandler.do_GET``);
* the module-level statements of every module a reached statement imports.

``__all__``, docstrings and ``tests/`` reach nothing.  A name that stays
unreached on purpose has one line in ``scripts/reach_allowlist.txt``:
``<module>:<qualname> <kind>: <reason>``, where ``kind`` is ``oracle`` (a
test uses it as an oracle or fixture), ``reference`` (a harness checks a
model against it) or ``roadmap`` (a ROADMAP item names it); what an
allowlisted name reaches stays with it and needs no line of its own.

Prints the counts as Markdown table rows (CI appends them to the line-count
summary) and exits 1 on any unreached name missing from the allowlist, or
any allowlist line whose name no longer exists or is now reached.

Run: ``python scripts/reach_check.py``
"""

from __future__ import annotations

import ast
import builtins
import importlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "repro"
ROOTS = (SOURCE / "cli.py", SOURCE / "__main__.py", REPO / "benchmarks",
         REPO / "examples", REPO / "scripts")
ALLOWLIST = REPO / "scripts" / "reach_allowlist.txt"

KINDS = ("oracle", "reference", "roadmap")
_ENTRY = re.compile(r"^(\S+)\s+(\w+):\s+(\S.*)$")
#: ``"module:Class.method"`` — a callable named by string
_TARGET = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_][\w.]*$")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (*_FUNCTIONS, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    module: "Module"
    qualname: str
    node: ast.AST
    owner: "Definition | None"  # the class a method or nested class is in

    @property
    def name(self) -> str:
        return f"{self.module.name}:{self.qualname}"

    @property
    def public(self) -> bool:
        return not self.qualname.rsplit(".", 1)[-1].startswith("_")

    @property
    def lines(self) -> int:
        first = min([d.lineno for d in self.node.decorator_list]
                    + [self.node.lineno])
        return self.node.end_lineno - first + 1


class Module:
    def __init__(self, name: str, is_package: bool, path: Path):
        self.name = name
        self.path = path
        self.package = name if is_package else name.rpartition(".")[0]
        self.tree = ast.parse(path.read_text())
        #: local name -> ("module", dotted) or ("name", dotted module, attr)
        self.bindings: dict[str, tuple[str, ...]] = {}
        self.stars: list[str] = []
        self.definitions: dict[str, Definition] = {}
        self.statements: list[ast.AST] = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = ("module", alias.name)
                    else:
                        head = alias.name.partition(".")[0]
                        self.bindings[head] = ("module", head)
            elif isinstance(node, ast.ImportFrom):
                source = self.absolute(node)
                for alias in node.names:
                    if alias.name == "*":
                        self.stars.append(source)
                    else:
                        self.bindings[alias.asname or alias.name] = (
                            "name", source, alias.name)
        self._index(self.tree.body, None, "")

    def absolute(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        base = self.package.split(".")
        base = base[:len(base) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))

    def _index(self, body: list[ast.stmt], owner: Definition | None,
               prefix: str) -> None:
        """Index the definitions of a module or class body; keep the rest."""
        for node in body:
            if isinstance(node, _DEFINITIONS):
                definition = Definition(self, prefix + node.name, node, owner)
                self.definitions[definition.qualname] = definition
                if isinstance(node, ast.ClassDef):
                    self._index(node.body, definition,
                                definition.qualname + ".")
            elif owner is None and isinstance(node, (ast.If, ast.Try)):
                self.statements.extend(
                    [node.test] if isinstance(node, ast.If) else [])
                for block in ("body", "orelse", "finalbody"):
                    self._index(getattr(node, block, []), None, prefix)
                for handler in getattr(node, "handlers", []):
                    self._index(handler.body, None, prefix)
            elif owner is None and not _is_export(node):
                self.statements.append(node)


def _is_export(node: ast.stmt) -> bool:
    """A docstring, an ``__all__`` assignment or an import reaches nothing."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return True
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = getattr(node, "targets", None) or [node.target]
        return all(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets)
    return isinstance(node, (ast.Import, ast.ImportFrom))


def _module_name(path: Path, top: Path) -> tuple[str, bool]:
    """Dotted name of ``path`` counted from the directory holding ``top``."""
    parts = list(path.relative_to(top.parent).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


class Reach:
    """The transitive closure of what the roots reach."""

    def __init__(self, source: Path, roots: tuple[Path, ...]):
        self.modules: dict[str, Module] = {}
        for path in sorted(source.rglob("*.py")):
            name, is_package = _module_name(path, source)
            self.modules[name] = Module(name, is_package, path)
        root_files = sorted({file for root in roots for file in (
            [root] if root.is_file() else root.rglob("*.py"))})
        roots_reached = []
        for path in root_files:
            if path.is_relative_to(source):
                module = self.modules[_module_name(path, source)[0]]
            else:
                module = Module(*_module_name(path, source.parent), path)
                self.modules[module.name] = module
            roots_reached.append(module)
        self.members: dict[str, list[Definition]] = {}
        for module in self.modules.values():
            for definition in module.definitions.values():
                if definition.owner is not None:
                    self.members.setdefault(
                        definition.qualname.rsplit(".", 1)[-1], []
                    ).append(definition)
        self.reached: set[int] = set()
        self.loaded: set[str] = set()
        #: reached definitions and module-level statements left to walk
        self._queue: list[Definition | tuple[Module, ast.AST]] = []
        for module in roots_reached:
            for definition in module.definitions.values():
                self.reached.add(id(definition))
            self._queue.append((module, module.tree))
        self._close()

    def keep(self, definitions: list[Definition]) -> None:
        """Reach ``definitions`` (allowlisted) and what they reach."""
        for definition in definitions:
            self.reach(definition)
        self._close()

    def _close(self) -> None:
        while self._queue:
            item = self._queue.pop()
            if isinstance(item, tuple):
                self._walk(*item)
            elif isinstance(item.node, ast.ClassDef):
                self._class(item.module, item)
            else:
                self._walk(item.module, item.node)

    # -- resolution -------------------------------------------------------

    def resolve_attr(self, dotted: str, attr: str, seen=frozenset()):
        """What ``attr`` of module ``dotted`` is: a definition, a module or
        None (outside the package).  Re-exports are followed, not reached."""
        if (dotted, attr) in seen:
            return None
        seen = seen | {(dotted, attr)}
        module = self.modules.get(dotted)
        if module is None:
            return None
        if attr in module.definitions:
            return module.definitions[attr]
        binding = module.bindings.get(attr)
        if binding is not None:
            return self._follow(binding, seen)
        for star in module.stars:
            found = self.resolve_attr(star, attr, seen)
            if found is not None:
                return found
        return self.modules.get(f"{dotted}.{attr}")

    def _follow(self, binding: tuple[str, ...], seen=frozenset()):
        if binding[0] == "module":
            return self.modules.get(binding[1])
        return self.resolve_attr(binding[1], binding[2], seen)

    def resolve(self, module: Module, node: ast.AST):
        if isinstance(node, ast.Name):
            if node.id in module.definitions:
                return module.definitions[node.id]
            if node.id in module.bindings:
                return self._follow(module.bindings[node.id])
            for star in module.stars:
                found = self.resolve_attr(star, node.id)
                if found is not None:
                    return found
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(module, node.value)
            if isinstance(base, Module):
                return self.resolve_attr(base.name, node.attr)
            if isinstance(base, Definition):
                return base.module.definitions.get(
                    f"{base.qualname}.{node.attr}")
        return None

    def external(self, module: Module, node: ast.AST):
        """The object a base-class expression names outside the package."""
        dotted = []
        while isinstance(node, ast.Attribute):
            dotted.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        binding = module.bindings.get(node.id)
        if binding is None:
            path = ["builtins", node.id, *dotted]
        elif binding[0] == "module":
            path = [binding[1], *dotted]
        else:
            path = [binding[1], binding[2], *dotted]
        if path[0].partition(".")[0] in {m.partition(".")[0]
                                        for m in self.modules}:
            return None
        try:
            found = importlib.import_module(path[0]) \
                if path[0] != "builtins" else builtins
            for attr in path[1:]:
                found = getattr(found, attr)
        except (ImportError, AttributeError):
            return None
        return found

    # -- closure ----------------------------------------------------------

    def reach(self, target) -> None:
        if isinstance(target, Module):
            self.load(target)
        elif isinstance(target, Definition) and id(target) not in self.reached:
            self.reached.add(id(target))
            self.load(target.module)
            self._queue.append(target)

    def load(self, module: Module) -> None:
        """Importing a module runs its module-level statements."""
        if module.name in self.loaded:
            return
        self.loaded.add(module.name)
        parent = module.name.rpartition(".")[0]
        if parent in self.modules:
            self.load(self.modules[parent])
        for statement in module.statements:
            self._queue.append((module, statement))
        for node in module.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._imports(module, node)
            if isinstance(node, _FUNCTIONS) and any(
                    isinstance(d, ast.Call) and isinstance(
                        self.resolve(module, d.func), Definition)
                    for d in node.decorator_list):
                self.reach(module.definitions[node.name])

    def _imports(self, module: Module, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in self.modules:
                    self.load(self.modules[alias.name])
        else:
            source = module.absolute(node)
            if source in self.modules:
                self.load(self.modules[source])
            for alias in node.names:
                found = self.modules.get(f"{source}.{alias.name}")
                if found is not None:
                    self.load(found)

    def _members(self, name: str) -> None:
        for definition in self.members.get(name, ()):
            self.reach(definition)

    def _walk(self, module: Module, root: ast.AST,
              owner: Definition | None = None) -> None:
        for node in ast.walk(root):
            self._reference(module, node, owner)

    def _class(self, module: Module, cls: Definition) -> None:
        node = cls.node
        parts = [*node.bases, *node.keywords, *node.decorator_list]
        parts += [s for s in node.body if not isinstance(s, _DEFINITIONS)]
        for part in parts:
            self._walk(module, part, cls)
        for statement in node.body:
            if isinstance(statement, (ast.Assign, ast.AnnAssign)) and any(
                    isinstance(t, ast.Name) and t.id.endswith("_STEPS")
                    for t in getattr(statement, "targets", None)
                    or [statement.target]):
                for child in ast.walk(statement.value):
                    if isinstance(child, ast.Constant) \
                            and isinstance(child.value, str):
                        self._members(child.value)
        for statement in node.body:
            if isinstance(statement, _DEFINITIONS) and (
                    statement.name.startswith("__")
                    and statement.name.endswith("__")
                    or self._called_from_outside(module, node,
                                                 statement.name, set())):
                self.reach(module.definitions[
                    f"{cls.qualname}.{statement.name}"])

    def _called_from_outside(self, module: Module, node: ast.ClassDef,
                             name: str, seen: set[int]) -> bool:
        """Whether a base class from outside the package calls ``name``:
        a framework class (``BaseHTTPRequestHandler`` dispatches ``do_GET``
        by name) calls any method, a builtin one only those it defines."""
        for base in node.bases:
            found = self.resolve(module, base)
            if isinstance(found, Definition):
                if isinstance(found.node, ast.ClassDef) \
                        and id(found) not in seen:
                    seen.add(id(found))
                    if self._called_from_outside(found.module, found.node,
                                                 name, seen):
                        return True
            elif found is None:
                outside = self.external(module, base)
                if isinstance(outside, type) and outside is not object and (
                        outside.__module__ != "builtins"
                        or hasattr(outside, name)):
                    return True
        return False

    def _reference(self, module: Module, node: ast.AST,
                   owner: Definition | None) -> None:
        if isinstance(node, ast.Name):
            found = self.resolve(module, node)
            if found is None and owner is not None:
                found = module.definitions.get(f"{owner.qualname}.{node.id}")
            self.reach(found)
        elif isinstance(node, ast.Attribute):
            self.reach(self.resolve(module, node))
            if not isinstance(self.resolve(module, node.value), Module):
                self._members(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self._imports(module, node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _TARGET.match(node.value):
            self.reach(self.find(node.value))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "hasattr", "setattr") \
                and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            self._members(node.args[1].value)

    # -- report -----------------------------------------------------------

    def unreached(self) -> list[Definition]:
        """Public definitions nothing reaches; an unreached class's members
        are covered by the class and not listed again."""
        listed = []
        for module in self.modules.values():
            for definition in module.definitions.values():
                owner = definition.owner
                while owner is not None and id(owner) in self.reached:
                    owner = owner.owner
                if definition.public and owner is None \
                        and id(definition) not in self.reached:
                    listed.append(definition)
        return listed

    def find(self, name: str) -> Definition | None:
        """The definition ``"module:Qual.name"`` names, through re-exports."""
        module, _, qualname = name.partition(":")
        head, *rest = qualname.split(".")
        found = self.resolve_attr(module, head)
        for part in rest:
            if not isinstance(found, Definition):
                return None
            found = found.module.definitions.get(f"{found.qualname}.{part}")
        return found if isinstance(found, Definition) else None


def read_allowlist(path: Path) -> tuple[dict[str, str], list[str]]:
    """Allowlisted names with their reasons, and the malformed lines."""
    entries: dict[str, str] = {}
    errors: list[str] = []
    if not path.exists():
        return entries, errors
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _ENTRY.match(line)
        if match is None or match.group(2) not in KINDS:
            errors.append(f"{path.name}:{number}: expected '<module>:<name> "
                          f"<{'|'.join(KINDS)}>: <reason>', got {line!r}")
        else:
            entries[match.group(1)] = f"{match.group(2)}: {match.group(3)}"
    return entries, errors


def check(source: Path = SOURCE, roots: tuple[Path, ...] = ROOTS,
          allowlist: Path = ALLOWLIST) -> tuple[list[str], list[str]]:
    """The summary rows and the failures."""
    reach = Reach(source, roots)
    listed = {definition.name: definition for definition in reach.unreached()}
    entries, errors = read_allowlist(allowlist)
    for name in entries:
        if reach.find(name) is None:
            errors.append(f"{allowlist.name}: `{name}` no longer exists")
        elif name not in listed:
            errors.append(f"{allowlist.name}: `{name}` is reached now")
    reach.keep([listed[name] for name in entries if name in listed])
    unlisted = [definition for definition in reach.unreached()
                if definition.name not in entries]
    errors += [f"| `{definition.name}` | {definition.lines} | unreached, "
               f"not allowlisted" for definition in unlisted]
    rows = [f"| unreached public names outside the allowlist (count, "
            f"must be 0) | {len(unlisted)} |",
            f"| reach allowlist entries (count) | {len(entries)} |"]
    return rows, errors


def main() -> int:
    rows, errors = check()
    print("\n".join(rows))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
