"""Parsed-module model handed to lint rules.

Rules receive two views:

* :class:`ModuleInfo` — one parsed file: its ``ast`` tree plus path
  predicates (``in_dir("serve")``, ``matches("utils/rng.py")``) so
  path-scoped rules never re-implement path splitting;
* :class:`Project` — the whole linted file set with lazy cross-file
  indices (class table, transitive base-class closure).  Cross-file
  rules such as REP003 ("every engine declares its memory footprint")
  resolve inheritance through the project, so fixture tests can
  exercise them on two small temp files instead of the real tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a class-body statement defines: a function, or the plain
    targets of an assignment with a value."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


@dataclass
class ModuleInfo:
    """One parsed python file."""

    path: str                      # as given on the command line
    tree: ast.Module
    rel: PurePosixPath = field(init=False)

    def __post_init__(self) -> None:
        self.rel = PurePosixPath(Path(self.path).as_posix())

    @property
    def name(self) -> str:
        return self.rel.stem

    def in_dir(self, *dirnames: str) -> bool:
        """True if any path component is one of ``dirnames``."""
        parts = set(self.rel.parts[:-1])
        return any(d in parts for d in dirnames)

    def matches(self, *suffixes: str) -> bool:
        """True if the posix path ends with any of ``suffixes``."""
        text = str(self.rel)
        return any(text == s or text.endswith("/" + s) for s in suffixes)


class Project:
    """The linted file set plus lazily-built cross-file indices."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = list(modules)
        self._class_index: dict[str, tuple[ModuleInfo, ast.ClassDef]] | None = None

    # ------------------------------------------------------------------
    # Class table and inheritance closure
    # ------------------------------------------------------------------
    @property
    def class_index(self) -> dict[str, tuple[ModuleInfo, ast.ClassDef]]:
        """Class name -> (module, ClassDef); first definition wins."""
        if self._class_index is None:
            index: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
            for module in self.modules:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        index.setdefault(node.name, (module, node))
            self._class_index = index
        return self._class_index

    @staticmethod
    def base_names(cls: ast.ClassDef) -> list[str]:
        """Last-segment names of a class's bases (``abc.ABC`` -> ABC)."""
        names = []
        for base in cls.bases:
            dotted = dotted_name(base)
            if dotted:
                names.append(dotted.rsplit(".", 1)[-1])
        return names

    def ancestry(self, cls: ast.ClassDef) -> set[str]:
        """Every base-class name reachable from ``cls``, transitively.

        Names whose defining class is outside the linted set are still
        included (as leaves) — a fixture subclassing an undefined
        ``MoEEngine`` counts as engine lineage.
        """
        seen: set[str] = set()
        frontier = list(self.base_names(cls))
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            entry = self.class_index.get(name)
            if entry is not None:
                frontier.extend(self.base_names(entry[1]))
        return seen

    def resolves_method(self, cls: ast.ClassDef, method: str) -> bool | None:
        """Does ``cls`` (or an in-set ancestor) define ``method``, as a
        function or as a class-body assignment with a value?

        Returns ``None`` when the chain leaves the linted set before an
        answer is found — the rule should stay silent rather than guess.
        """
        frontier: list[ast.ClassDef | None] = [cls]
        seen: set[str] = set()
        escaped = False
        while frontier:
            node = frontier.pop()
            if node is None or node.name in seen:
                continue
            seen.add(node.name)
            for stmt in node.body:
                if method in defined_names(stmt):
                    return True
            for base in self.base_names(node):
                if base in ("object", "ABC"):
                    continue
                entry = self.class_index.get(base)
                if entry is None:
                    escaped = True
                else:
                    frontier.append(entry[1])
        return None if escaped else False
