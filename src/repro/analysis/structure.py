"""REP003/REP004 — registry and event-object discipline.

REP003 (registry hygiene): every concrete engine/kernel class — one
that subclasses ``MoEEngine``/``MatmulKernel`` or is decorated with
``@ENGINES.register``/``@KERNELS.register`` — must resolve a
``capabilities()`` method (the ``engine="auto"`` selector dispatches on
it), and every concrete *engine* must declare (or inherit) its memory
footprint: ``FIXED_OVERHEAD``, ``WEIGHT_FACTOR`` and
``workspace_bytes()`` (``repro bench maxbatch`` and serving admission
price it from those).  Meta engines (``is_meta = True``, e.g. the auto
selector) bound their footprint over their delegates and are exempt
from the footprint check.

REP004 (event discipline): every subclass of the calendar's ``Event``
must be a ``@dataclass(frozen=True)``, and no code may write
attributes on a value known to be an event — events are shared payload
on the calendar heap; mutating one corrupts replay determinism.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.project import (
    ModuleInfo,
    Project,
    defined_names,
    dotted_name,
)
from repro.analysis.rules import LintRule, register_rule

ENGINE_ROOTS = ("MoEEngine",)
KERNEL_ROOTS = ("MatmulKernel",)
REGISTER_DECORATORS = {
    "ENGINES.register": "engine", "KERNELS.register": "kernel",
    "register_engine": "engine", "register_kernel": "kernel",
}
#: What :mod:`repro.moe.memory_model` asks every fixed engine.
FOOTPRINT_MEMBERS = ("FIXED_OVERHEAD", "WEIGHT_FACTOR", "workspace_bytes")

EVENT_ROOT = "Event"
#: The calendar's concrete event types, recognised even when the
#: ``Event`` base itself is outside the linted set.
EVENT_TYPE_NAMES = {"Event", "Arrival", "StepComplete", "Preempt",
                    "HorizonExpired"}


def _class_attr_true(cls: ast.ClassDef, attr: str) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) \
                and attr in defined_names(stmt):
            value = stmt.value
            return isinstance(value, ast.Constant) and value.value is True
    return False


def _registered_kind(cls: ast.ClassDef) -> str | None:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name in REGISTER_DECORATORS:
            return REGISTER_DECORATORS[name]
    return None


@register_rule
class RegistryHygiene(LintRule):
    code = "REP003"
    summary = ("registered engines/kernels declare capabilities(); "
               "engines declare their memory footprint")

    def check(self, module: ModuleInfo,
              project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node, project))
        return findings

    def _check_class(self, module: ModuleInfo, cls: ast.ClassDef,
                     project: Project) -> list[Finding]:
        ancestry = project.ancestry(cls)
        kind = _registered_kind(cls)
        if kind is None:
            if any(root in ancestry for root in ENGINE_ROOTS):
                kind = "engine"
            elif any(root in ancestry for root in KERNEL_ROOTS):
                kind = "kernel"
        if kind is None:
            return []
        if _class_attr_true(cls, "abstract") or self._is_base(cls, project):
            return []

        findings: list[Finding] = []
        has_caps = project.resolves_method(cls, "capabilities")
        if has_caps is False:
            findings.append(self.finding(
                module, cls,
                f"{kind} class `{cls.name}` does not declare (or "
                "inherit) capabilities(); the auto selector and "
                "compatibility gates require it"))

        if kind == "engine" and not _class_attr_true(cls, "is_meta"):
            for member in FOOTPRINT_MEMBERS:
                if project.resolves_method(cls, member) is False:
                    findings.append(self.finding(
                        module, cls,
                        f"engine class `{cls.name}` does not declare (or "
                        f"inherit) {member}; maxbatch/admission cannot "
                        "price its memory footprint"))
        return findings

    @staticmethod
    def _is_base(cls: ast.ClassDef, project: Project) -> bool:
        """Abstract intermediates (someone's base class) are exempt —
        only leaf classes get registered."""
        for _module, other in project.class_index.values():
            if other is cls:
                continue
            if cls.name in project.base_names(other):
                return True
        return False


@register_rule
class EventDiscipline(LintRule):
    code = "REP004"
    summary = "event types are frozen dataclasses and never mutated"

    def check(self, module: ModuleInfo,
              project: Project) -> list[Finding]:
        findings: list[Finding] = []
        event_names = self._event_class_names(project)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) \
                    and self._is_event_class(node, project):
                findings.extend(self._check_frozen(module, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(
                    self._check_mutations(module, node, event_names))
        return findings

    # -- class shape -----------------------------------------------------
    @staticmethod
    def _is_event_class(cls: ast.ClassDef, project: Project) -> bool:
        if cls.name == EVENT_ROOT:
            return True
        ancestry = project.ancestry(cls)
        return EVENT_ROOT in ancestry \
            or bool(ancestry & (EVENT_TYPE_NAMES - {EVENT_ROOT}))

    def _check_frozen(self, module: ModuleInfo,
                      cls: ast.ClassDef) -> list[Finding]:
        for deco in cls.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if dotted_name(target) in ("dataclass", "dataclasses.dataclass"):
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if kw.arg == "frozen" \
                                and isinstance(kw.value, ast.Constant) \
                                and kw.value.value is True:
                            return []
                return [self.finding(
                    module, cls,
                    f"event type `{cls.name}` must be declared "
                    "@dataclass(frozen=True); events are shared "
                    "calendar payload")]
        return [self.finding(
            module, cls,
            f"event type `{cls.name}` is not a frozen dataclass; "
            "declare it @dataclass(frozen=True)")]

    # -- mutation sites --------------------------------------------------
    def _event_class_names(self, project: Project) -> set[str]:
        names = set(EVENT_TYPE_NAMES)
        for name, (_module, cls) in project.class_index.items():
            if self._is_event_class(cls, project):
                names.add(name)
        return names

    def _check_mutations(self, module: ModuleInfo,
                         func: "ast.FunctionDef | ast.AsyncFunctionDef",
                         event_names: set[str]) -> list[Finding]:
        event_vars: set[str] = set()
        for arg in (*func.args.posonlyargs, *func.args.args,
                    *func.args.kwonlyargs):
            annotation = arg.annotation
            if annotation is not None:
                name = dotted_name(annotation)
                if name and name.rsplit(".", 1)[-1] in event_names:
                    event_vars.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                value = node.value
                if isinstance(value, ast.Call):
                    called = dotted_name(value.func)
                    if called \
                            and called.rsplit(".", 1)[-1] in event_names:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                event_vars.add(target.id)
        if not event_vars:
            return []
        findings: list[Finding] = []
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in event_vars:
                        findings.append(self.finding(
                            module, node,
                            f"attribute write to event "
                            f"`{target.value.id}.{target.attr}`; events "
                            "are frozen — build a new event instead"))
        return findings
